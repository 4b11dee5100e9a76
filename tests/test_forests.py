import itertools

import pytest

from omegatrans.evaluate import equiv_on_lassos
from omegatrans.forests import (
    ForestNode,
    StateExplosion,
    build_graph,
    canonical_forest,
    forest_edges,
    forest_leaf_root_pairs,
    forest_leaves,
    forest_nodes,
    forest_registers,
    initial_state,
    left_right_endpoint,
    right_right_runs,
    step,
    two_way_to_sst,
    _dfs_edge_paths,
)
from omegatrans.generate import generate_two_way
from omegatrans.lasso import enumerate_lassos
from omegatrans.machines import (
    LEFT_END,
    State,
    Transition,
    TwoWayParityTransducer,
    WrongMachineKind,
    validate_sst,
    validate_sst_machine,
)
from support import check_forest_against_runs


def two_way(states, transitions, alphabet=("a", "b"), k=1, ell=2):
    by_name = {name: State(name, fwd) for name, fwd in states}
    trs = {
        (by_name[src], letter): Transition(by_name[tgt], tuple(out), tuple(colors))
        for src, letter, tgt, out, colors in transitions
    }
    return TwoWayParityTransducer(
        input_alphabet=alphabet,
        output_alphabet=alphabet,
        states=tuple(by_name.values()),
        initial=next(iter(by_name.values())),
        transitions=trs,
        k=k,
        ell=ell,
    )


# --- initial summaries ------------------------------------------------------


def test_initial_single_bounce():
    machine = two_way(
        [("q", True), ("p", False)],
        [
            ("q", "a", "p", "", (0,)),
            ("p", LEFT_END, "q", "x", (1,)),
        ],
        alphabet=("a", "b", "x"),
    )
    # the bounce targets the initial state, so it is dropped
    (q, forest), contents = initial_state(machine)
    assert q == "q" and forest == ()

    machine = two_way(
        [("q", True), ("r", True), ("p", False)],
        [("p", LEFT_END, "r", "x", (1,))],
        alphabet=("a", "b", "x"),
    )
    (q, forest), contents = initial_state(machine)
    assert forest_leaf_root_pairs(forest) == {("p", "r")}
    assert list(contents.values()) == [("x",)]


def test_initial_no_backward_states(first_two_automaton):
    (_, forest), contents = initial_state(first_two_automaton)
    assert forest == () and contents == {}


def test_initial_two_bounces_to_distinct_targets():
    machine = two_way(
        [("q", True), ("r1", True), ("r2", True), ("p1", False), ("p2", False)],
        [
            ("p1", LEFT_END, "r1", "a", (0,)),
            ("p2", LEFT_END, "r2", "b", (1,)),
        ],
    )
    (_, forest), contents = initial_state(machine)
    assert forest_leaf_root_pairs(forest) == {("p1", "r1"), ("p2", "r2")}
    assert len(forest) == 2 and sorted(contents.values()) == [("a",), ("b",)]


def test_initial_merged_bounces_share_a_root():
    machine = two_way(
        [("q", True), ("r", True), ("p1", False), ("p2", False)],
        [
            ("p1", LEFT_END, "r", "a", (0,)),
            ("p2", LEFT_END, "r", "b", (0,)),
        ],
    )
    (_, forest), _ = initial_state(machine)
    assert len(forest) == 1 and len(forest[0].children) == 2


# --- graph building ---------------------------------------------------------


def test_graph_without_backward_states(first_two_automaton):
    graph = build_graph((), "a", first_two_automaton, ())
    for origin, (dest, label) in graph.out_edge.items():
        assert origin[0] == "c" and dest[0] == "c"


def test_graph_acquires_cycle():
    machine = two_way(
        [("q", True), ("f", True), ("b", False)],
        [
            ("f", "a", "b", "", (0,)),
            ("b", "a", "f", "", (0,)),
            ("b", LEFT_END, "f", "", (0,)),
        ],
    )
    (_, forest), _ = initial_state(machine)
    graph = build_graph(forest, "a", machine, ("r1", "r2", "r3", "r4"))
    # from the old leaf: up to its root f, back into the leaf via f's a-move
    node = graph.leaf_of["b"]
    seen = set()
    cyclic = False
    while node in graph.out_edge:
        if node in seen:
            cyclic = True
            break
        seen.add(node)
        node = graph.out_edge[node][0]
    assert cyclic


def test_forward_only_step_keeps_forest_empty(first_two_automaton):
    order = {s.name: i for i, s in enumerate(first_two_automaton.states)}
    result = step(("1", ()), "b", first_two_automaton, (), "out", order)
    (state, forest), update, colors = result
    assert state == "2" and forest == ()
    assert update.image("out") == (("reg", "out"),)
    assert colors == (1,)


# --- canonical form and registers -------------------------------------------


def test_canonical_forest_sorts_siblings():
    order = {"a": 0, "b": 1, "c": 2, "root": 3}
    la, lb = ForestNode("a", (0,), ()), ForestNode("b", (0,), ())
    left = ForestNode("root", None, (la, lb))
    right = ForestNode("root", None, (lb, la))
    assert canonical_forest((left,), order) == canonical_forest((right,), order)


def test_register_assignment_is_traversal_ordered():
    leaf1, leaf2 = ForestNode("p", (0,), ()), ForestNode("q", (0,), ())
    tree = ForestNode("r", None, (ForestNode(None, None, (leaf1, leaf2)),))
    regs = forest_registers((tree,), ("r1", "r2", "r3", "r4"))
    assert [regs[p] for p in _dfs_edge_paths((tree,))] == ["r1", "r2", "r3"]


# --- whole conversions ------------------------------------------------------


def test_mcr_conversion(mcr_rbt, mcr_sst, lassos_ab_hash):
    sst = two_way_to_sst(mcr_rbt)
    assert validate_sst_machine(sst) == []
    assert equiv_on_lassos(sst, mcr_sst, lassos_ab_hash).ok
    assert equiv_on_lassos(sst, mcr_rbt, lassos_ab_hash, require_class=True).ok


def test_one_way_input_yields_registerless_machine(first_two_automaton, lassos_ab):
    sst = two_way_to_sst(first_two_automaton)
    for tr in sst.transitions.values():
        for r, img in tr.update.images:
            if r != "out":
                assert img == ()
    assert equiv_on_lassos(sst, first_two_automaton, lassos_ab, require_class=True).ok


def test_state_cap_raises():
    machine = generate_two_way(4, n=3, k=1, ell=2)  # reaches three summaries
    with pytest.raises(StateExplosion):
        two_way_to_sst(machine, state_cap=1)


def test_rejects_register_machine(mcr_sst):
    with pytest.raises(WrongMachineKind):
        two_way_to_sst(mcr_sst)


def test_forest_content_matches_oracle_small_corpus():
    for seed in range(40):
        machine = generate_two_way(seed, n=3, k=1, ell=2)
        details = {}
        sst = two_way_to_sst(machine, details=details)
        assert validate_sst_machine(sst) == [], seed
        for length in range(0, 5):
            for word in itertools.product(machine.input_alphabet, repeat=length):
                assert check_forest_against_runs(machine, sst, details, word) == []


def test_forest_size_bound_and_semantics(lassos_ab):
    for seed in range(40):
        machine = generate_two_way(seed, n=3, k=1, ell=2)
        n = len(machine.states)
        details = {}
        sst = two_way_to_sst(machine, details=details)
        assert details["max_forest_nodes"] <= 2 * n - 2
        assert details["max_forest_edges"] <= 2 * n - 2
        assert len(sst.registers) == 2 * n - 1
        report = equiv_on_lassos(machine, sst, lassos_ab, require_class=True)
        assert report.ok, (seed, report.disagreements[:3])


def test_reachable_summary_bound():
    # reachable summaries stay within n · (ell^k)^(n-1) · (2n-1)^(2n-3)
    for seed in range(20):
        machine = generate_two_way(seed, n=3, k=1, ell=2)
        n, k, ell = len(machine.states), machine.k, machine.ell
        details = {}
        two_way_to_sst(machine, details=details)
        bound = n * (ell**k) ** (n - 1) * (2 * n - 1) ** (2 * n - 3)
        assert details["summary_count"] <= bound


@pytest.mark.parametrize("seed,n", [(13, 4), (3, 5), (8, 5), (36, 5), (53, 5)])
def test_rich_merging_forests(seed, n, lassos_ab):
    """Seeds whose reachable forests genuinely merge runs (two leaves under
    one root), exercising trimming and unary-chain contraction."""
    machine = generate_two_way(seed, n=n, k=1, ell=2, density=0.95)
    details = {}
    sst = two_way_to_sst(machine, details=details)
    assert details["max_forest_nodes"] >= 4
    assert validate_sst_machine(sst) == []
    for length in range(0, 6):
        for word in itertools.product(machine.input_alphabet, repeat=length):
            assert check_forest_against_runs(machine, sst, details, word) == []
    report = equiv_on_lassos(machine, sst, lassos_ab, require_class=True)
    assert report.ok, report.disagreements[:3]


def test_no_acceptance_condition_drops_leaf_tuples():
    for seed in range(10):
        machine = generate_two_way(seed, n=3, k=0, ell=1)
        n = len(machine.states)
        details = {}
        sst = two_way_to_sst(machine, details=details)
        assert sst.k == 0
        assert details["summary_count"] <= n * (2 * n - 1) ** (2 * n - 3)
        for key in details["state_map"].values():
            for tree in key[1]:
                for leaf in forest_leaves(tree):
                    assert leaf.colors == ()
