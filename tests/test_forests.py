import hashlib
import itertools

import pytest

from omegatrans.buchi import buchi_to_noacc, dbt_to_rbt
from omegatrans.compose import compose_reachable
from omegatrans.evaluate import equiv_on_lassos
from omegatrans.forests import (
    StateExplosion,
    _flatten,
    _tables,
    two_way_to_sst,
)
from omegatrans.generate import generate_two_way
from omegatrans.io import dumps_machine
from omegatrans.lasso import enumerate_lassos
from omegatrans.machines import (
    LEFT_END,
    InvalidMachine,
    State,
    Transition,
    TwoWayParityTransducer,
    WrongMachineKind,
    takeable,
    validate_sst_machine,
)
from omegatrans.oneway import one_way_to_reversible
from support import (
    check_forest_against_runs,
    forest_leaf_root_pairs,
    forest_nodes,
    forest_runs,
)


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


def initial_summary(machine):
    """((endpoint, forest preorder), register contents) after the endmarker."""
    details = {}
    two_way_to_sst(machine, details=details)
    return details["start"], details["init_contents"]


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
    (q, forest), contents = initial_summary(machine)
    assert q == "q" and forest == ()

    # q turns back on a, so p reads the endmarker
    machine = two_way(
        [("q", True), ("r", True), ("p", False)],
        [("q", "a", "p", "", (0,)), ("p", LEFT_END, "r", "x", (1,))],
        alphabet=("a", "b", "x"),
    )
    (q, forest), contents = initial_summary(machine)
    assert forest_leaf_root_pairs(forest) == {("p", "r")}
    assert list(contents.values()) == [("x",)]


def test_initial_no_backward_states(first_two_automaton):
    (_, forest), contents = initial_summary(first_two_automaton)
    assert forest == () and contents == {}


def test_initial_two_bounces_to_distinct_targets():
    machine = two_way(
        [("q", True), ("r1", True), ("r2", True), ("p1", False), ("p2", False)],
        [
            ("q", "a", "p1", "", (0,)),
            ("q", "b", "p2", "", (0,)),
            ("p1", LEFT_END, "r1", "a", (0,)),
            ("p2", LEFT_END, "r2", "b", (1,)),
        ],
    )
    (_, forest), contents = initial_summary(machine)
    assert forest_leaf_root_pairs(forest) == {("p1", "r1"), ("p2", "r2")}
    roots = [node for node in forest_nodes(forest) if node[3] is None]
    assert len(roots) == 2 and sorted(contents.values()) == [("a",), ("b",)]


def test_initial_merged_bounces_share_a_root():
    machine = two_way(
        [("q", True), ("r", True), ("p1", False), ("p2", False)],
        [
            ("q", "a", "p1", "", (0,)),
            ("q", "b", "p2", "", (0,)),
            ("p1", LEFT_END, "r", "a", (0,)),
            ("p2", LEFT_END, "r", "b", (0,)),
        ],
    )
    (_, forest), _ = initial_summary(machine)
    roots = [node for node in forest_nodes(forest) if node[3] is None]
    assert [(label, count) for label, _, count, _ in roots] == [("r", 2)]


# --- graph building ---------------------------------------------------------


def letter_graph(forest, a, machine, pool):
    """The forest's edges plus the splice edges of letter ``a`` that its runs
    can take: each node to (next node, edge label).  ``forest`` is labeled
    by state names, as ``details`` gives it.  Roots and leaves are named by
    their labels, the boundary node of a state by ("c", name), and a merge
    node by its offset in the preorder."""
    names = [s.name for s in machine.states]
    n = len(names)
    numbered = list(forest)
    numbered[::3] = [None if label is None else names.index(label) for label in forest[::3]]
    tables = _tables(machine, pool, "out")
    flat = _flatten(tuple(numbered), tables.reg_labels, n)

    def name(node):
        if node < n:
            return names[node]
        return ("c", names[node - n]) if node < 2 * n else node - 2 * n

    roots = {root for root, _ in filter(None, flat.climb)}
    out_edge = {name(child): (name(parent), label) for child, (parent, label) in flat.edges.items()}
    for origin, edge in enumerate(tables.splices[a]):
        if edge is None:
            continue
        dest, label = edge
        from_node = origin >= n or origin in roots
        if from_node and (dest >= n or flat.climb[dest] is not None):
            out_edge[name(origin)] = (name(dest), label)
    return out_edge


def test_graph_without_backward_states(first_two_automaton):
    out_edge = letter_graph((), "a", first_two_automaton, ())
    for origin, (dest, label) in out_edge.items():
        assert origin[0] == "c" and dest[0] == "c"


CYCLE_STATES = [("q", True), ("f", True), ("b", False)]
CYCLE_MOVES = [
    ("f", "a", "b", "", (0,)),
    ("b", "a", "f", "", (0,)),
    ("b", LEFT_END, "f", "", (0,)),
]
# The main run reaches the cycle: on b it turns into b, which bounces off
# the endmarker into f; on a it steps into f, which turns back into b on a.
CYCLE_REACHED_MOVES = CYCLE_MOVES + [("q", "a", "f", "", (0,)), ("q", "b", "b", "", (0,))]


def test_graph_acquires_cycle():
    machine = two_way(CYCLE_STATES, CYCLE_REACHED_MOVES)
    (_, forest), _ = initial_summary(machine)
    out_edge = letter_graph(forest, "a", machine, ("r1", "r2", "r3", "r4"))
    # from the old leaf: up to its root f, back into the leaf via f's a-move
    node = "b"
    seen = set()
    cyclic = False
    while node in out_edge:
        if node in seen:
            cyclic = True
            break
        seen.add(node)
        node = out_edge[node][0]
    assert cyclic


# The main run stays alive on every letter and turns back into the old leaf
# b on "b".  On "a" the entries c and then d walk into leaf b, up to its
# root f, and round the cycle f -> b -> f: c finds the cycle, d merges into
# the walk c has already resolved.  Both walks must die.  Runs reach c and
# d over x: the main run steps over it, b steps left over it into c, and c
# into d.
CYCLE_MERGE_STATES = CYCLE_STATES + [("c", False), ("d", False)]
CYCLE_MERGE_MOVES = CYCLE_MOVES + [
    ("d", "a", "b", "b", (1,)),
    ("d", "b", "q", "a", (0,)),
    ("d", LEFT_END, "f", "b", (1,)),
    ("q", "a", "q", "a", (1,)),
    ("q", "b", "b", "b", (0,)),
    ("f", "b", "f", "a", (1,)),
    ("b", "b", "q", "b", (1,)),
    ("c", "a", "b", "a", (0,)),
    ("c", "b", "f", "b", (1,)),
    ("c", LEFT_END, "q", "a", (0,)),
    ("q", "x", "q", "", (0,)),
    ("b", "x", "c", "", (0,)),
    ("c", "x", "d", "", (0,)),
]


# The main run turns back into leaf b on "a" and walks round the cycle: it
# dies there, while on "b" it stays alive.
CYCLE_MAIN_MOVES = CYCLE_MOVES + [
    ("q", "a", "b", "a", (0,)),
    ("q", "b", "q", "b", (1,)),
    ("f", "b", "q", "a", (0,)),
    ("b", "b", "f", "b", (1,)),
]


@pytest.mark.parametrize(
    "states,moves,alphabet",
    [
        (CYCLE_STATES, CYCLE_REACHED_MOVES, "ab"),
        (CYCLE_MERGE_STATES, CYCLE_MERGE_MOVES, "abx"),
        (CYCLE_STATES, CYCLE_MAIN_MOVES, "ab"),
    ],
    ids=["cycle", "entry-merges-into-cycle", "main-run-enters-cycle"],
)
def test_conversion_with_a_cyclic_letter_graph(states, moves, alphabet):
    machine = two_way(states, moves, alphabet=tuple(alphabet))
    details = {}
    sst = two_way_to_sst(machine, details=details)
    assert validate_sst_machine(sst) == []
    for length in range(5):
        for word in itertools.product(machine.input_alphabet, repeat=length):
            assert check_forest_against_runs(machine, sst, details, word) == []


def test_forward_only_step_keeps_forest_empty(first_two_automaton):
    details = {}
    sst = two_way_to_sst(first_two_automaton, details=details)
    assert details["start"] == ("1", ())
    # No step re-enters the start, so ``ini`` makes its moves.
    assert "s0_1" not in {state.name for state in sst.states}
    tr = sst.transitions[sst.initial, "b"]
    assert details["state_map"][tr.target.name] == ("2", ())
    assert tr.update.image("out") == (("reg", "out"),)
    assert tr.colors == (1,)


# --- registers ----------------------------------------------------------------


def test_register_assignment_is_traversal_ordered():
    # root r, one merge node below it, leaves p and q below the merge node
    forest = ("r", None, 1, None, None, 2, "p", (0,), 0, "q", (0,), 0)
    pool = ("r1", "r2", "r3", "r4")
    runs = {leaf: [pool[e] for e in edges] for leaf, _, edges, _ in forest_runs(forest)}
    assert runs == {"p": ["r2", "r1"], "q": ["r3", "r1"]}


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


@pytest.mark.parametrize("cap", [0, -1])
def test_non_positive_state_cap_is_rejected(first_two_automaton, cap):
    with pytest.raises(ValueError, match="state_cap must be positive"):
        two_way_to_sst(first_two_automaton, state_cap=cap)


def test_rejects_register_machine(mcr_sst):
    with pytest.raises(WrongMachineKind):
        two_way_to_sst(mcr_sst)


def one_state(target):
    """One forward state q whose only move, on a, goes to ``target``."""
    q = State("q", True)
    return TwoWayParityTransducer(
        input_alphabet=("a",),
        output_alphabet=("a",),
        states=(q,),
        initial=q,
        transitions={(q, "a"): Transition(State(target, True), ("a",), (0,))},
        k=1,
        ell=2,
    )


@pytest.mark.parametrize(
    "construction",
    [
        two_way_to_sst,
        dbt_to_rbt,
        one_way_to_reversible,
        lambda machine: compose_reachable(machine, one_state("q")),
        lambda machine: compose_reachable(one_state("q"), machine),
        lambda machine: buchi_to_noacc(machine, frozenset()),
    ],
    ids=[
        "two_way_to_sst",
        "dbt_to_rbt",
        "one_way_to_reversible",
        "compose_reachable-first",
        "compose_reachable-second",
        "buchi_to_noacc",
    ],
)
def test_rejects_a_transition_into_an_undeclared_state(construction):
    with pytest.raises(InvalidMachine, match=r"^\(q, 'a'\): unknown target state$"):
        construction(one_state("g"))


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


# det2rev corpus seeds (n=7) where some step re-enters the start summary.
START_REENTERED = (4, 5, 16, 18, 22, 25)


@pytest.mark.parametrize(
    "seed,n,size",
    [(seed, 7, 3) for seed in (*range(12), 16, 18, 22, 25, 28)]
    + [(seed, 22, 4) for seed in range(4)],
)
def test_every_state_is_reachable_from_ini(seed, n, size):
    """``ini`` makes the start summary's moves, so the start is a state only
    when a step re-enters it; every state is reachable."""
    machine = generate_two_way(seed, n, 1, 2, alphabet_size=size, density=1.0)
    sst = two_way_to_sst(machine)
    reached = {sst.initial}
    frontier = [sst.initial]
    while frontier:
        state = frontier.pop()
        for a in sst.input_alphabet:
            tr = sst.transitions.get((state, a))
            if tr is not None and tr.target not in reached:
                reached.add(tr.target)
                frontier.append(tr.target)
    assert reached == set(sst.states)
    start = State(f"s0_{machine.initial.name}", True)
    assert (start in reached) == (n == 7 and seed in START_REENTERED)


@pytest.mark.parametrize("seed,n", [(3, 5), (275, 5), (276, 5), (13, 6), (53, 6)])
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
        for _, forest in details["state_map"].values():
            for _, _, _, colors in forest_runs(forest):
                assert colors == ()


# --- the walk before the forests ---------------------------------------------


@pytest.fixture(scope="module")
def det2rev_sources():
    return [generate_two_way(seed, 7, 1, 2, alphabet_size=3, density=1.0) for seed in range(30)]


def test_takeable_keeps_every_state_and_is_idempotent(det2rev_sources):
    """Each source keeps its states, their order, its initial state, k and
    ell; 18 of the 30 lose moves, and the other 12 come back as the same
    instance, as does every walked machine."""
    dropped = 0
    for seed, source in enumerate(det2rev_sources):
        walked = takeable(source)
        assert (walked.states, walked.initial, walked.k, walked.ell) == (
            source.states, source.initial, source.k, source.ell
        ), seed
        assert set(walked.transitions.items()) <= set(source.transitions.items()), seed
        assert takeable(walked) is walked, seed
        dropped += walked is not source
    assert dropped == 18


def test_two_way_to_sst_walks_its_source(det2rev_sources):
    for seed, source in enumerate(det2rev_sources):
        walked = dumps_machine(two_way_to_sst(takeable(source)))
        assert dumps_machine(two_way_to_sst(source)) == walked, seed


def test_walked_source_agrees_with_its_source(det2rev_sources):
    lassos = enumerate_lassos(det2rev_sources[0].input_alphabet, 2, 3)
    for seed, source in enumerate(det2rev_sources):
        report = equiv_on_lassos(source, takeable(source), lassos, require_class=True)
        assert report.checked == len(lassos) == 297, seed
        assert report.disagreements == [] and report.inconclusive == [], seed


def test_an_unreachable_backward_state_keeps_its_registers():
    """No move enters p, so the walk drops p's moves but keeps p: the pool
    still has 2n-2 registers besides out, the paper's 2n-1 in all."""
    machine = two_way(
        [("q", True), ("r", True), ("p", False)],
        [
            ("q", "a", "r", "a", (0,)),
            ("r", "b", "q", "b", (0,)),
            ("p", "a", "r", "", (1,)),
            ("p", LEFT_END, "q", "", (1,)),
        ],
    )
    walked = takeable(machine)
    assert walked.states == machine.states
    assert set(walked.transitions) == {(State("q", True), "a"), (State("r", True), "b")}
    sst = two_way_to_sst(machine)
    assert len(sst.registers) == 2 * 3 - 1
    assert validate_sst_machine(sst) == []


# --- pinned output ------------------------------------------------------------

# SHA-256 of dumps_machine(two_way_to_sst(m)), summary count and forest maxima
# for generate_two_way(seed, n, 1, 2, alphabet_size, density=1.0).  A change
# to how the construction runs must keep these bytes.
PINNED_CONVERSIONS = [
    (0, 7, 3, "b4dbc4a036fabcbeabfd0a9eaceaf735a8d8ce270d902a5180c8d152d1510f0f", 4, 4, 2),
    (1, 7, 3, "1836c8160435ecf4241082601872db7fa2cb52977afbc5b3e8ae1bf0ac81ee93", 25, 4, 2),
    (2, 7, 3, "4ffabd302ad10b51988c5e53d8fbf167fd8cb6c94f04d825e638774c5703260f", 9, 7, 5),
    (3, 7, 3, "fe8338a8238bf1c05f3b4c20705e1a30fbaff683ea4c7027e974c3f64f73f1fe", 6, 5, 3),
    (4, 7, 3, "5beb73c05be333f5312657f9926d74d46f8baef614074fd9f91cb81e929583cf", 7, 0, 0),
    (5, 7, 3, "bb8a780cd557aff658518652283a92dd97bbc5afa714801f1f9dd2563c80a1db", 1, 0, 0),
    (6, 7, 3, "25b1af738e00968951364627f9491d63e37889657f30ef56da365f355b594468", 15, 6, 4),
    (7, 7, 3, "c0b3cc97939b0392f0cddda7c2889d185c804f05eb44338e75b426b6c56fd1e7", 6, 4, 2),
    (8, 7, 3, "083ba326c371a11ec63c4404d19ade48b89c5075a0e1503d849c33c33f44cd46", 8, 4, 2),
    (9, 7, 3, "b93bf3f7fc0ff86485e2da5869788bbfb8c32d99bf5e0aa3ce8e402824bc4992", 9, 4, 2),
    (0, 22, 4, "6fa73db8df3dfb5e44fd9d7d2753e2da4b54dd419accd11a60f697d1ada4571f", 38, 19, 14),
    (1, 22, 4, "1db3f3d03a81fd32334410beecbd9989d8ec773c95805c8cb829acf8e2821c0f", 104, 18, 13),
    (2, 22, 4, "51f930230872aebd572bc8aa7771c337778948a3a4ad6fef7438344685aa58bb", 85, 21, 15),
    (3, 22, 4, "9588593ac591ad8232a31b51bec3d330dd76f5439632cebba581e6c1374f62c6", 124, 21, 17),
]


def test_conversion_output_is_pinned():
    for seed, n, size, digest, summaries, nodes, edges in PINNED_CONVERSIONS:
        machine = generate_two_way(seed, n, 1, 2, alphabet_size=size, density=1.0)
        details = {}
        text = dumps_machine(two_way_to_sst(machine, details=details))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (seed, n)
        found = (details["summary_count"], details["max_forest_nodes"], details["max_forest_edges"])
        assert found == (summaries, nodes, edges), (seed, n)


# One SHA-256 over the whole 2w2sst benchmark corpus: for each seed in turn,
# dumps_machine(two_way_to_sst(m)) and then repr((summary count, forest node
# maximum, forest edge maximum)).
PINNED_2W2SST_CORPUS = "51f482cf0c3a672473a6080f56c16ae34556fb12b1ad098b27ed51dbab0fd40e"


def test_2w2sst_corpus_output_is_pinned():
    digest = hashlib.sha256()
    for seed in range(40):
        machine = generate_two_way(seed, 22, 1, 2, alphabet_size=4, density=1.0)
        details = {}
        digest.update(dumps_machine(two_way_to_sst(machine, details=details)).encode())
        found = (details["summary_count"], details["max_forest_nodes"], details["max_forest_edges"])
        digest.update(repr(found).encode())
    assert digest.hexdigest() == PINNED_2W2SST_CORPUS


# One SHA-256 over 288 small machines that the corpus pins miss: letters
# with no move, k=0 colors, one-state machines and a one-letter alphabet.
# For each generate_two_way(seed, n, k, 3, alphabet_size, density) in turn,
# dumps_machine(two_way_to_sst(m)) and then repr of these details' values.
PINNED_VARIED_CONVERSIONS = "4f53fa37b3784e7656956b5dfa5a4092376f787cf27097675cdae0cd8b8d1ccc"
VARIED_DETAILS = (
    "summary_count", "max_forest_nodes", "max_forest_edges", "state_map", "start", "init_contents"
)


def test_varied_conversions_are_pinned():
    digest = hashlib.sha256()
    for k, density, size, n, seed in itertools.product(
        (0, 2), (0.6, 0.8), (1, 2, 3), range(1, 9), range(3)
    ):
        machine = generate_two_way(seed, n, k, 3, size, density)
        details = {}
        digest.update(dumps_machine(two_way_to_sst(machine, details=details)).encode())
        digest.update(repr(tuple(details[key] for key in VARIED_DETAILS)).encode())
    assert digest.hexdigest() == PINNED_VARIED_CONVERSIONS
