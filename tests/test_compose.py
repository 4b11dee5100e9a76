from dataclasses import replace

import pytest

from omegatrans.compose import (
    LOOPING,
    STUCK,
    AlphabetMismatch,
    NotReversible,
    compose_reachable,
    run_on_finite,
)
from omegatrans.evaluate import eval_two_way, equiv_on_lassos
from omegatrans.lasso import LassoWord
from omegatrans.machines import (
    LEFT_END,
    State,
    Transition,
    TwoWayParityTransducer,
    WrongMachineKind,
    odd_sentinels,
    validate_reversible,
)
from omegatrans.oneway import one_way_to_reversible
from omegatrans.generate import generate_one_way
from builtin import identity_transducer
from support import (
    check_two_stage,
    equal_up_to_state_order,
    full_product,
    prune_unreachable,
    walked_composition,
)


def lw(prefix, period):
    return LassoWord.make(prefix, period)


# --- finite sub-runs --------------------------------------------------------


def test_run_on_empty_word_exits_immediately(mcr_rbt):
    for state in mcr_rbt.states:
        summary = run_on_finite(mcr_rbt, (), state)
        assert summary.exit == state
        assert summary.production == ()
        assert summary.min_colors == odd_sentinels(mcr_rbt)


def test_run_on_single_letter(mcr_rbt):
    copy = mcr_rbt.states[0]
    summary = run_on_finite(mcr_rbt, ("a",), copy)
    assert summary.exit == copy and summary.production == ("a",)
    assert summary.min_colors == (0,)


def test_run_enters_from_the_right_for_backward_entry(mcr_rbt):
    back = mcr_rbt.states[1]
    summary = run_on_finite(mcr_rbt, ("a", "b"), back)
    # walks left producing the mirror, exits left still backward
    assert summary.exit == back
    assert summary.production == ("b", "a")


def test_run_detects_internal_loop():
    f, g, b = State("f", True), State("g", True), State("b", False)
    machine = TwoWayParityTransducer(
        input_alphabet=("a",),
        output_alphabet=(),
        states=(f, g, b),
        initial=f,
        transitions={
            (f, "a"): Transition(g, (), ()),
            (g, "a"): Transition(b, (), ()),  # turn back at position 1
            (b, "a"): Transition(g, (), ()),  # and bounce forward again
        },
        k=0,
        ell=1,
    )
    assert run_on_finite(machine, ("a", "a"), f).exit == LOOPING


def test_run_detects_stuck(first_two_automaton):
    s2 = first_two_automaton.states[1]
    assert run_on_finite(first_two_automaton, ("b",), State("1", True)).exit == s2
    assert run_on_finite(first_two_automaton, ("b", "b"), State("1", True)).exit == STUCK


def test_run_on_prefix_word_bounces_off_the_endmarker(mcr_rbt):
    back, skip = mcr_rbt.states[1], mcr_rbt.states[2]
    # A floating word is left on either side: back exits left.
    floating = run_on_finite(mcr_rbt, ("a",), back)
    assert floating.exit == back and floating.production == ("a",)
    # A word starting with the endmarker is a prefix of the input: back
    # bounces off the endmarker into skip, which exits right.
    prefix = run_on_finite(mcr_rbt, (LEFT_END, "a"), back)
    assert prefix.exit == skip and prefix.production == ("a",)
    assert prefix.min_colors == (1,)


# --- composition ------------------------------------------------------------


def test_compose_requires_matching_alphabets(mcr_rbt, identity_ab):
    with pytest.raises(AlphabetMismatch):
        compose_reachable(identity_ab, mcr_rbt)


def test_compose_rejects_register_machines(mcr_rbt, mcr_sst):
    with pytest.raises(WrongMachineKind):
        compose_reachable(mcr_sst, mcr_rbt)
    with pytest.raises(WrongMachineKind):
        compose_reachable(mcr_rbt, mcr_sst)


def test_compose_requires_reversible(identity_ab):
    p, q = State("p", True), State("q", True)
    merging = TwoWayParityTransducer(
        input_alphabet=("a", "b"),
        output_alphabet=("a", "b"),
        states=(p, q),
        initial=p,
        transitions={
            (p, "a"): Transition(p, ("a",), (0,)),
            (q, "a"): Transition(p, ("a",), (0,)),
            (p, "b"): Transition(q, ("b",), (0,)),
        },
        k=1,
        ell=1,
    )
    with pytest.raises(NotReversible):
        compose_reachable(merging, identity_ab)


def test_identity_is_neutral(mcr_rbt, lassos_ab_hash):
    ident = identity_transducer("ab#")
    left = compose_reachable(ident, mcr_rbt)
    right = compose_reachable(mcr_rbt, ident)
    assert validate_reversible(left) and validate_reversible(right)
    assert equiv_on_lassos(left, mcr_rbt, lassos_ab_hash).ok
    assert equiv_on_lassos(right, mcr_rbt, lassos_ab_hash).ok


def test_compose_mcr_twice(mcr_rbt):
    twice = compose_reachable(mcr_rbt, mcr_rbt)
    out = eval_two_way(twice, lw("", "ab#"))
    assert out.output == lw("", "ab#ba#ba#ab#")


def test_state_count_is_full_product(mcr_rbt):
    ident = identity_transducer("ab#")
    assert len(full_product(mcr_rbt, mcr_rbt).states) == 9
    assert len(full_product(ident, mcr_rbt).states) == 3
    assert full_product(mcr_rbt, mcr_rbt).k == mcr_rbt.k * 2


def test_empty_production_keeps_sentinel_colors(mcr_rbt):
    """Composed transitions whose intermediate chunk is empty carry the
    second machine's odd sentinel in the second color block."""
    twice = compose_reachable(mcr_rbt, mcr_rbt)
    sentinel = odd_sentinels(mcr_rbt)[0]
    found = False
    for (src, letter), tr in twice.transitions.items():
        if tr.output == () and letter != LEFT_END:
            # second block of colors belongs to the outer machine
            if tr.colors[1] == sentinel:
                found = True
    assert found


def test_two_stage_agreement_mcr(mcr_rbt, lassos_ab_hash):
    twice = compose_reachable(mcr_rbt, mcr_rbt)
    failures, inconclusive = check_two_stage(mcr_rbt, mcr_rbt, twice, lassos_ab_hash)
    assert failures == []
    assert inconclusive <= len(lassos_ab_hash) // 20


def test_two_stage_agreement_random_pairs(lassos_ab):
    for seed in range(12):
        first = one_way_to_reversible(generate_one_way(2 * seed, n=3, k=1, ell=2))
        second = one_way_to_reversible(generate_one_way(2 * seed + 1, n=3, k=1, ell=2))
        composed = compose_reachable(first, second)
        assert validate_reversible(composed)
        reference = walked_composition(first, second)
        assert equal_up_to_state_order(composed, replace(reference, ell=composed.ell)), seed
        failures, _ = check_two_stage(first, second, composed, lassos_ab)
        assert failures == [], (seed, failures[:3])


def _renamed(machine, names):
    state = {s: State(name, s.forward) for s, name in zip(machine.states, names)}
    transitions = {
        (state[src], letter): tr._replace(target=state[tr.target])
        for (src, letter), tr in machine.transitions.items()
    }
    return replace(
        machine,
        states=tuple(state.values()),
        initial=state[machine.initial],
        transitions=transitions,
    )


def test_colliding_pair_names_get_the_full_product_names(mcr_rbt):
    """"a" + "." + "b.c" and "a.b" + "." + "c" spell the same name."""
    first = _renamed(mcr_rbt, ["a", "a.b", "z"])
    second = _renamed(mcr_rbt, ["b.c", "c", "y"])
    reachable = compose_reachable(first, second)
    pruned = prune_unreachable(full_product(first, second))
    assert "a.b.c~2" in [s.name for s in reachable.states]
    assert reachable.states == pruned.states
    assert reachable.transitions == pruned.transitions


def test_distinct_pair_names_are_formatted_directly(mcr_rbt):
    first = _renamed(mcr_rbt, ["a", "b.x", "c"])
    second = _renamed(mcr_rbt, ["c", "d.e", "f"])
    full = full_product(first, second)
    assert [s.name for s in full.states] == [
        f"{q.name}.{p.name}" for q in first.states for p in second.states
    ]
    assert compose_reachable(first, second).states == prune_unreachable(full).states
