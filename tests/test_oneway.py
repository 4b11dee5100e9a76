import pytest

from omegatrans.evaluate import (
    eval_two_way,
    equiv_on_lassos,
    simulate_two_way,
)
from omegatrans.generate import generate_one_way
from omegatrans.lasso import LassoWord, enumerate_lassos
from omegatrans.machines import State, WrongMachineKind, validate_reversible
from omegatrans.oneway import one_way_to_reversible
from builtin import identity_transducer
from support import abv


def lw(prefix, period):
    return LassoWord.make(prefix, period)


def test_abv_examples(first_two_automaton):
    s1 = State("1", True)
    s2 = State("2", True)
    assert abv(first_two_automaton, "a", s1) == s2
    assert abv(first_two_automaton, "b", s1) is None
    assert abv(first_two_automaton, "a", s2) == State("3", True)


def test_abv_none_when_map_injective(identity_ab):
    q = identity_ab.states[0]
    assert abv(identity_ab, "a", q) is None


def test_rejects_two_way_input(mcr_rbt):
    with pytest.raises(WrongMachineKind):
        one_way_to_reversible(mcr_rbt)


def test_rejects_register_machine(mcr_sst):
    with pytest.raises(WrongMachineKind):
        one_way_to_reversible(mcr_sst)


def test_language_preserved(first_two_automaton):
    rev = one_way_to_reversible(first_two_automaton)
    assert validate_reversible(rev)
    for w in enumerate_lassos(("a", "b"), 3, 3):
        want = w.letter(0) == "a" or w.letter(1) == "a"
        assert eval_two_way(first_two_automaton, w).automaton_accepts() == want
        assert eval_two_way(rev, w).automaton_accepts() == want


def test_identity_fixed_point(identity_ab, lassos_ab):
    rev = one_way_to_reversible(identity_ab)
    assert validate_reversible(rev)
    assert equiv_on_lassos(identity_ab, rev, lassos_ab, require_class=True).ok


def test_size_bound(first_two_automaton):
    rev = one_way_to_reversible(first_two_automaton)
    assert len(rev.states) <= 4 * len(first_two_automaton.states) ** 2


def test_detour_transitions_carry_max_color(first_two_automaton):
    rev = one_way_to_reversible(first_two_automaton)
    max_color = max(t.colors[0] for t in first_two_automaton.transitions.values())
    for (src, letter), tr in rev.transitions.items():
        under, over = src.name.split(".")
        diagonal = under.startswith("_") and over.startswith("^") and under[1:] == over[1:]
        if not diagonal:
            assert tr.colors == (max_color,)


def test_random_corpus_equivalence(lassos_ab):
    for seed in range(100):
        machine = generate_one_way(seed, n=3, k=1, ell=2)
        rev = one_way_to_reversible(machine)
        assert validate_reversible(rev), seed
        assert len(rev.states) <= 4 * len(machine.states) ** 2
        report = equiv_on_lassos(machine, rev, lassos_ab, require_class=True)
        assert report.ok, (seed, report.disagreements[:3])


def diagonal_visits(rev, w, steps):
    run = simulate_two_way(rev, w, steps)
    visits = []
    for config in run.configs:
        under, over = config.state.name.split(".")
        if under.startswith("_") and over.startswith("^") and under[1:] == over[1:]:
            visits.append((config.position, under[1:]))
    return visits, run


def test_visits_diagonal_states_in_run_order(first_two_automaton):
    """On accepted words, the reversible machine's diagonal visits replay the
    one-way run configuration by configuration."""
    rev = one_way_to_reversible(first_two_automaton)
    for w in [lw("", "ab"), lw("a", "b"), lw("ba", "ab")]:
        if not eval_two_way(first_two_automaton, w).automaton_accepts():
            continue
        visits, run = diagonal_visits(rev, w, 5_000)
        state, expected = first_two_automaton.initial, []
        for i in range(len(visits)):
            expected.append((i, state.name))
            tr = first_two_automaton.transitions.get((state, w.letter(i)))
            if tr is None:
                break
            state = tr.target
        assert visits[: len(expected)] == expected
        assert len(visits) >= 3


def test_order_preservation_on_random_corpus(lassos_ab):
    for seed in range(25):
        machine = generate_one_way(seed, n=3, k=1, ell=2)
        rev = one_way_to_reversible(machine)
        for w in lassos_ab[:10]:
            if not eval_two_way(machine, w).automaton_accepts():
                continue
            visits, _ = diagonal_visits(rev, w, 5_000)
            state = machine.initial
            for i, (pos, name) in enumerate(visits[:12]):
                assert (pos, name) == (i, state.name), (seed, w)
                state = machine.transitions[(state, w.letter(i))].target
