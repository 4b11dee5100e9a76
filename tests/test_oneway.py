from random import Random

import pytest

from omegatrans.buchi import dbt_to_rbt
from omegatrans.evaluate import (
    _run_table,
    eval_two_way,
    equiv_on_lassos,
)
from omegatrans.forests import two_way_to_sst
from omegatrans.generate import generate_machine, generate_one_way, generate_two_way
from omegatrans.lasso import LassoWord, enumerate_lassos, random_lassos
from omegatrans.machines import (
    LEFT_END,
    State,
    Transition,
    TwoWayParityTransducer,
    WrongMachineKind,
    validate_reversible,
)
from omegatrans.oneway import one_way_to_reversible
from omegatrans.sst2rev import (
    drop_dead_registers,
    merge_equal_states,
    name_registers_by_use,
    sst_to_substitution_stream,
)
from support import abv, asked_moves, drop_untakeable, simulate_two_way


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


# --- only the moves a run can take ---------------------------------------------


@pytest.fixture(scope="module")
def one_way_corpus():
    """The substitution streams of det2rev corpus seeds 0-11 and the one-way
    machine of ``gen --seed 3 --n 7 --kind 1dpt --alphabet-size 3``."""
    sources = []
    for seed in range(12):
        sst = two_way_to_sst(generate_two_way(seed, 7, 1, 2, alphabet_size=3, density=1.0))
        sst = merge_equal_states(name_registers_by_use(drop_dead_registers(sst)))
        sources.append(sst_to_substitution_stream(sst))
    sources.append(generate_machine("1dpt", 3, 7, alphabet_size=3))
    return sources


@pytest.fixture(scope="module")
def trim_corpus():
    """Two-way machines that lose moves when walked: the det2rev outputs of
    seeds 0, 3 and 17, which are compositions and so reversible, then two
    generated two-way machines, which are not."""
    outputs = [
        dbt_to_rbt(generate_two_way(seed, 7, 1, 2, alphabet_size=3, density=1.0))
        for seed in (0, 3, 17)
    ]
    sources = [
        generate_two_way(3, 7, 1, 2, alphabet_size=3, density=1.0),
        generate_machine("2dpt", 0, 5, alphabet_size=2),
    ]
    return outputs + sources


def test_walking_the_output_again_keeps_every_move(one_way_corpus):
    for source in one_way_corpus:
        rev = one_way_to_reversible(source)
        assert drop_untakeable(rev) == rev


def test_every_move_a_run_takes_is_kept(trim_corpus):
    """Moves the oracle compiles are the moves its runs took.  Run on the
    machine itself, they must all be kept; each machine loses transitions,
    so the check has teeth."""
    for machine in trim_corpus:
        kept = drop_untakeable(machine).transitions
        assert len(kept) < len(machine.transitions)
        for w in random_lassos(machine.input_alphabet, 1000, Random(7), 10, 6):
            eval_two_way(machine, w)
        table = _run_table(machine)
        taken = [(machine.states[i], a) for i, row in enumerate(table.rows) for a in row]
        assert taken and all(key in kept for key in taken)


def test_trimming_twice_equals_trimming_once(trim_corpus):
    for machine in trim_corpus:
        once = drop_untakeable(machine)
        assert drop_untakeable(once) == once


def test_trim_keeps_reversibility_initial_state_k_and_ell(trim_corpus):
    for machine in trim_corpus:
        trimmed = drop_untakeable(machine)
        assert validate_reversible(trimmed) == validate_reversible(machine)
        assert trimmed.initial == machine.initial and trimmed.initial in trimmed.states
        assert (trimmed.k, trimmed.ell) == (machine.k, machine.ell)
        assert set(trimmed.transitions.items()) <= set(machine.transitions.items())


def test_trimmed_machine_agrees_with_its_source(one_way_corpus):
    for source in one_way_corpus:
        lassos = enumerate_lassos(source.input_alphabet, 2, 3)
        report = equiv_on_lassos(source, one_way_to_reversible(source), lassos, require_class=True)
        assert report.disagreements == [] and report.inconclusive == []


def _machine(states, initial, moves):
    """A two-way machine over {a, b} from (source, letter, target) moves."""
    return TwoWayParityTransducer(
        ("a", "b"), ("a",), states, initial,
        {(src, a): Transition(tgt, (), (0,)) for src, a, tgt in moves}, 1, 1,
    )


P, P2, Q, R, R2 = (State(name, name != "q") for name in ("p", "p2", "q", "r", "r2"))
# p reads a at position 0 and steps on; q turns back and reads that a again.
CONTRADICTED = [(P, "a", P2), (P2, "a", Q), (P2, "b", Q), (Q, "a", R), (Q, "b", R2)]
CONTRADICTED += [(s, a, s) for s in (R, R2) for a in "ab"]


def test_backward_move_contradicting_the_forward_read_is_dropped():
    """q's move on b, and the state r2 only it reaches, go."""
    machine = _machine((P, P2, Q, R, R2), P, CONTRADICTED)
    assert drop_untakeable(machine) == _machine(
        (P, P2, Q, R), P, [m for m in CONTRADICTED if m[:2] != (Q, "b") and m[0] != R2]
    )


def test_the_walk_asks_for_each_move_once():
    """r reads a in several configurations, with the letter known and
    unknown, but each (state, letter) is asked for once; q is never asked
    for b, and r2 is never reached."""
    machine = _machine((P, P2, Q, R, R2), P, CONTRADICTED)
    asked = asked_moves(machine)
    assert len(asked) == len(set(asked))
    assert set(asked) == {(s, a) for s in (P, P2, R) for a in "ab"} | {(Q, "a")}


def test_endmarker_reached_only_through_an_unknown_letter_is_kept():
    """p0..p3 read three a's before q turns back; the window has forgotten
    the endmarker by then, so q only finds it by reading an unknown
    letter; the run on aaab a^ω takes that move into s and accepts."""
    p0, p1, p2, p3, s = (State(name, True) for name in ("p0", "p1", "p2", "p3", "s"))
    q = State("q", False)
    moves = [(p0, "a", p1), (p1, "a", p2), (p2, "a", p3), (p3, "b", q), (q, "a", q)]
    moves += [(q, LEFT_END, s), (s, "a", s), (s, "b", s)]
    machine = _machine((p0, p1, p2, p3, q, s), p0, moves)
    assert drop_untakeable(machine) == machine
    assert eval_two_way(machine, lw("aaab", "a")).automaton_accepts()
