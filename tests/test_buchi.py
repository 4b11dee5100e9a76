import pytest

from omegatrans.bounds import folded_states
from omegatrans.buchi import (
    NotReversible,
    buchi_as_parity,
    buchi_to_noacc,
    dbt_to_rbt,
    drop_acceptance,
    marking_from_colors,
)
from omegatrans.evaluate import eval_two_way, equiv_on_lassos
from omegatrans.generate import generate_two_way
from omegatrans.lasso import LassoWord, enumerate_lassos
from omegatrans.machines import (
    State,
    Transition,
    TwoWayParityTransducer,
    WrongMachineKind,
    validate_reversible,
)
from support import simulate_two_way


def lw(prefix, period):
    return LassoWord.make(prefix, period)


# --- pipeline ---------------------------------------------------------------


def test_pipeline_on_already_reversible_input(mcr_rbt, lassos_ab_hash):
    out = dbt_to_rbt(mcr_rbt)
    assert validate_reversible(out)
    assert out.k == mcr_rbt.k
    assert equiv_on_lassos(out, mcr_rbt, lassos_ab_hash).ok


@pytest.mark.parametrize(
    "construction",
    [dbt_to_rbt, lambda m: buchi_to_noacc(m, frozenset())],
    ids=["dbt_to_rbt", "buchi_to_noacc"],
)
def test_constructions_reject_register_machine(mcr_sst, construction):
    with pytest.raises(WrongMachineKind):
        construction(mcr_sst)


def test_pipeline_on_one_way_input(first_two_automaton, lassos_ab):
    from omegatrans.oneway import one_way_to_reversible

    via_pipeline = dbt_to_rbt(first_two_automaton)
    direct = one_way_to_reversible(first_two_automaton)
    assert validate_reversible(via_pipeline)
    assert equiv_on_lassos(via_pipeline, direct, lassos_ab, require_class=True).ok


def test_pipeline_random_corpus(lassos_ab):
    for seed in range(25):
        machine = generate_two_way(seed, n=3, k=1, ell=2)
        out = dbt_to_rbt(machine)
        assert validate_reversible(out), seed
        report = equiv_on_lassos(machine, out, lassos_ab, require_class=True)
        assert report.ok, (seed, report.disagreements[:3])


# --- dropping the acceptance condition ---------------------------------------


def test_drop_acceptance_widens_domain_only(finitely_many_a, lassos_ab):
    bare = drop_acceptance(finitely_many_a)
    assert bare.k == 0
    for w in lassos_ab:
        strict = eval_two_way(finitely_many_a, w)
        wide = eval_two_way(bare, w)
        if strict.in_domain():
            assert wide.in_domain() and wide.output == strict.output
    # the identity's structural domain is everything
    assert eval_two_way(bare, lw("", "ab")).in_domain()
    assert not eval_two_way(finitely_many_a, lw("", "ab")).in_domain()


def test_drop_acceptance_noop_when_all_colors_even(mcr_rbt, lassos_ab_hash):
    all_zero = TwoWayParityTransducer(
        mcr_rbt.input_alphabet,
        mcr_rbt.output_alphabet,
        mcr_rbt.states,
        mcr_rbt.initial,
        {k: Transition(t.target, t.output, (0,)) for k, t in mcr_rbt.transitions.items()},
        1,
        1,
    )
    assert equiv_on_lassos(all_zero, drop_acceptance(all_zero), lassos_ab_hash).ok


def test_drop_acceptance_keeps_structurally_dead_words_out(first_two_automaton):
    bare = drop_acceptance(first_two_automaton)
    assert eval_two_way(bare, lw("bb", "a")).verdict == "rejected-stuck"


def test_drop_acceptance_on_copying_variant(first_two_automaton):
    """Identity-copying variant of the first-two-positions machine: dropping
    the condition keeps the structural domain (stuck runs stay out) while
    ignoring parity."""
    copying = TwoWayParityTransducer(
        first_two_automaton.input_alphabet,
        first_two_automaton.input_alphabet,
        first_two_automaton.states,
        first_two_automaton.initial,
        {
            (src, letter): Transition(tr.target, (letter,), tr.colors)
            for (src, letter), tr in first_two_automaton.transitions.items()
        },
        first_two_automaton.k,
        first_two_automaton.ell,
    )
    bare = drop_acceptance(copying)
    assert eval_two_way(bare, lw("bb", "a")).verdict == "rejected-stuck"
    accepted = eval_two_way(bare, lw("a", "b"))
    assert accepted.in_domain() and accepted.output == lw("a", "b")
    for w in enumerate_lassos(("a", "b"), 2, 2):
        strict = eval_two_way(copying, w)
        wide = eval_two_way(bare, w)
        if strict.in_domain():
            assert wide.in_domain() and wide.output == strict.output


# --- marking as a coloring ---------------------------------------------------


def test_marking_encoding_all_and_none(mcr_rbt, lassos_ab_hash):
    everything = buchi_as_parity(mcr_rbt, frozenset(mcr_rbt.transitions))
    assert all(t.colors == (0,) for t in everything.transitions.values())
    nothing = buchi_as_parity(mcr_rbt, frozenset())
    assert all(t.colors == (1,) for t in nothing.transitions.values())
    for w in lassos_ab_hash[:30]:
        assert not eval_two_way(nothing, w).automaton_accepts()


def test_marking_acceptance_matches_direct_check(first_two_automaton, lassos_ab):
    """A lasso is accepted iff a marked transition occurs in the detected
    recurring segment."""
    s3 = State("3", True)
    marking = frozenset({(s3, "a"), (s3, "b")})
    encoded = buchi_as_parity(first_two_automaton, marking)
    for w in lassos_ab:
        run = simulate_two_way(encoded, w, 10_000)
        if run.kind == "shift-loop":
            direct = False
            for t in range(run.loop_start, run.loop_end):
                src = run.configs[t].state
                letter = w.letter(run.configs[t].position) if src.forward else (
                    w.letter(run.configs[t].position - 1)
                )
                if (src, letter) in marking:
                    direct = True
            assert eval_two_way(encoded, w).automaton_accepts() == direct


def test_marking_from_colors_roundtrip(mcr_rbt):
    marking = marking_from_colors(mcr_rbt)
    again = buchi_as_parity(mcr_rbt, marking)
    assert {k: t.colors for k, t in again.transitions.items()} == {
        k: t.colors for k, t in mcr_rbt.transitions.items()
    }


# --- folding the marking away ------------------------------------------------


def test_fold_requires_reversible(first_two_automaton):
    with pytest.raises(NotReversible):
        buchi_to_noacc(first_two_automaton, frozenset())


def test_fold_all_marked_reproduces_mcr(mcr_rbt, lassos_ab_hash):
    folded = buchi_to_noacc(mcr_rbt, frozenset(mcr_rbt.transitions))
    assert len(folded.states) == folded_states(len(mcr_rbt.states))
    assert validate_reversible(folded)
    assert folded.k == 0
    assert equiv_on_lassos(folded, mcr_rbt, lassos_ab_hash).ok


def test_fold_unreachable_marking_empties_domain(mcr_rbt, lassos_ab_hash):
    folded = buchi_to_noacc(mcr_rbt, frozenset())
    for w in lassos_ab_hash[:40]:
        out = eval_two_way(folded, w)
        assert not out.in_domain()
        assert out.output_prefix == ()


def test_fold_random_reversible_machines(lassos_ab):
    for seed in range(15):
        source = dbt_to_rbt(generate_two_way(seed, n=3, k=1, ell=2))
        assert source.ell <= 2
        marking = marking_from_colors(source)
        folded = buchi_to_noacc(source, marking)
        assert len(folded.states) == folded_states(len(source.states)), seed
        assert validate_reversible(folded), seed
        # two-color acceptance: some marked transition recurs
        report = equiv_on_lassos(folded, source, lassos_ab)
        assert report.ok, (seed, report.disagreements[:3])
