import hashlib
import threading
import time
from dataclasses import replace
from functools import partial
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegatrans.evaluate import (
    ACCEPTED,
    ACCEPTED_FINITE,
    BUDGET_EXCEEDED,
    REJECTED_LOOP,
    REJECTED_PARITY,
    REJECTED_STUCK,
    EvalBudget,
    _evaluate,
    _run,
    eval_machine,
    eval_sst,
    eval_two_way,
    equiv_on_lassos,
)
from omegatrans.lasso import LassoWord, enumerate_lassos, lasso_canonicalize
from omegatrans.machines import (
    LEFT_END,
    State,
    SstTransition,
    Substitution,
    Transition,
    TwoWayParityTransducer,
    CopylessParitySST,
    reg,
    sym,
)
from omegatrans.buchi import dbt_to_rbt
from omegatrans.forests import two_way_to_sst
from omegatrans.sst2rev import sst_to_reversible
from omegatrans.generate import generate_machine, generate_sst, generate_two_way
from support import Configuration, full_register_output, simulate_two_way, step_two_way


def lw(prefix, period):
    return LassoWord.make(prefix, period)


# --- single steps -----------------------------------------------------------


def test_step_forward_loop(mcr_rbt):
    copy = mcr_rbt.states[0]
    nxt, out, colors = step_two_way(mcr_rbt, lw("", "ab#"), Configuration(copy, 0))
    assert nxt == Configuration(copy, 1)
    assert out == ("a",) and colors == (0,)


def test_step_on_endmarker_stays_put(mcr_rbt):
    back, skip = mcr_rbt.states[1], mcr_rbt.states[2]
    nxt, out, _ = step_two_way(mcr_rbt, lw("", "a"), Configuration(back, 0))
    assert nxt == Configuration(skip, 0)
    assert out == ()


def test_step_stuck(first_two_automaton):
    s2 = first_two_automaton.states[1]
    assert step_two_way(first_two_automaton, lw("", "b"), Configuration(s2, 1)) is None


def test_position_never_negative(mcr_rbt):
    run = simulate_two_way(mcr_rbt, lw("", "ab#"), 200)
    assert all(c.position >= 0 for c in run.configs)


# --- two-way classification -------------------------------------------------


def test_automaton_accepts_with_empty_output(first_two_automaton):
    out = eval_two_way(first_two_automaton, lw("a", "b"))
    assert out.verdict == ACCEPTED_FINITE
    assert out.automaton_accepts() and not out.in_domain()


def test_stuck_rejection(first_two_automaton):
    assert eval_two_way(first_two_automaton, lw("bb", "a")).verdict == REJECTED_STUCK


def test_accept_with_output(mcr_rbt):
    out = eval_two_way(mcr_rbt, lw("", "ab#"))
    assert out.verdict == ACCEPTED
    assert out.output == lw("", "ab#ba#")


def test_parity_rejection(finitely_many_a):
    out = eval_two_way(finitely_many_a, lw("", "ab"))
    assert out.verdict == REJECTED_PARITY
    assert out.min_colors == (1,)


def test_exact_loop_rejection():
    fwd, bwd = State("f", True), State("b", False)
    machine = TwoWayParityTransducer(
        input_alphabet=("a",),
        output_alphabet=(),
        states=(fwd, bwd),
        initial=fwd,
        transitions={
            (fwd, "a"): Transition(bwd, (), ()),
            (bwd, "a"): Transition(fwd, (), ()),
            (bwd, LEFT_END): Transition(fwd, (), ()),
        },
        k=0,
        ell=1,
    )
    # f@0 -a-> b@0 -⊢-> f@0: the same configuration repeats.
    assert eval_two_way(machine, lw("", "a")).verdict == REJECTED_LOOP


def test_budget_exceeded_verdict(mcr_rbt):
    out = eval_two_way(mcr_rbt, lw("", "ab#"), EvalBudget(max_steps=3, max_output=10))
    assert out.verdict == "budget-exceeded"
    assert out.domain_class() == "inconclusive"


def test_eval_is_deterministic(mcr_rbt):
    a = eval_two_way(mcr_rbt, lw("ab", "ab#"))
    b = eval_two_way(mcr_rbt, lw("ab", "ab#"))
    assert a == b


def test_shift_loop_soundness(mcr_rbt):
    """Replaying three more loop lengths repeats states, position residues,
    and the per-loop production."""
    from omegatrans.lasso import lasso_canonicalize

    for w in [lw("", "ab#"), lw("ab#", "a"), lw("b", "a#")]:
        w = lasso_canonicalize(w)
        run = simulate_two_way(mcr_rbt, w, 10_000)
        assert run.kind == "shift-loop"
        t1, t2 = run.loop_start, run.loop_end
        span = t2 - t1
        # replay straightforwardly, without any loop detector
        config = Configuration(mcr_rbt.initial, 0)
        configs, outputs = [config], []
        for _ in range(t2 + 3 * span):
            config, out, _ = step_two_way(mcr_rbt, w, config)
            configs.append(config)
            outputs.append(out)
        vlen = len(w.period)
        for offset in range(span):
            base = configs[t1 + offset]
            for repeat in range(1, 4):
                again = configs[t1 + repeat * span + offset]
                assert again.state == base.state
                assert (again.position - base.position) % vlen == 0
                assert outputs[t1 + repeat * span + offset] == outputs[t1 + offset]


def test_single_state_odd_color_rejects_everything():
    q = State("q", True)
    machine = TwoWayParityTransducer(
        ("a",), ("a",), (q,), q, {(q, "a"): Transition(q, ("a",), (1,))}, 1, 2
    )
    assert eval_two_way(machine, lw("", "a")).verdict == REJECTED_PARITY


def test_single_state_identity_output_length():
    q = State("q", True)
    machine = TwoWayParityTransducer(
        ("a", "b"), ("x",), (q,), q,
        {(q, a): Transition(q, ("x",), (0,)) for a in "ab"}, 1, 1,
    )
    out = eval_two_way(machine, lw("", "ab"))
    assert out.verdict == ACCEPTED
    assert out.output == lw("", "x")


def _echo_x(kind):
    """One state q looping on each letter with output x: a one-way
    transducer, or a register machine with out := out·x."""
    q = State("q", True)
    if kind == "one-way":
        transitions = {(q, a): Transition(q, ("x",), (0,)) for a in "ab"}
        return TwoWayParityTransducer(("a", "b"), ("x",), (q,), q, transitions, 1, 1)
    update = Substitution.from_dict({"out": (reg("out"), sym("x"))})
    transitions = {(q, a): SstTransition(q, update, (0,)) for a in "ab"}
    return CopylessParitySST(("a", "b"), ("x",), (q,), q, transitions, ("out",), "out", 1, 1)


@pytest.mark.parametrize("kind", ["one-way", "register"])
def test_every_kind_anchors_the_start_configuration(kind):
    # On an empty prefix the loop is found as [0, 1), whatever the kind.
    out = eval_machine(_echo_x(kind), lw("", "a"))
    assert (out.verdict, out.output, out.steps) == (ACCEPTED, lw("", "x"), 1)


@pytest.mark.parametrize("kind", ["one-way", "register"])
def test_every_kind_honours_the_step_budget(kind):
    out = eval_machine(_echo_x(kind), lw("b" * 50, "a"), EvalBudget(max_steps=3))
    assert out.verdict == BUDGET_EXCEEDED


@pytest.mark.parametrize("kind", ["one-way", "register"])
def test_every_kind_cuts_only_the_prefix_to_the_output_budget(kind):
    # The 50 letters written before the loop exceed max_output, yet the
    # output lasso is exact; an accepted run carries no separate prefix.
    out = eval_machine(_echo_x(kind), lw("b" * 50, "a"), EvalBudget(max_output=3))
    assert (out.verdict, out.output, out.output_prefix, out.steps) == (
        ACCEPTED, lw("", "x"), (), 51
    )


# --- register machines ------------------------------------------------------


def test_sst_exact_output(mcr_sst):
    out = eval_sst(mcr_sst, lw("", "ab#"))
    assert out.verdict == ACCEPTED and out.output == lw("", "ab#ba#")
    assert "".join(out.output.unroll(12)) == "ab#ba#ab#ba#"


def test_sst_identity_tail(mcr_sst):
    out = eval_sst(mcr_sst, lw("", "a"))
    assert out.verdict == ACCEPTED and out.output == lw("", "a")


def _sst_one_state(updates, k=1, ell=1, colors=(0,), registers=("out", "x")):
    q = State("q", True)
    transitions = {
        (q, a): SstTransition(q, Substitution.from_dict(images), colors)
        for a, images in updates.items()
    }
    return CopylessParitySST(
        input_alphabet=tuple(updates),
        output_alphabet=("z",),
        states=(q,),
        initial=q,
        transitions=transitions,
        registers=registers,
        out="out",
        k=k,
        ell=ell,
    )


def test_sst_never_writing_letters_is_finite():
    sst = _sst_one_state({"a": {"out": (reg("out"),), "x": ()}})
    out = eval_sst(sst, lw("", "a"))
    assert out.verdict == ACCEPTED_FINITE
    assert out.output_prefix == ()


def test_sst_growing_register_never_flowing_to_out():
    sst = _sst_one_state({"a": {"out": (reg("out"),), "x": (sym("z"), reg("x"))}})
    out = eval_sst(sst, lw("", "a"))
    assert out.verdict == ACCEPTED_FINITE


def test_sst_out_grows_monotonically(mcr_sst):
    val = {r: () for r in mcr_sst.registers}
    state = mcr_sst.initial
    previous = ()
    for letter in lw("", "ab#").unroll(12):
        tr = mcr_sst.transitions[(state, letter)]
        val = tr.update.apply(val)
        state = tr.target
        assert val["out"][: len(previous)] == previous
        previous = val["out"]


def test_sst_stuck():
    sst = _sst_one_state({"a": {"out": (reg("out"), sym("z")), "x": ()}})
    assert eval_sst(sst, lw("b", "a")) is not None  # 'b' not in alphabet: stuck
    assert eval_sst(sst, lw("b", "a")).verdict == REJECTED_STUCK


def _equiv_corpus_ssts():
    """Register machines converted from perfbench's equiv corpus."""
    for seed in range(30):
        yield two_way_to_sst(generate_two_way(seed, 4, 1, 2, alphabet_size=2, density=1.0))


def test_sst_outputs_are_certified_exactly():
    """Copylessness keeps the registers feeding out on an acyclic flow, so
    their contents settle and accepted outputs always come out as exact
    lassos."""
    generated = [
        generate_sst(seed, n=3, k=1, ell=2, n_registers=registers)
        for seed in range(25)
        for registers in range(2, 7)
    ]
    for sst in chain(generated, _equiv_corpus_ssts()):
        for w in enumerate_lassos(sst.input_alphabet, 2, 3):
            out = eval_sst(sst, w)
            assert out.verdict != BUDGET_EXCEEDED
            if out.verdict == ACCEPTED:
                assert out.output is not None


def test_sst_output_outgrowing_the_budget_is_inconclusive(mcr_sst):
    """A run whose output cannot be certified within ``max_output`` is
    inconclusive, never accepted on a prefix."""
    budget = EvalBudget(max_steps=100_000, max_output=4)
    out = eval_sst(mcr_sst, LassoWord(("a", "b"), ("#", "a")), budget)
    assert out.verdict == BUDGET_EXCEEDED
    assert out.domain_class() == "inconclusive"


def test_sst_budget_charges_only_registers_feeding_out():
    """Registers that never reach ``out`` may grow without bound; they are
    neither updated nor charged while the output is certified."""
    sst = generate_sst(89, n=3, k=2, ell=4, alphabet_size=3, n_registers=6, density=0.9)
    out = eval_sst(sst, LassoWord(("b", "a"), ("c", "b", "b")), EvalBudget(max_output=20))
    assert out.verdict == ACCEPTED_FINITE
    assert out.output_prefix == tuple("caabb")


# SHA-256 over the outcomes of ``eval_sst`` on two corpora at the default
# budget; any change to a verdict, output, finite output, colour or step
# count shows here.
PINNED_SST_OUTCOMES = (29_330, "47fdfc744a23994889dbb95da616d65c130ccbd5a63d81a8ae6c4a9e5ffe4d7d")


def _generated_ssts():
    for s in range(100):
        yield generate_sst(
            s, n=2 + s % 4, k=1 + s % 2, ell=2 + s % 3, alphabet_size=2 + s % 2,
            n_registers=2 + s % 5, density=0.9,
        )


def test_sst_outcomes_are_pinned():
    runs = chain(
        ((sst, enumerate_lassos(sst.input_alphabet, 3, 5)) for sst in _equiv_corpus_ssts()),
        ((sst, enumerate_lassos(sst.input_alphabet, 2, 3)) for sst in _generated_ssts()),
    )
    digest = hashlib.sha256()
    count = 0
    for sst, lassos in runs:
        for w in lassos:
            o = eval_sst(sst, w)
            digest.update(repr((o.verdict, o.output, o.output_prefix, o.min_colors, o.steps)).encode())
            count += 1
    assert (count, digest.hexdigest()) == PINNED_SST_OUTCOMES


def _assert_matches_full_register_output(runs, budget):
    for sst, lassos in runs:
        for w in lassos:
            expected = _evaluate(sst, lasso_canonicalize(w), budget, full_register_output)
            assert eval_sst(sst, w, budget) == expected, f"on {w}"


def test_sst_outcomes_match_the_full_register_reference_on_the_equiv_corpus():
    """Expanding only out and the registers feeding it gives the outcome of
    updating every register, field by field."""
    runs = ((sst, enumerate_lassos(sst.input_alphabet, 3, 5)) for sst in _equiv_corpus_ssts())
    _assert_matches_full_register_output(runs, None)


@pytest.mark.parametrize("max_output", [4, 20, None])
def test_sst_outcomes_match_the_full_register_reference_on_generated_machines(max_output):
    budget = max_output and EvalBudget(max_output=max_output)
    runs = ((sst, enumerate_lassos(sst.input_alphabet, 2, 3)) for sst in _generated_ssts())
    _assert_matches_full_register_output(runs, budget)


def test_a_register_left_out_of_an_update_reads_as_empty(mcr_sst):
    """Dropping X from the a-update resets X on every a; the output follows."""
    a_update = Substitution.from_dict({"out": (reg("out"), sym("a"))})
    (q,) = mcr_sst.states
    transitions = dict(mcr_sst.transitions)
    transitions[(q, "a")] = transitions[(q, "a")]._replace(update=a_update)
    sst = replace(mcr_sst, transitions=transitions)
    out = eval_sst(sst, lw("a", "b#"))
    assert (out.verdict, str(out.output)) == (ACCEPTED, "a(b#)")
    assert str(eval_sst(sst, lw("", "ab#")).output) == "(ab#b#)"
    lassos = enumerate_lassos(sst.input_alphabet, 3, 4)
    _assert_matches_full_register_output([(sst, lassos)], None)
    report = equiv_on_lassos(sst, sst_to_reversible(sst), lassos)
    assert (report.checked, report.passed) == (2835, 2835)


def _spellings(w):
    """``w`` and two non-canonical spellings of the same word: the period
    doubled, and one period letter moved into the prefix."""
    period = w.period[1:] + w.period[:1]
    return w, LassoWord(w.prefix, w.period * 2), LassoWord(w.prefix + w.period[:1], period * 3)


# SHA-256 over the outcomes of ``eval_machine`` on sources, their register
# machines and their det2rev outputs, on canonical and non-canonical lassos,
# at the default budget and at one small enough to run out; then one full
# ``simulate_two_way`` record.  Any change to a verdict, output, finite
# output, colour, step count or simulated run shows here.
PINNED_ORACLE_OUTCOMES = (15_012, "4f53aecf3a4813e8eb49d6e488aff17d6d0a5cd226ec5f03ad30d73adceecf20")


def test_oracle_outcomes_are_pinned():
    sources = [generate_two_way(seed, 4, 1, 2, alphabet_size=2, density=1.0) for seed in range(6)]
    sources += [generate_two_way(seed, 5, 1, 2, alphabet_size=3, density=1.0) for seed in (1, 4)]
    machines = [m for s in sources for m in (s, two_way_to_sst(s), dbt_to_rbt(s))]
    digest = hashlib.sha256()
    count = 0
    for machine in machines:
        for w in enumerate_lassos(machine.input_alphabet, 2, 3):
            for spelling in _spellings(w):
                for budget in (None, EvalBudget(7, 5)):
                    o = eval_machine(machine, spelling, budget)
                    digest.update(
                        repr((o.verdict, o.output, o.output_prefix, o.min_colors, o.steps)).encode()
                    )
                    count += 1
    run = simulate_two_way(sources[7], LassoWord(tuple("cabcb"), tuple("bcbbcb")), 1_000)
    digest.update(
        repr((run.kind, run.configs, run.outputs, run.colors, run.loop_start, run.loop_end)).encode()
    )
    assert (count, digest.hexdigest()) == PINNED_ORACLE_OUTCOMES


# --- equivalence driver -----------------------------------------------------


def test_equiv_machine_vs_itself(mcr_rbt, lassos_ab_hash):
    report = equiv_on_lassos(mcr_rbt, mcr_rbt, lassos_ab_hash)
    assert report.ok and not report.inconclusive
    assert report.passed == report.checked


def test_equiv_rbt_vs_sst(mcr_rbt, mcr_sst, lassos_ab_hash):
    assert equiv_on_lassos(mcr_rbt, mcr_sst, lassos_ab_hash).ok


def test_equiv_detects_flipped_output(mcr_rbt):
    flipped = dict(mcr_rbt.transitions)
    copy = mcr_rbt.states[0]
    flipped[(copy, "a")] = Transition(copy, ("b",), (0,))
    other = TwoWayParityTransducer(
        mcr_rbt.input_alphabet,
        mcr_rbt.output_alphabet,
        mcr_rbt.states,
        mcr_rbt.initial,
        flipped,
        mcr_rbt.k,
        mcr_rbt.ell,
    )
    report = equiv_on_lassos(mcr_rbt, other, [lw("", "a#")])
    assert not report.ok
    assert report.disagreements[0][1].startswith("outputs differ")


def test_equiv_reports_non_canonical_spellings_as_given(mcr_rbt, mcr_sst, lassos_ab_hash):
    """Each lasso is canonicalized once for both machines; the counts match
    those on the canonical lassos, and every report names the spelling the
    caller gave."""
    (copy, *_) = mcr_rbt.states
    flipped = replace(
        mcr_rbt,
        transitions={**mcr_rbt.transitions, (copy, "a"): Transition(copy, ("b",), (0,))},
    )
    budget = EvalBudget(max_steps=12)
    base = equiv_on_lassos(flipped, mcr_sst, lassos_ab_hash, budget)
    assert base.passed and base.disagreements and base.inconclusive
    for pick in (1, 2):
        spelled = {w: _spellings(w)[pick] for w in lassos_ab_hash}
        assert all(spelled[w] != w for w in lassos_ab_hash)
        report = equiv_on_lassos(flipped, mcr_sst, spelled.values(), budget)
        assert (report.checked, report.passed) == (base.checked, base.passed)
        for listed, expected in (
            (report.disagreements, base.disagreements),
            (report.inconclusive, base.inconclusive),
        ):
            assert listed == [(spelled[w], why) for w, why in expected]


def test_equiv_budget_marks_inconclusive(mcr_rbt):
    report = equiv_on_lassos(
        mcr_rbt, mcr_rbt, [lw("", "ab#")], EvalBudget(max_steps=2, max_output=4)
    )
    assert not report.passed and report.inconclusive


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_random_machines_classify_without_budget(seed):
    machine = generate_two_way(seed, n=3, k=1, ell=2)
    for w in [lw("", "ab"), lw("a", "b"), lw("bb", "aab")]:
        out = eval_two_way(machine, w)
        assert out.verdict != "budget-exceeded"


@given(
    kind=st.sampled_from(["1dpt", "2dpt", "cpsst", "det2rev"]),
    seed=st.integers(0, 10_000),
    n=st.integers(2, 7),
    density=st.sampled_from([0.7, 0.9, 1.0]),
    prefix=st.text("abc", max_size=3),
    period=st.text("abc", min_size=1, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_run_is_classified_within_the_step_bound(kind, seed, n, density, prefix, period):
    """No run on a canonical lasso u·v^ω outlasts |Q|·(|u| + |Q|·|v| + 2)
    steps, the bound stated on ``_run``: a run is inconclusive only when its
    budget is below the bound."""
    if kind == "det2rev":
        source = generate_two_way(seed, min(n, 4), alphabet_size=3, density=density)
        machine = dbt_to_rbt(source)
    else:
        machine = generate_machine(kind, seed, n, alphabet_size=3, density=density)
    w = lasso_canonicalize(lw(prefix, period))
    q = len(machine.states)
    bound = q * (len(w.prefix) + q * len(w.period) + 2)
    assert _run(machine, w, bound)[0] != BUDGET_EXCEEDED


# --- run table ----------------------------------------------------------------


def _stepped_configs(machine, w, steps):
    """The configurations of ``steps`` plain ``step_two_way`` calls."""
    config = Configuration(machine.initial, 0)
    configs, outputs, colors = [config], [], []
    for _ in range(steps):
        step = step_two_way(machine, w, config)
        if step is None:
            break
        config, out, col = step
        configs.append(config)
        outputs.append(out)
        colors.append(col)
    return configs, outputs, colors


def _bundled_mcr_rbt():
    from pathlib import Path

    from support import load_machine

    return load_machine(Path(__file__).resolve().parent.parent / "machines" / "mcr_rbt.json")


def _initial_declared_last():
    from dataclasses import replace

    machine = generate_two_way(3, n=4, k=1, ell=2)
    states = machine.states
    assert states[0] == machine.initial
    return replace(machine, states=states[1:] + states[:1])


# Keyed by test id; "None" is the bundled mcr_rbt.
SIMULATED_MACHINES = {
    "None": _bundled_mcr_rbt,
    **{str(seed): partial(generate_two_way, seed, n=4, k=1, ell=2) for seed in range(10)},
    # Its run on (ab) revisits a (state, residue) further left, which moves
    # the shift-loop anchor.
    "15-dense": partial(generate_two_way, 15, n=3, k=1, ell=2, alphabet_size=2, density=1.0),
    "3-initial-last": _initial_declared_last,
}


@pytest.mark.parametrize("build", SIMULATED_MACHINES.values(), ids=SIMULATED_MACHINES.keys())
def test_simulation_matches_single_steps(build):
    from omegatrans.lasso import lasso_canonicalize

    machine = build()
    for w in enumerate_lassos(machine.input_alphabet, 2, 3):
        run = simulate_two_way(machine, w, 2_000)
        steps = len(run.configs) - 1
        configs, outputs, colors = _stepped_configs(machine, lasso_canonicalize(w), steps)
        assert run.configs == configs
        assert (run.outputs, run.colors) == (outputs, colors)
        if run.kind == REJECTED_STUCK:
            assert step_two_way(machine, lasso_canonicalize(w), configs[-1]) is None


def test_equal_state_copies_are_one_state(mcr_rbt, lassos_ab_hash):
    """Targets that are equal but distinct State objects name one state."""
    copy = lambda s: State(s.name, s.forward)  # noqa: E731
    twin = TwoWayParityTransducer(
        mcr_rbt.input_alphabet,
        mcr_rbt.output_alphabet,
        mcr_rbt.states,
        copy(mcr_rbt.initial),
        {
            key: Transition(copy(tr.target), tr.output, tr.colors)
            for key, tr in mcr_rbt.transitions.items()
        },
        mcr_rbt.k,
        mcr_rbt.ell,
    )
    for w in lassos_ab_hash:
        run, twin_run = simulate_two_way(mcr_rbt, w, 10_000), simulate_two_way(twin, w, 10_000)
        assert (twin_run.kind, twin_run.loop_start, twin_run.loop_end) == (
            run.kind, run.loop_start, run.loop_end
        )
        assert eval_two_way(twin, w) == eval_two_way(mcr_rbt, w)


def test_replaced_machine_gets_its_own_runs(mcr_rbt, lassos_ab_hash):
    from dataclasses import fields, replace

    before = [eval_machine(mcr_rbt, w) for w in lassos_ab_hash]
    copy = mcr_rbt.states[0]
    flipped = dict(mcr_rbt.transitions)
    flipped[(copy, "a")] = Transition(copy, ("b",), (0,))
    other = replace(mcr_rbt, transitions=flipped)
    fresh = TwoWayParityTransducer(
        **{f.name: getattr(mcr_rbt, f.name) for f in fields(mcr_rbt) if f.name != "transitions"},
        transitions=flipped,
    )
    after = [eval_machine(other, w) for w in lassos_ab_hash]
    assert after == [eval_machine(fresh, w) for w in lassos_ab_hash]
    assert after != before
    assert [eval_machine(mcr_rbt, w) for w in lassos_ab_hash] == before


def test_evaluated_machine_pickles():
    import pickle

    machine = generate_two_way(3, n=4, k=1, ell=2)
    lassos = enumerate_lassos(machine.input_alphabet, 2, 3)
    before = [eval_machine(machine, w) for w in lassos]
    again = pickle.loads(pickle.dumps(machine))
    assert again == machine
    assert [eval_machine(again, w) for w in lassos] == before


class _YieldingName(str):
    """A state name whose hashing lets other threads run, which widens any
    window between looking a state up and interning it."""

    def __hash__(self):
        time.sleep(0)
        return str.__hash__(self)


def _with_yielding_names(machine):
    named = {s: State(_YieldingName(s.name), s.forward) for s in machine.states}
    return TwoWayParityTransducer(
        machine.input_alphabet,
        machine.output_alphabet,
        tuple(named.values()),
        named[machine.initial],
        {
            (named[s], letter): Transition(named[tr.target], tr.output, tr.colors)
            for (s, letter), tr in machine.transitions.items()
        },
        machine.k,
        machine.ell,
    )


def test_threads_sharing_a_machine_agree():
    """Threads compiling moves of one shared machine at once intern each
    state once, so every thread gets the single-threaded verdicts."""
    lassos = enumerate_lassos(("a", "b"), 2, 3)
    for seed in range(10):
        machine = generate_two_way(seed, n=8, k=1, ell=2)
        expected = [eval_machine(machine, w) for w in lassos]
        shared = _with_yielding_names(machine)
        results = [None] * 4
        start = threading.Barrier(len(results))

        def work(slot):
            start.wait(timeout=30)
            results[slot] = [eval_machine(shared, w) for w in lassos]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * len(results)


def test_backward_initial_state_reads_the_endmarker_first():
    """A backward initial state at position 0 reads the endmarker, in the
    run loop as in step_two_way."""
    b, f = State("b", False), State("f", True)
    machine = TwoWayParityTransducer(
        input_alphabet=("a",),
        output_alphabet=("x", "y"),
        states=(b, f),
        initial=b,
        transitions={
            (b, "a"): Transition(f, ("x",), (0,)),
            (b, LEFT_END): Transition(f, ("y",), (0,)),
            (f, "a"): Transition(f, (), (0,)),
        },
        k=1,
        ell=2,
    )
    word = lw("", "a")
    run = simulate_two_way(machine, word, 50)
    config = Configuration(b, 0)
    assert run.configs[0] == config
    for t, output in enumerate(run.outputs):
        config, out, _ = step_two_way(machine, word, config)
        assert (config, out) == (run.configs[t + 1], output)
    assert run.outputs[0] == ("y",)
