import collections
import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

from omegatrans import machines
from omegatrans.buchi import dbt_to_rbt
from omegatrans.compose import compose_reachable
from omegatrans.evaluate import eval_sst, equiv_on_lassos
from omegatrans.forests import two_way_to_sst
from omegatrans.generate import generate_sst, generate_two_way
from omegatrans.lasso import LassoWord, enumerate_lassos
from omegatrans.machines import (
    LEFT_END,
    CopylessParitySST,
    InvalidMachine,
    SstTransition,
    State,
    Substitution,
    WrongMachineKind,
    reg,
    sym,
    validate_machine,
    validate_reversible,
    validate_sst_machine,
)
from omegatrans.oneway import one_way_to_reversible
from omegatrans.sst2rev import (
    build_register_walker,
    drop_dead_registers,
    merge_equal_states,
    name_registers_by_use,
    sst_to_reversible,
    sst_to_substitution_stream,
    substitution_alphabet,
)
from support import (
    drop_dead_registers_fixpoint,
    full_product,
    load_machine,
    merge_equal_states_on_updates,
    prune_unreachable,
    register_names_by_use,
    rename_registers,
)


def lw(prefix, period):
    return LassoWord.make(prefix, period)


def test_stream_emits_one_substitution_per_letter(mcr_sst):
    stream = sst_to_substitution_stream(mcr_sst)
    assert len(stream.output_alphabet) == 3  # one update per input letter
    # The stream declares the register machine's states in its own order.
    assert len(stream.states) == len(mcr_sst.states) and set(stream.states) == set(mcr_sst.states)
    assert stream.k == mcr_sst.k
    for (src, letter), tr in stream.transitions.items():
        assert len(tr.output) == 1
        assert tr.output[0] == mcr_sst.transitions[(src, letter)].update


def test_stream_rejects_invalid_sst(mcr_sst):
    q = mcr_sst.initial
    broken = CopylessParitySST(
        mcr_sst.input_alphabet,
        mcr_sst.output_alphabet,
        mcr_sst.states,
        q,
        {
            (q, "a"): SstTransition(
                q, Substitution.from_dict({"out": (reg("out"),), "X": (reg("X"), reg("X"))}), (0,)
            )
        },
        mcr_sst.registers,
        "out",
        1,
        1,
    )
    with pytest.raises(InvalidMachine):
        sst_to_substitution_stream(broken)


def test_identity_updates_give_single_letter_stream():
    q = State("q", True)
    ident = Substitution.from_dict({"out": (reg("out"), sym("a")), "x": ()})
    sst = CopylessParitySST(
        ("a", "b"), ("a",), (q,), q,
        {(q, a): SstTransition(q, ident, (0,)) for a in "ab"},
        ("out", "x"), "out", 1, 1,
    )
    assert len(substitution_alphabet(sst)) == 1


# --- the walker -------------------------------------------------------------


def test_walker_shape(mcr_sst):
    walker = build_register_walker(mcr_sst)
    assert len(walker.states) == 2 * len(mcr_sst.registers)
    assert walker.k == 0
    assert walker.initial.name == "out.done" and walker.initial.forward
    assert validate_reversible(walker)


def test_walker_reverses_accumulated_block(mcr_sst):
    walker = build_register_walker(mcr_sst)
    a_update = mcr_sst.transitions[(mcr_sst.initial, "a")].update
    fetch_x = State("X.fetch", False)
    tr = walker.transitions[(fetch_x, a_update)]
    # X's image is a·X, so fetching X keeps walking left, producing "a"
    assert tr.target == fetch_x and tr.output == ("a",)


def test_walker_letter_only_flow(mcr_sst):
    walker = build_register_walker(mcr_sst)
    a_update = mcr_sst.transitions[(mcr_sst.initial, "a")].update
    done_out = State("out.done", True)
    tr = walker.transitions[(done_out, a_update)]
    # out's image is out·a with no register after out: move on, producing "a"
    assert tr.target == done_out and tr.output == ("a",)


def test_walker_endmarker_empties_every_fetch(mcr_sst):
    walker = build_register_walker(mcr_sst)
    for r in mcr_sst.registers:
        tr = walker.transitions[(State(f"{r}.fetch", False), LEFT_END)]
        assert tr.target == State(f"{r}.done", True) and tr.output == ()


def test_walker_consumed_register_flows_to_out(mcr_sst):
    walker = build_register_walker(mcr_sst)
    hash_update = mcr_sst.transitions[(mcr_sst.initial, "#")].update
    tr = walker.transitions[(State("X.done", True), hash_update)]
    # out's image is out·#·X·#: after X comes the trailing #
    assert tr.target == State("out.done", True) and tr.output == ("#",)


def test_walker_dropped_register_is_stuck():
    q = State("q", True)
    drop = Substitution.from_dict({"out": (reg("out"), sym("a")), "x": ()})
    sst = CopylessParitySST(
        ("a",), ("a",), (q,), q,
        {(q, "a"): SstTransition(q, drop, (0,))},
        ("out", "x"), "out", 1, 1,
    )
    walker = build_register_walker(sst)
    # nothing mentions x, so a finished x-walk has nowhere to go
    assert (State("x.done", True), drop) not in walker.transitions


def _simulate_registers(sst, word):
    state, val = sst.initial, {r: () for r in sst.registers}
    valuations = [dict(val)]
    for a in word:
        tr = sst.transitions[(state, a)]
        val = tr.update.apply(val)
        state = tr.target
        valuations.append(dict(val))
    return valuations


def _walk_with_endmarker(walker, stream, entry, position):
    """Finite two-way walk over stream[:position] entered from the right."""
    state, pos = entry, position
    produced = []
    fuel = 10_000
    while fuel:
        fuel -= 1
        if state.forward and pos == position:
            return state, tuple(produced)
        letter = stream[pos] if state.forward else (stream[pos - 1] if pos > 0 else LEFT_END)
        tr = walker.transitions.get((state, letter))
        if tr is None:
            return None, tuple(produced)
        produced.extend(tr.output)
        if letter == LEFT_END:
            pass
        elif state.forward:
            pos = pos + 1 if tr.target.forward else pos
        else:
            pos = pos if tr.target.forward else pos - 1
        state = tr.target
    raise AssertionError("walk did not terminate")


def test_walker_right_right_runs_produce_register_contents():
    """Entering (r, fetch) at position j returns at (r, done) having produced
    exactly the register's content after j letters."""
    for seed in range(20):
        sst = generate_sst(seed, n=2, k=1, ell=2, n_registers=3)
        walker = build_register_walker(sst)
        word = lw("", "ab").unroll(6)
        try:
            valuations = _simulate_registers(sst, word)
        except KeyError:
            continue  # partial machine died on this word
        stream = []
        state = sst.initial
        for a in word:
            tr = sst.transitions[(state, a)]
            stream.append(tr.update)
            state = tr.target
        for j in range(0, 6):
            for r in sst.registers:
                exit_state, produced = _walk_with_endmarker(
                    walker, stream, State(f"{r}.fetch", False), j
                )
                assert exit_state == State(f"{r}.done", True), (seed, j, r)
                assert produced == valuations[j][r], (seed, j, r)


# --- end to end -------------------------------------------------------------


def test_mcr_sst_to_reversible(mcr_sst, mcr_rbt, lassos_ab_hash):
    rbt = sst_to_reversible(mcr_sst)
    assert validate_reversible(rbt)
    assert rbt.k == mcr_sst.k
    assert equiv_on_lassos(rbt, mcr_rbt, lassos_ab_hash).ok
    assert equiv_on_lassos(rbt, mcr_sst, lassos_ab_hash, require_class=True).ok


def test_append_only_sst_is_identity(lassos_ab):
    q = State("q", True)
    updates = {
        a: Substitution.from_dict({"out": (reg("out"), sym(a))}) for a in "ab"
    }
    sst = CopylessParitySST(
        ("a", "b"), ("a", "b"), (q,), q,
        {(q, a): SstTransition(q, updates[a], (0,)) for a in "ab"},
        ("out",), "out", 1, 1,
    )
    rbt = sst_to_reversible(sst)
    from builtin import identity_transducer

    assert equiv_on_lassos(rbt, identity_transducer("ab"), lassos_ab).ok


def test_random_ssts_round_trip(lassos_ab):
    for seed in range(60):
        sst = generate_sst(seed, n=3, k=1, ell=2, n_registers=3)
        rbt = sst_to_reversible(sst)
        assert validate_reversible(rbt), seed
        report = equiv_on_lassos(sst, rbt, lassos_ab, require_class=True)
        assert report.ok, (seed, report.disagreements[:3])


def test_size_accounting(mcr_sst):
    stream = sst_to_substitution_stream(mcr_sst)
    from omegatrans.oneway import one_way_to_reversible

    stream_rev = one_way_to_reversible(stream)
    n, m = len(stream_rev.states), len(mcr_sst.registers)
    rbt = sst_to_reversible(mcr_sst)
    assert len(rbt.states) <= n * 2 * m


def test_rejects_two_way_machine(mcr_rbt):
    with pytest.raises(WrongMachineKind):
        sst_to_reversible(mcr_rbt)


def test_sst_to_reversible_rejects_an_undeclared_register():
    q = State("q", True)
    ghost = Substitution.from_dict({"out": (reg("out"), reg("ghost"))})
    sst = CopylessParitySST(
        input_alphabet=("a",),
        output_alphabet=("a",),
        states=(q,),
        initial=q,
        transitions={(q, "a"): SstTransition(q, ghost, (0,))},
        registers=("out",),
        out="out",
        k=1,
        ell=1,
    )
    with pytest.raises(InvalidMachine, match="update reads unknown register 'ghost'"):
        sst_to_reversible(sst)


def reduce(sst):
    """The register machine ``sst_to_reversible`` builds its stages from."""
    return merge_equal_states(name_registers_by_use(drop_dead_registers(sst)))


def test_walker_of_a_machine_without_transitions_is_valid():
    """A register machine that reduces to no transitions uses no update, so
    its walker reads an empty alphabet; it is still a valid machine, and
    the composition's input check accepts it."""
    sst = reduce(two_way_to_sst(generate_two_way(0, 3, alphabet_size=2, density=1.0)))
    assert len(sst.states) == 1 and not sst.transitions
    walker = build_register_walker(sst)
    assert walker.input_alphabet == ()
    assert validate_machine(walker) == []


def composed_stages(sst):
    """The stream and the walker of ``sst`` composed as given, without
    reducing ``sst`` first."""
    stream = one_way_to_reversible(sst_to_substitution_stream(sst))
    return compose_reachable(stream, build_register_walker(sst))


def _reference_ssts():
    machines = pathlib.Path(__file__).resolve().parent.parent / "machines"
    yield load_machine(str(machines / "mcr_sst.json"))
    for seed in range(10):
        yield two_way_to_sst(generate_two_way(seed, n=4, k=1, ell=2, alphabet_size=2))


def _reference_pairs():
    """The stream and walker of each reference register machine, then two
    det2rev outputs composed at corpus scale (8,554 and 910 pairs)."""
    for sst in _reference_ssts():
        yield one_way_to_reversible(sst_to_substitution_stream(sst)), build_register_walker(sst)
    outputs = {
        seed: dbt_to_rbt(generate_two_way(seed, 7, 1, 2, alphabet_size=3, density=1.0))
        for seed in (4, 7, 11)
    }
    yield outputs[7], outputs[4]
    yield outputs[11], outputs[4]


def test_reachable_composition_matches_pruned_full_product():
    """full_product + prune_unreachable is the reference the worklist
    builder must reproduce; only ell may shrink, to the kept transitions'
    bound."""
    for i, (first, second) in enumerate(_reference_pairs()):
        out = compose_reachable(first, second)
        pruned = prune_unreachable(full_product(first, second))
        assert out == dataclasses.replace(pruned, ell=out.ell), i
        assert out.ell <= pruned.ell, i
        assert validate_machine(out) == [], i


def test_pipeline_composes_the_reduced_stages():
    for i, sst in enumerate(_reference_ssts()):
        assert sst_to_reversible(sst) == composed_stages(reduce(sst)), i


# --- reducing the register machine ---------------------------------------------


def test_dead_register_is_emptied_and_equal_states_merge():
    """x never reaches out, so its updates empty it; then p and q take the
    same update to each other and merge into p."""
    p, q = State("p", True), State("q", True)
    grow = Substitution.from_dict({"out": (reg("out"), sym("a")), "x": (reg("x"), sym("a"))})
    drop = Substitution.from_dict({"out": (reg("out"), sym("a")), "x": ()})
    sst = CopylessParitySST(
        ("a",), ("a",), (p, q), p,
        {(p, "a"): SstTransition(q, grow, (0,)), (q, "a"): SstTransition(p, drop, (0,))},
        ("out", "x"), "out", 1, 1,
    )
    assert merge_equal_states(sst) == sst
    dropped = drop_dead_registers(sst)
    assert dropped.transitions[(p, "a")].update == drop
    assert reduce(sst) == CopylessParitySST(
        ("a",), ("a",), (p,), p, {(p, "a"): SstTransition(p, drop, (0,))},
        ("out", "x"), "out", 1, 1,
    )



def test_states_with_different_colors_stay_apart():
    """p and q loop on the same update, p with an odd color and q with an
    even one: merging them would make q's accepted run rejected."""
    p, q = State("p", True), State("q", True)
    grow = Substitution.from_dict({"out": (reg("out"), sym("a"))})
    sst = CopylessParitySST(
        ("a",), ("a",), (p, q), q,
        {(p, "a"): SstTransition(p, grow, (1,)), (q, "a"): SstTransition(q, grow, (0,))},
        ("out",), "out", 1, 2,
    )
    assert reduce(sst) == sst
    assert eval_sst(sst, lw("", "a")).in_domain()


def test_merged_machine_takes_the_same_moves_in_sync():
    """Walked in step from the initial pair, the machine and its merge take
    the same update and colors on every letter, or both have no move.
    Over these seeds a merge blind to colors fails (seed 18)."""
    for seed in range(30):
        source = generate_two_way(seed, 4, 1, 2, alphabet_size=2, density=1.0)
        sst = drop_dead_registers(two_way_to_sst(source))
        merged = merge_equal_states(sst)
        pairs = [(sst.initial, merged.initial)]
        seen = set(pairs)
        while pairs:
            s, m = pairs.pop()
            for a in sst.input_alphabet:
                tr, tr2 = sst.transitions.get((s, a)), merged.transitions.get((m, a))
                move, move2 = (tr and (tr.update, tr.colors)), (tr2 and (tr2.update, tr2.colors))
                assert move == move2, (seed, s, m, a)
                if tr is not None and (tr.target, tr2.target) not in seen:
                    seen.add((tr.target, tr2.target))
                    pairs.append((tr.target, tr2.target))


@pytest.fixture(scope="module")
def corpus_ssts():
    """Register machines of the det2rev corpus, seeds 0-11."""
    return [
        two_way_to_sst(generate_two_way(seed, 7, 1, 2, alphabet_size=3, density=1.0))
        for seed in range(12)
    ]


def test_reduced_machine_is_valid_and_no_larger(corpus_ssts):
    for seed, sst in enumerate(corpus_ssts):
        reduced = reduce(sst)
        assert validate_sst_machine(reduced) == [], seed
        assert (reduced.registers, reduced.out, reduced.k, reduced.ell) == (
            sst.registers, sst.out, sst.k, sst.ell
        ), seed
        assert len(reduced.states) <= len(sst.states), seed


def test_dead_register_elimination_only_empties_images(corpus_ssts):
    for seed, sst in enumerate(corpus_ssts):
        dropped = drop_dead_registers(sst)
        assert (dropped.states, dropped.initial) == (sst.states, sst.initial), seed
        assert dropped.transitions.keys() == sst.transitions.keys(), seed
        for key, tr in sst.transitions.items():
            new = dropped.transitions[key]
            assert (new.target, new.colors) == (tr.target, tr.colors), (seed, key)
            for (r, img), (r2, img2) in zip(tr.update.images, new.update.images, strict=True):
                assert r == r2 and img2 in (img, ()), (seed, key, r)


@pytest.fixture(scope="module")
def reference_ssts():
    """The register machines of the det2rev corpus (n=7) and of four
    sources of the 2w2sst corpus (n=22)."""
    sources = [
        generate_two_way(seed, 7, 1, 2, alphabet_size=3, density=1.0) for seed in range(30)
    ] + [generate_two_way(seed, 22, 1, 2, alphabet_size=4, density=1.0) for seed in range(4)]
    return [two_way_to_sst(source) for source in sources]


def test_dead_registers_match_the_fixpoint_reference(reference_ssts):
    """The worklist pass empties the same images as re-scanning every
    transition until no live set grows."""
    for i, sst in enumerate(reference_ssts):
        assert drop_dead_registers(sst) == drop_dead_registers_fixpoint(sst), i


def test_merged_states_match_the_reference_on_updates(reference_ssts):
    """Refining over numbered (update, colors) labels merges the same states
    as comparing the updates themselves, before and after dropping dead
    registers."""
    for i, sst in enumerate(reference_ssts):
        for machine in (sst, drop_dead_registers(sst)):
            assert merge_equal_states(machine) == merge_equal_states_on_updates(machine), i


def test_reducing_twice_equals_reducing_once(corpus_ssts):
    """Dropping and merging are idempotent.  Renaming is not (seed 6 keeps
    permuting its registers), but a second round merges no further."""
    for seed, sst in enumerate(corpus_ssts):
        once = merge_equal_states(drop_dead_registers(sst))
        assert merge_equal_states(drop_dead_registers(once)) == once, seed
        renamed = reduce(sst)
        assert len(reduce(renamed).states) == len(renamed.states), seed


def test_reduced_machine_has_the_same_verdicts_and_outputs(corpus_ssts):
    """Merged states can close a loop sooner, so only ``steps`` may differ."""
    lassos = enumerate_lassos(corpus_ssts[0].input_alphabet, 2, 3)
    for seed, sst in enumerate(corpus_ssts):
        reduced = reduce(sst)
        for w in lassos:
            before, after = eval_sst(sst, w), eval_sst(reduced, w)
            assert (after.verdict, after.output) == (before.verdict, before.output), (seed, w)


def test_sst_to_reversible_agrees_with_the_unreduced_construction(corpus_ssts):
    lassos = enumerate_lassos(corpus_ssts[0].input_alphabet, 1, 2)
    for seed, sst in enumerate(corpus_ssts):
        out, unreduced = sst_to_reversible(sst), composed_stages(sst)
        assert len(out.states) <= len(unreduced.states), seed
        report = equiv_on_lassos(out, unreduced, lassos, require_class=True)
        assert report.disagreements == [] and report.inconclusive == [], seed


# --- the stream's state order ----------------------------------------------------


@pytest.fixture(scope="module")
def det2rev_sources():
    return [generate_two_way(seed, 7, 1, 2, alphabet_size=3, density=1.0) for seed in range(30)]


def test_stream_states_are_a_permutation_of_the_register_machine_states(det2rev_sources):
    for seed, source in enumerate(det2rev_sources):
        sst = reduce(two_way_to_sst(source))
        stream = sst_to_substitution_stream(sst)
        assert sorted(stream.states) == sorted(sst.states), seed
        assert stream.initial == sst.initial, seed
        assert stream.transitions.keys() == sst.transitions.keys(), seed


def test_stream_order_and_det2rev_bytes_repeat_across_hash_seeds():
    script = (
        "import hashlib\n"
        "from omegatrans.buchi import dbt_to_rbt\n"
        "from omegatrans.forests import two_way_to_sst\n"
        "from omegatrans.generate import generate_two_way\n"
        "from omegatrans.io import dumps_machine\n"
        "from omegatrans.sst2rev import sst_to_substitution_stream\n"
        "digest = hashlib.sha256()\n"
        "for seed in range(30):\n"
        "    source = generate_two_way(seed, 7, 1, 2, alphabet_size=3, density=1.0)\n"
        "    stream = sst_to_substitution_stream(two_way_to_sst(source))\n"
        "    digest.update(repr([s.name for s in stream.states]).encode())\n"
        "    digest.update(dumps_machine(dbt_to_rbt(source)).encode())\n"
        "print(digest.hexdigest())\n"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    digests = set()
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout)
    assert len(digests) == 1


def test_median_order_shrinks_the_outline():
    """q0 reads a into q1 and b into q2, q1 loops on a, and q2 reads a back
    into q0 and loops on b.  The upper medians of the successors' positions
    are 2, 1 and 2, so the stream declares q1, q0, q2.  In declaration order
    the outline has 16 states, in this order 12, and so has the output."""
    q0, q1, q2 = (State(f"q{i}", True) for i in range(3))
    grow = Substitution.from_dict({"out": (reg("out"), sym("a"))})
    moves = {(q0, "a"): q1, (q0, "b"): q2, (q1, "a"): q1, (q2, "a"): q0, (q2, "b"): q2}
    sst = CopylessParitySST(
        ("a", "b"), ("a",), (q0, q1, q2), q0,
        {key: SstTransition(target, grow, (0,)) for key, target in moves.items()},
        ("out",), "out", 1, 1,
    )
    assert reduce(sst) == sst
    stream = sst_to_substitution_stream(sst)
    assert stream.states == (q1, q0, q2)
    declared = dataclasses.replace(stream, states=sst.states)
    assert len(one_way_to_reversible(declared).states) == 16
    assert len(one_way_to_reversible(stream).states) == 12
    out = sst_to_reversible(sst)
    assert len(out.states) == 12
    report = equiv_on_lassos(sst, out, enumerate_lassos(("a", "b"), 3, 4), require_class=True)
    assert report.disagreements == [] and report.inconclusive == []


def test_sst_to_reversible_agrees_with_the_det2rev_sources(det2rev_sources):
    lassos = enumerate_lassos(det2rev_sources[0].input_alphabet, 2, 3)
    for seed, source in enumerate(det2rev_sources):
        out = sst_to_reversible(two_way_to_sst(source))
        assert validate_reversible(out), seed
        report = equiv_on_lassos(source, out, lassos)
        assert report.checked == len(lassos) == 297, seed
        assert report.disagreements == [] and report.inconclusive == [], seed


# --- naming registers by use -------------------------------------------------------


def test_naming_registers_by_use_merges_states_that_differ_by_a_swap():
    """On a, p moves x into out and y into x, and q does the same with x
    and y swapped; on b both keep every register.  Named by use, q's x and
    y trade names, so both states take the same updates and merge."""
    p, q = State("p", True), State("q", True)
    at_p = Substitution.from_dict({"out": (reg("out"), reg("x")), "x": (reg("y"),), "y": (sym("a"),)})
    at_q = Substitution.from_dict({"out": (reg("out"), reg("y")), "y": (reg("x"),), "x": (sym("a"),)})
    keep = Substitution.from_dict({r: (reg(r),) for r in ("out", "x", "y")})
    sst = CopylessParitySST(
        ("a", "b"), ("a",), (p, q), p,
        {
            (p, "a"): SstTransition(q, at_p, (0,)),
            (q, "a"): SstTransition(p, at_q, (0,)),
            (p, "b"): SstTransition(p, keep, (0,)),
            (q, "b"): SstTransition(q, keep, (0,)),
        },
        ("out", "x", "y"), "out", 1, 1,
    )
    assert len(merge_equal_states(sst).states) == 2
    renamed = name_registers_by_use(sst)
    assert renamed.transitions[(p, "a")].update == renamed.transitions[(q, "a")].update
    assert len(merge_equal_states(renamed).states) == 1
    report = equiv_on_lassos(sst, sst_to_reversible(sst), enumerate_lassos(("a", "b"), 3, 4))
    assert report.checked == 176
    assert report.disagreements == [] and report.inconclusive == []


def test_named_registers_are_a_bijection_per_state(det2rev_sources):
    """Each state's registers are renamed by a bijection that fixes out,
    the one the reference picks, and the renamed machine is valid and
    computes the same function."""
    lassos = enumerate_lassos(det2rev_sources[0].input_alphabet, 2, 3)
    for seed, source in enumerate(det2rev_sources):
        sst = two_way_to_sst(source)
        dropped = drop_dead_registers(sst)
        renamed = name_registers_by_use(dropped)
        assert validate_sst_machine(renamed) == [], seed
        names = register_names_by_use(dropped)
        for s, new in names.items():
            assert sorted(new) == sorted(new.values()) == sorted(sst.registers), (seed, s)
            assert new[sst.out] == sst.out, (seed, s)
        assert renamed == rename_registers(dropped, names), seed
        report = equiv_on_lassos(sst, renamed, lassos, require_class=True)
        assert report.checked == len(lassos) == 297, seed
        assert report.disagreements == [] and report.inconclusive == [], seed


def test_naming_registers_grows_no_det2rev_output(det2rev_sources):
    """Against the same chain without the renaming, no output of seeds
    0-29 grows, and the corpus goes from 32,082 / 87,982 to 25,095 /
    69,169 states / transitions."""
    sizes = collections.Counter()
    for seed, source in enumerate(det2rev_sources):
        sst = two_way_to_sst(source)
        out = sst_to_reversible(sst)
        unnamed = composed_stages(merge_equal_states(drop_dead_registers(sst)))
        assert len(out.states) <= len(unnamed.states), seed
        assert len(out.transitions) <= len(unnamed.transitions), seed
        sizes.update(
            states=len(out.states), transitions=len(out.transitions),
            unnamed_states=len(unnamed.states), unnamed_transitions=len(unnamed.transitions),
        )
    assert (sizes["unnamed_states"], sizes["unnamed_transitions"]) == (32082, 87982)
    assert (sizes["states"], sizes["transitions"]) == (25095, 69169)


# --- one structural validation per public call -------------------------------------


@pytest.fixture
def validations(monkeypatch):
    """Calls of each kind's structural validator, counted by kind name
    through ``machines._KINDS``, which ``machines.require`` reads."""
    calls = collections.Counter()

    def counting(name, validate):
        def counted(machine):
            calls[name] += 1
            return validate(machine)

        return counted

    monkeypatch.setattr(
        machines,
        "_KINDS",
        {kind: (words, counting(kind.__name__, validate))
         for kind, (words, validate) in machines._KINDS.items()},
    )
    return calls


@pytest.fixture(scope="module")
def stage_inputs():
    """An input of each stage of det2rev seed 7, by name."""
    source = generate_two_way(7, 7, 1, 2, alphabet_size=3, density=1.0)
    sst = two_way_to_sst(source)
    stream = sst_to_substitution_stream(sst)
    return {
        "source": source,
        "sst": sst,
        "stream": stream,
        "reversible": one_way_to_reversible(stream),
        "walker": build_register_walker(sst),
    }


# Each construction, the stage inputs it takes and the kind it checks.
CHECKED = [
    (dbt_to_rbt, ("source",), "TwoWayParityTransducer"),
    (two_way_to_sst, ("source",), "TwoWayParityTransducer"),
    (sst_to_reversible, ("sst",), "CopylessParitySST"),
    (drop_dead_registers, ("sst",), "CopylessParitySST"),
    (name_registers_by_use, ("sst",), "CopylessParitySST"),
    (merge_equal_states, ("sst",), "CopylessParitySST"),
    (sst_to_substitution_stream, ("sst",), "CopylessParitySST"),
    (build_register_walker, ("sst",), "CopylessParitySST"),
    (one_way_to_reversible, ("stream",), "TwoWayParityTransducer"),
    (compose_reachable, ("reversible", "walker"), "TwoWayParityTransducer"),
]


@pytest.mark.parametrize(
    "construction, inputs, kind", CHECKED, ids=[case[0].__name__ for case in CHECKED]
)
def test_each_public_call_validates_each_input_once(validations, stage_inputs, construction, inputs, kind):
    """The chains (``dbt_to_rbt``, ``sst_to_reversible``) check their input
    once and build the rest unchecked; every construction checks each
    machine it is given, once."""
    construction(*(stage_inputs[name] for name in inputs))
    assert validations == {kind: len(inputs)}
