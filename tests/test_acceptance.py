"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.
"""

import itertools
import time
from dataclasses import replace

import pytest

from omegatrans.buchi import buchi_to_noacc, dbt_to_rbt, marking_from_colors
from omegatrans.compose import compose_reachable
from omegatrans.evaluate import eval_machine, eval_two_way, equiv_on_lassos
from omegatrans.forests import two_way_to_sst
from omegatrans.generate import generate_one_way, generate_two_way
from omegatrans.lasso import LassoWord, enumerate_lassos
from omegatrans.machines import validate_reversible, validate_sst_machine
from omegatrans.oneway import one_way_to_reversible
from builtin import (
    a_in_first_two_automaton,
    finitely_many_a_identity,
    map_copy_reverse_rbt,
)
from support import (
    check_forest_against_runs,
    check_two_stage,
    full_product,
    lasso_equal,
    prune_unreachable,
)


def lw(prefix, period):
    return LassoWord.make(prefix, period)


class Criterion:
    def __init__(self, number, description, limit_seconds):
        self.number = number
        self.description = description
        self.limit = limit_seconds
        self.started = time.monotonic()

    def finish(self, ok):
        elapsed = time.monotonic() - self.started
        verdict = "PASS" if ok and elapsed < self.limit else "FAIL"
        print(f"[criterion {self.number}] {verdict} {self.description} ({elapsed:.2f}s)")
        assert ok, f"criterion {self.number} failed"
        assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"


@pytest.fixture(scope="module")
def reversible_pool():
    """One-way machines made reversible; shared by criteria 3 and 4."""
    pool = []
    for seed in range(200):
        n = 2 + seed % 3  # n <= 4
        k = 1 + seed % 2  # k <= 2
        ell = 2 + seed % 2  # ell <= 3
        machine = generate_one_way(seed, n=n, k=k, ell=ell)
        pool.append((machine, one_way_to_reversible(machine)))
    return pool


@pytest.fixture(scope="module")
def pipeline_pool():
    """End-to-end conversion outputs; shared by criteria 6 and 7."""
    pool = []
    for seed in range(100):
        n = 2 + seed % 2  # n <= 3
        machine = generate_two_way(seed, n=n, k=1, ell=2)
        pool.append((machine, dbt_to_rbt(machine)))
    return pool


def test_criterion_1_map_copy_reverse_golden():
    crit = Criterion(1, "map-copy-reverse golden outputs", 1.0)
    machine = map_copy_reverse_rbt()
    first = eval_two_way(machine, lw("", "ab#"))
    second = eval_two_way(machine, lw("ab#", "a"))
    ok = (
        first.verdict == "accepted"
        and first.output == lw("", "ab#ba#")
        and second.verdict == "accepted"
        and second.output == lw("ab#ba#", "a")
    )
    crit.finish(ok)


# Membership of a-in-first-two-positions over every canonical lasso with
# |prefix| <= 2 and |period| <= 2, frozen from hand simulation.
FIRST_TWO_TABLE = {
    ("", "a"): True,
    ("b", "a"): True,
    ("ab", "a"): True,
    ("bb", "a"): False,
    ("", "b"): False,
    ("a", "b"): True,
    ("aa", "b"): True,
    ("ba", "b"): True,
    ("", "ab"): True,
    ("a", "ab"): True,
    ("aa", "ab"): True,
    ("ba", "ab"): True,
    ("", "ba"): True,
    ("b", "ba"): False,
    ("ab", "ba"): True,
    ("bb", "ba"): False,
}


def test_criterion_2_first_two_membership_table():
    crit = Criterion(2, "first-or-second-position membership table", 1.0)
    machine = a_in_first_two_automaton()
    lassos = enumerate_lassos(("a", "b"), 2, 2)
    ok = {(''.join(w.prefix), ''.join(w.period)) for w in lassos} == set(FIRST_TWO_TABLE)
    for w in lassos:
        expected = FIRST_TWO_TABLE[("".join(w.prefix), "".join(w.period))]
        if eval_two_way(machine, w).automaton_accepts() != expected:
            ok = False
    crit.finish(ok)


def test_criterion_3_one_way_to_reversible_suite(reversible_pool, lassos_ab):
    crit = Criterion(3, "one-way to reversible over 200 seeded machines", 120.0)
    failures = 0
    for seed, (machine, reversible) in enumerate(reversible_pool):
        n = len(machine.states)
        if not validate_reversible(reversible):
            failures += 1
            continue
        if len(reversible.states) > 4 * n * n:
            failures += 1
            continue
        report = equiv_on_lassos(machine, reversible, lassos_ab, require_class=True)
        if not report.ok or report.inconclusive:
            failures += 1
    crit.finish(failures == 0)


def test_criterion_4_composition_suite(reversible_pool, lassos_ab):
    crit = Criterion(4, "composition of 100 seeded reversible pairs", 180.0)
    failures = 0
    inconclusive = 0
    total = 0
    for i in range(100):
        first = reversible_pool[(2 * i) % len(reversible_pool)][1]
        second = reversible_pool[(2 * i + 1) % len(reversible_pool)][1]
        composed = compose_reachable(first, second)
        pruned = prune_unreachable(full_product(first, second))
        if composed != replace(pruned, ell=composed.ell):
            failures += 1
            continue
        if not validate_reversible(composed):
            failures += 1
            continue
        bad, skipped = check_two_stage(first, second, composed, lassos_ab)
        failures += len(bad)
        inconclusive += skipped
        total += len(lassos_ab)
    ok = failures == 0 and inconclusive < 0.05 * total
    print(f"  composition inconclusive rate: {inconclusive}/{total}")
    crit.finish(ok)


def test_criterion_5_two_way_to_sst_suite(lassos_ab):
    crit = Criterion(5, "two-way to register machine over 200 seeded machines", 300.0)
    failures = 0
    for seed in range(200):
        n = 2 + seed % 2  # n <= 3
        ell = 1 + seed % 2  # ell <= 2
        machine = generate_two_way(seed, n=n, k=1, ell=ell)
        details = {}
        sst = two_way_to_sst(machine, details=details)
        if validate_sst_machine(sst):
            failures += 1
            continue
        if details["max_forest_nodes"] > 2 * n - 2 or details["max_forest_edges"] > 2 * n - 2:
            failures += 1
            continue
        for length in range(0, 5):
            for word in itertools.product(machine.input_alphabet, repeat=length):
                if check_forest_against_runs(machine, sst, details, word):
                    failures += 1
        for w in lassos_ab:
            mine = eval_machine(machine, w)
            theirs = eval_machine(sst, w)
            if mine.in_domain() != theirs.in_domain():
                failures += 1
                continue
            if mine.in_domain() and not lasso_equal(mine.output, theirs.output):
                failures += 1
    crit.finish(failures == 0)


def test_criterion_6_pipeline_suite(pipeline_pool, lassos_ab):
    crit = Criterion(6, "deterministic to reversible pipeline over 100 machines", 300.0)
    failures = 0
    inconclusive = 0
    total = 0
    for machine, reversible in pipeline_pool:
        if not validate_reversible(reversible):
            failures += 1
            continue
        report = equiv_on_lassos(machine, reversible, lassos_ab)
        failures += len(report.disagreements)
        inconclusive += len(report.inconclusive)
        total += report.checked
    ok = failures == 0 and inconclusive < 0.05 * total
    print(f"  pipeline inconclusive rate: {inconclusive}/{total}")
    crit.finish(ok)


def test_criterion_7_marked_machine_folding(pipeline_pool, lassos_ab):
    crit = Criterion(7, "marking fold on 50 reversible machines", 60.0)
    failures = 0
    for machine, reversible in pipeline_pool[:50]:
        marking = marking_from_colors(reversible)
        folded = buchi_to_noacc(reversible, marking)
        if len(folded.states) != 3 * len(reversible.states):
            failures += 1
            continue
        if not validate_reversible(folded):
            failures += 1
            continue
        # the source's two-color acceptance is exactly marked recurrence
        report = equiv_on_lassos(folded, reversible, lassos_ab)
        if not report.ok or report.inconclusive:
            failures += 1
    crit.finish(failures == 0)


def test_criterion_8_separation_witness():
    crit = Criterion(8, "finitely-many-a identity witness", 1.0)
    machine = finitely_many_a_identity()
    identity_accepted = [lw("b", "b"), lw("ab", "b")]
    parity_rejected = [lw("", "a"), lw("", "ab")]
    ok = True
    for w in identity_accepted:
        got = eval_two_way(machine, w)
        if got.verdict != "accepted" or got.output is None or not lasso_equal(got.output, w):
            ok = False
    for w in parity_rejected:
        if eval_two_way(machine, w).verdict != "rejected-parity":
            ok = False
    crit.finish(ok)
