"""Cross-cutting randomized checks: wider alphabets and chained compositions."""

import pytest

from omegatrans.compose import compose_reachable
from omegatrans.evaluate import equiv_on_lassos
from omegatrans.forests import two_way_to_sst
from omegatrans.generate import generate_one_way, generate_sst, generate_two_way
from omegatrans.lasso import enumerate_lassos
from omegatrans.machines import validate_reversible, validate_sst_machine
from omegatrans.oneway import one_way_to_reversible
from omegatrans.sst2rev import sst_to_reversible
from support import check_two_stage


@pytest.fixture(scope="module")
def lassos_abc():
    return enumerate_lassos(("a", "b", "c"), 2, 2)


def test_one_way_conversion_three_letters(lassos_abc):
    for seed in range(30):
        machine = generate_one_way(seed, n=3, k=2, ell=3, alphabet_size=3)
        rev = one_way_to_reversible(machine)
        assert validate_reversible(rev), seed
        report = equiv_on_lassos(machine, rev, lassos_abc, require_class=True)
        assert report.ok, (seed, report.disagreements[:2])


def test_register_conversion_three_letters(lassos_abc):
    for seed in range(30):
        machine = generate_two_way(seed, n=3, k=1, ell=2, alphabet_size=3)
        sst = two_way_to_sst(machine)
        assert validate_sst_machine(sst) == [], seed
        report = equiv_on_lassos(machine, sst, lassos_abc, require_class=True)
        assert report.ok, (seed, report.disagreements[:2])


def test_reversible_reconstruction_three_letters(lassos_abc):
    for seed in range(20):
        sst = generate_sst(seed, n=2, k=1, ell=2, alphabet_size=3, n_registers=4)
        rev = sst_to_reversible(sst)
        assert validate_reversible(rev), seed
        report = equiv_on_lassos(sst, rev, lassos_abc, require_class=True)
        assert report.ok, (seed, report.disagreements[:2])


def test_composition_association_orders(lassos_ab):
    """Composing three machines in either association order gives the same
    function, and matches staged evaluation."""
    for i in range(10):
        a = one_way_to_reversible(generate_one_way(3 * i, n=3, k=1, ell=2))
        b = one_way_to_reversible(generate_one_way(3 * i + 1, n=3, k=1, ell=2))
        c = one_way_to_reversible(generate_one_way(3 * i + 2, n=3, k=1, ell=2))
        left = compose_reachable(compose_reachable(a, b), c)
        right = compose_reachable(a, compose_reachable(b, c))
        assert validate_reversible(left) and validate_reversible(right), i
        report = equiv_on_lassos(left, right, lassos_ab)
        assert report.ok, (i, report.disagreements[:2])
        failures, _ = check_two_stage(compose_reachable(a, b), c, left, lassos_ab[:20])
        assert failures == [], (i, failures[:2])
