"""The bound functions against the paper's statements, as literal values, so
that the tests calling ``omegatrans.bounds`` do not check it against itself."""

import pytest

from omegatrans.bounds import (
    composition_pairs,
    folded_states,
    forest_edges,
    oracle_steps,
    outline_states,
    registers,
    summaries,
    walker_states,
)
from omegatrans.forests import two_way_to_sst
from omegatrans.generate import generate_two_way


def test_bounds_match_the_statements():
    assert registers(7) == 13
    assert forest_edges(22) == 42
    assert outline_states(5) == 100
    assert walker_states(3) == 6
    assert composition_pairs(36, 44) == 1584
    assert oracle_steps(4, 1, 2) == 44
    assert folded_states(5) == 15


@pytest.mark.parametrize(
    "n,k,ell,bound",
    [(2, 1, 2, 12), (3, 1, 2, 1500), (4, 1, 2, 537824), (3, 0, 1, 375), (1, 1, 2, 1)],
)
def test_summary_bound(n, k, ell, bound):
    value = summaries(n, k, ell)
    assert value == bound
    assert type(value) is int


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_register_machine_has_the_stated_registers(n):
    machine = generate_two_way(n, n, 1, 2)
    assert len(machine.states) == n
    assert len(two_way_to_sst(machine).registers) == registers(n)
