import pytest

from omegatrans.lasso import enumerate_lassos
from builtin import (
    a_in_first_two_automaton,
    finitely_many_a_identity,
    identity_transducer,
    map_copy_reverse_rbt,
    map_copy_reverse_sst,
)


@pytest.fixture(scope="session")
def mcr_rbt():
    return map_copy_reverse_rbt()


@pytest.fixture(scope="session")
def mcr_sst():
    return map_copy_reverse_sst()


@pytest.fixture(scope="session")
def first_two_automaton():
    return a_in_first_two_automaton()


@pytest.fixture(scope="session")
def finitely_many_a():
    return finitely_many_a_identity()


@pytest.fixture(scope="session")
def identity_ab():
    return identity_transducer("ab")


@pytest.fixture(scope="session")
def lassos_ab():
    return enumerate_lassos(("a", "b"), 2, 3)


@pytest.fixture(scope="session")
def lassos_ab_hash():
    return enumerate_lassos(("a", "b", "#"), 2, 3)
