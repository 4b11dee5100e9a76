import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegatrans.lasso import (
    LassoWord,
    enumerate_lassos,
    lasso_canonicalize,
    random_lassos,
)
from support import lasso_equal


def lw(prefix, period):
    return LassoWord.make(prefix, period)


def test_period_must_be_nonempty():
    with pytest.raises(ValueError):
        LassoWord.make("ab", "")


@pytest.mark.parametrize(
    "raw, expected",
    [
        (("ab", "abab"), ("", "ab")),
        (("a", "ba"), ("", "ab")),
        (("", "a"), ("", "a")),
        (("abc", "c"), ("ab", "c")),
        (("x", "yy"), ("x", "y")),
    ],
)
def test_canonicalize_examples(raw, expected):
    assert lasso_canonicalize(lw(*raw)) == lw(*expected)


def test_equal_examples():
    assert lasso_equal(lw("a", "ba"), lw("ab", "ab"))
    assert not lasso_equal(lw("", "ab"), lw("", "ba"))


words = st.text(alphabet="ab", max_size=6)
periods = st.text(alphabet="ab", min_size=1, max_size=6)


@given(prefix=words, period=periods)
def test_canonicalize_idempotent(prefix, period):
    once = lasso_canonicalize(lw(prefix, period))
    assert lasso_canonicalize(once) == once


@given(prefix=words, period=periods)
def test_canonicalize_preserves_denotation(prefix, period):
    w = lw(prefix, period)
    c = lasso_canonicalize(w)
    n = 4 * (len(prefix) + len(period))
    assert w.unroll(n) == c.unroll(n)


@given(p1=words, v1=periods, p2=words, v2=periods)
@settings(max_examples=200)
def test_equal_matches_unrolling(p1, v1, p2, v2):
    import math

    w1, w2 = lw(p1, v1), lw(p2, v2)
    n = len(p1) + len(p2) + 2 * math.lcm(len(v1), len(v2))
    assert lasso_equal(w1, w2) == (w1.unroll(n) == w2.unroll(n))


@given(prefix=words, period=periods)
def test_equal_under_canonicalization(prefix, period):
    w = lw(prefix, period)
    assert lasso_equal(w, lasso_canonicalize(w))


def test_equal_is_equivalence_on_chained_triples():
    triples = [
        (lw("a", "ba"), lw("ab", "ab"), lw("aba", "ba")),
        (lw("", "ab"), lw("ab", "ab"), lw("abab", "ab")),
    ]
    for x, y, z in triples:
        assert lasso_equal(x, x)
        assert lasso_equal(x, y) == lasso_equal(y, x)
        assert lasso_equal(x, y) and lasso_equal(y, z) and lasso_equal(x, z)


def test_enumerate_lassos_canonical_and_distinct():
    lassos = enumerate_lassos(("a", "b"), 2, 2)
    assert len(lassos) == len(set(lassos))
    for w in lassos:
        assert lasso_canonicalize(w) is w
    unrollings = {w.unroll(12) for w in lassos}
    assert len(unrollings) == len(lassos)


@given(st.text("ab", min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_primitive_root_is_the_shortest_rotation_period(word):
    """A word is a power of its prefix of length p exactly when rotating
    it by p gives it back; the root takes the smallest such p."""
    from omegatrans.lasso import _primitive_root

    word = tuple(word)
    p = next(p for p in range(1, len(word) + 1) if word[p:] + word[:p] == word)
    assert _primitive_root(word) == word[:p]


def test_enumerate_lassos_bounds():
    for w in enumerate_lassos(("a", "b"), 2, 3):
        assert len(w.prefix) <= 2 and 1 <= len(w.period) <= 3


def test_random_lassos_reproducible():
    from random import Random

    a = random_lassos(("a", "b"), 20, Random(5))
    b = random_lassos(("a", "b"), 20, Random(5))
    assert a == b
    assert all(lasso_canonicalize(w) == w for w in a)


def test_letter_indexing():
    w = lw("ab", "cd")
    assert [w.letter(i) for i in range(6)] == list("abcdcd")


@pytest.mark.parametrize("position", [-1, -3])
def test_letter_rejects_negative_positions(position):
    with pytest.raises(IndexError):
        lw("ab", "c").letter(position)


@pytest.mark.parametrize(
    "alphabet, max_prefix, max_period",
    [(("a", "b"), 0, 0), (("a", "b"), -2, -1), (("a", "b"), -1, 2), (("a", "b"), 3, 0), ((), 2, 3)],
    ids=["0-0", "-2--1", "-1-2", "3-0", "no letters"],
)
def test_enumerate_lassos_rejects_an_empty_batch(alphabet, max_prefix, max_period):
    with pytest.raises(ValueError):
        enumerate_lassos(alphabet, max_prefix, max_period)


def test_enumerate_lassos_smallest_batch():
    assert enumerate_lassos(("a", "b"), 0, 1) == [lw("", "a"), lw("", "b")]


@pytest.mark.parametrize(
    "alphabet, count", [(("a", "b"), 0), (("a", "b"), -5), ((), 5)], ids=["0", "-5", "no letters"]
)
def test_random_lassos_rejects_an_empty_batch(alphabet, count):
    from random import Random

    with pytest.raises(ValueError):
        random_lassos(alphabet, count, Random(1))


@pytest.mark.parametrize("alphabet, count, found", [(("a", "b"), 1000, 827), (("a",), 5, 1)])
def test_random_lassos_rejects_a_shortfall(alphabet, count, found):
    from random import Random

    with pytest.raises(ValueError, match=f"found {found} distinct lassos in .* draws, not {count}"):
        random_lassos(alphabet, count, Random(1))


def test_unroll_matches_letter_by_letter():
    for w in enumerate_lassos(("a", "b"), 3, 4):
        for n in range(-1, 3 * (len(w.prefix) + len(w.period)) + 1):
            assert w.unroll(n) == tuple(w.letter(i) for i in range(n))
