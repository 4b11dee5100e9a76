"""Finite representations u·v^ω of ultimately periodic infinite words."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from random import Random
from typing import Hashable, Sequence

Letter = Hashable


@dataclass(frozen=True)
class LassoWord:
    """The infinite word prefix · period · period · ...; period is nonempty."""

    prefix: tuple[Letter, ...]
    period: tuple[Letter, ...]

    def __post_init__(self):
        if not self.period:
            raise ValueError("lasso period must be nonempty")

    @classmethod
    def make(cls, prefix: Sequence[Letter], period: Sequence[Letter]) -> "LassoWord":
        return cls(tuple(prefix), tuple(period))

    def letter(self, position: int) -> Letter:
        if position < 0:
            raise IndexError(f"lasso position must be non-negative, got {position}")
        if position < len(self.prefix):
            return self.prefix[position]
        return self.period[(position - len(self.prefix)) % len(self.period)]

    def unroll(self, length: int) -> tuple[Letter, ...]:
        """The first ``length`` letters (none when ``length <= 0``)."""
        length = max(length, 0)
        reps = -(-(length - len(self.prefix)) // len(self.period))
        return (self.prefix + self.period * reps)[:length]

    def __str__(self) -> str:
        if all(isinstance(x, str) and len(x) == 1 for x in self.prefix + self.period):
            return "".join(self.prefix) + "(" + "".join(self.period) + ")"
        return f"{list(self.prefix)}({list(self.period)})"


def _primitive_root(word: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """Shortest word whose power equals ``word``; ``word`` itself when it
    is primitive."""
    n = len(word)
    for p in range(1, n):
        if n % p == 0 and word[:p] * (n // p) == word:
            return word[:p]
    return word


def canonical(prefix: tuple, period: tuple) -> tuple[tuple, tuple]:
    """The unique minimal (prefix, period) of the word prefix · period^ω,
    whose period must be nonempty.

    The period is reduced to its primitive root, then prefix letters equal
    to the aligned period letter are absorbed by rotating the period.  A
    canonical pair comes back as the same two tuples.
    """
    period = _primitive_root(period)
    while prefix and prefix[-1] == period[-1]:
        prefix = prefix[:-1]
        period = period[-1:] + period[:-1]
    return prefix, period


def lasso_canonicalize(w: LassoWord) -> LassoWord:
    """Unique minimal representation of the same infinite word (see
    ``canonical``).  Idempotent and denotation-preserving; a canonical
    ``w`` is returned as is.
    """
    prefix, period = canonical(w.prefix, w.period)
    if prefix is w.prefix and period is w.period:
        return w
    return LassoWord(prefix, period)


# A lasso's period is nonempty, so an empty alphabet has no lassos.
_NO_LETTERS = "need a nonempty alphabet: every lasso repeats a letter"


def enumerate_lassos(
    alphabet: Sequence[Letter], max_prefix: int, max_period: int
) -> list[LassoWord]:
    """All canonical lassos with bounded prefix and period lengths; raise
    ValueError when there are none.

    Only canonical representations are produced (primitive period, minimal
    prefix), so each ultimately periodic word appears exactly once.
    """
    if max_prefix < 0 or max_period < 1:
        raise ValueError(
            f"need max_prefix >= 0 and max_period >= 1, got {max_prefix} and {max_period}"
        )
    letters = list(alphabet)
    if not letters:
        raise ValueError(_NO_LETTERS)
    result = []
    for plen in range(1, max_period + 1):
        for period in itertools.product(letters, repeat=plen):
            if _primitive_root(period) != period:
                continue
            for ulen in range(0, max_prefix + 1):
                for prefix in itertools.product(letters, repeat=ulen):
                    if prefix and prefix[-1] == period[-1]:
                        continue
                    result.append(LassoWord(prefix, period))
    return result


def random_lassos(
    alphabet: Sequence[Letter],
    count: int,
    rng: Random,
    max_prefix: int = 4,
    max_period: int = 5,
) -> list[LassoWord]:
    """Sample ``count`` distinct canonical lassos; raise ValueError on an
    empty alphabet or, naming how many it found, when 50·count + 100 draws
    find fewer."""
    if count < 1:
        raise ValueError(f"need a positive lasso count, got {count}")
    if not alphabet:
        raise ValueError(_NO_LETTERS)
    found: dict[LassoWord, None] = {}  # an insertion-ordered set
    attempts = 0
    while len(found) < count and attempts < 50 * count + 100:
        attempts += 1
        ulen = rng.randint(0, max_prefix)
        vlen = rng.randint(1, max_period)
        prefix = tuple(rng.choice(alphabet) for _ in range(ulen))
        period = tuple(rng.choice(alphabet) for _ in range(vlen))
        found.setdefault(lasso_canonicalize(LassoWord(prefix, period)))
    if len(found) < count:
        raise ValueError(f"found {len(found)} distinct lassos in {attempts} draws, not {count}")
    return list(found)
