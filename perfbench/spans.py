"""In-memory spans around the library's public functions.

A ``Tracer`` replaces a function where its callers look it up (a module
attribute) with a wrapper that records a span: name, start, end, parent
span and job.  Spans stay in memory until the run ends.  Nothing here
touches the library's source: removing the wrappers restores the original
attributes exactly.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    job: int  # job index, -1 outside any job


# Called with (args, kwargs, result, tracer) after a wrapped call returns.
Observer = Callable[[tuple, dict, object, "Tracer"], None]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.problems: list[str] = []
        self.job = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.job))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = self.spans[index]._replace(end=self.clock())

    def wrap(
        self,
        module,
        attr: str,
        name: str,
        observe: Optional[Observer] = None,
        details: bool = False,
    ) -> None:
        """Record a span around every call of ``module.attr``.

        With ``details``, a call that passes no ``details`` dict gets a
        fresh one, if the function takes that parameter, so the observer
        can read it from the keyword arguments.  A function the module no
        longer has is skipped: its span is simply absent and its metrics
        read 0.
        """
        original = getattr(module, attr, None)
        if original is None:
            return
        inject_details = details and _accepts(original, "details")

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if inject_details and kwargs.get("details") is None:
                kwargs["details"] = {}
            with self.span(name):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result, self)
            return result

        self._install(module, attr, original, wrapper)

    def count_calls(self, module, attr: str, name: str) -> None:
        """Count calls of ``module.attr`` without a span; for functions
        called too often for a span each."""
        original = getattr(module, attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return original(*args, **kwargs)

        self._install(module, attr, original, wrapper)

    def _install(self, module, attr: str, original, wrapper) -> None:
        self._installed.append((module, attr, original))
        setattr(module, attr, wrapper)

    def remove(self) -> None:
        """Restore every wrapped attribute, last installed first."""
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)


def _accepts(fn, parameter: str) -> bool:
    return parameter in inspect.signature(fn).parameters


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name: each span's duration minus the part of it
    its child spans cover, summed over spans of that name."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    totals: dict[str, float] = {}
    for i, s in enumerate(spans):
        own = (s.end - s.start) - _covered(children.get(i, []), s.start, s.end)
        totals[s.name] = totals.get(s.name, 0.0) + own
    return totals
