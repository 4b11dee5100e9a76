"""Exact evaluation of machines on ultimately periodic words.

Every machine kind runs through one loop, ``_run``, under one step budget:
one-way transducers and register machines are run as two-way machines whose
head only moves right.  The loop has two detectors: an exact configuration
repeat proves the run never reads the whole word, and a guarded shift loop
(same state, positive position shift by a multiple of the period length,
head staying inside the periodic region in between) proves the run
continues forever as shifted copies of one segment.  The transitions of
that segment are exactly those taken infinitely often, which decides parity
acceptance.  One function, ``_evaluate``, turns every run into its verdict;
only the output of an accepting shift loop depends on the kind: a
transducer's segment yields an exact output lasso, and a register machine's
output is decided from the contents of the registers feeding ``out``
across iterations of the segment's update.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from .lasso import LassoWord, canonical, lasso_canonicalize
from .machines import (
    LEFT_END,
    CopylessParitySST,
    State,
    Substitution,
    TwoWayParityTransducer,
    advance,
)

ACCEPTED = "accepted"
ACCEPTED_FINITE = "accepted-finite-output"
REJECTED_PARITY = "rejected-parity"
REJECTED_STUCK = "rejected-stuck"
REJECTED_LOOP = "rejected-loop"
BUDGET_EXCEEDED = "budget-exceeded"
SHIFT_LOOP = "shift-loop"  # a kind of run ``_run`` returns; ``_evaluate`` classifies it


@dataclass(frozen=True, slots=True)
class EvalBudget:
    """``max_steps`` bounds the transitions a run takes, which also bounds
    a transducer's output; ``max_output`` bounds the total length of the
    register contents a register machine's repeat search builds."""

    max_steps: int = 100_000
    max_output: int = 100_000

    def __post_init__(self):
        if self.max_steps <= 0 or self.max_output <= 0:
            raise ValueError("budgets must be positive")


DEFAULT_BUDGET = EvalBudget()


class RunOutcome(NamedTuple):
    """Verdict of evaluating a machine on a lasso.

    Every field is certified.  ``output`` is the exact, canonical output
    lasso of an ``ACCEPTED`` run (``output.unroll(n)`` gives any prefix);
    ``output_prefix`` is the whole finite output of an ``ACCEPTED_FINITE``
    run and empty otherwise; ``min_colors`` are the per-coloring minima
    over the loop of a run that reads the whole word.  A run whose output
    cannot be certified within the budget is ``BUDGET_EXCEEDED``.
    """

    verdict: str
    output: Optional[LassoWord] = None
    output_prefix: tuple[str, ...] = ()
    min_colors: Optional[tuple[int, ...]] = None
    steps: int = 0

    def automaton_accepts(self) -> bool:
        return self.verdict in (ACCEPTED, ACCEPTED_FINITE)

    def in_domain(self) -> bool:
        """Membership in the transducer domain: accepted with infinite output."""
        return self.verdict == ACCEPTED

    def domain_class(self) -> str:
        if self.verdict == ACCEPTED:
            return "inf"
        if self.verdict == ACCEPTED_FINITE:
            return "fin"
        if self.verdict == BUDGET_EXCEEDED:
            return "inconclusive"
        return "reject"


class _RunTable:
    """A machine's states numbered by declaration order; ``rows[i][letter]``
    is the compiled move (target index, head offset, emitted, colors) of
    state ``i``.  A transition is unpacked by position, so ``emitted`` is a
    transducer's output word or a register machine's update, stored as its
    image map (a register left out has the empty image).

    A move is compiled the first time a run takes it: the oracle runs short
    runs on large machines, so compiling every transition up front costs
    more than the runs themselves.  Compiling writes a value fixed by the
    machine, so threads sharing a machine need no lock.
    """

    __slots__ = ("index", "rows", "back", "start")

    def __init__(self, machine):
        states = machine.states
        self.index: dict[State, int] = {s: i for i, s in enumerate(states)}
        self.rows: list[dict] = [{} for _ in states]
        self.back = [0 if s.forward else 1 for s in states]  # 1: reads at position - 1
        self.start = self.index[machine.initial]

    def compile(self, machine, i: int, letter):
        """The move of state ``i`` on ``letter``, or None when undefined."""
        step = advance(machine, machine.states[i], 0, letter)
        if step is None:
            return None
        (target, emitted, colors), offset = step
        if isinstance(emitted, Substitution):
            emitted = dict(emitted.images)
        move = self.rows[i][letter] = (self.index[target], offset, emitted, colors)
        return move


def _run_table(machine) -> _RunTable:
    """The machine's run table, built on first use and kept on the instance
    the way ``functools.cached_property`` keeps a value: machines are
    immutable, and ``dataclasses.replace`` makes a new instance."""
    table = machine.__dict__.get("_run_table")
    if table is None:
        table = machine.__dict__.setdefault("_run_table", _RunTable(machine))
    return table


def _run(machine, word: LassoWord, max_steps: int):
    """Simulate any machine kind on the canonical lasso ``word`` until the
    run is classified or ``max_steps`` transitions ran.

    Returns (kind, trail, moves, loop_start, loop_end): ``trail`` maps each
    configuration to the step that first reached it, in order; ``moves[t]``
    is the compiled move from configuration t to configuration t + 1.  A
    configuration (state index q, position p) is the int p·|Q| + q, so
    ``divmod(config, |Q|)`` gives (p, q).  Two configurations c, c' with
    c ≡ c' (mod |v|·|Q|) hold the same state at positions equal modulo |v|,
    which is the shift-loop key (state, (p − |u|) mod |v|) up to renaming,
    and then c > c' exactly when c is further right.

    On a canonical lasso u·v^ω every run is classified within
    ``bounds.oracle_steps(|Q|, |u|, |v|)`` steps, so a smaller
    ``max_steps`` is the only way to get ``BUDGET_EXCEEDED``:

    1. No configuration repeats, or ``REJECTED_LOOP`` fires.
    2. Between two dips of the read position into the prefix, each new
       rightmost position is reached by a forward state.
    3. Two such arrivals with the same (state, position mod |v|) fire
       ``SHIFT_LOOP``.
    4. So the head never passes |u| + 1 + |Q|·|v|, which leaves
       ``bounds.oracle_steps(|Q|, |u|, |v|)`` configurations to visit.
    """
    table = _run_table(machine)
    rows, back = table.rows, table.back
    prefix, period = word.prefix, word.period
    plen, vlen = len(prefix), len(period)
    width = len(back)  # |Q|
    span = vlen * width
    # A backward initial state at position 0 reads the endmarker, as in
    # ``advance``.
    state, pos = table.start, 0
    read = -back[state]
    trail = {state: 0}
    moves = []
    # Leftmost periodic-region configuration per (state, residue) since the
    # head last dipped below the prefix, reached at step ``trail[config]``;
    # cleared on every dip so the shift-loop guard (head stays in the
    # periodic region) holds by construction.  The start configuration is
    # one when it already reads the periodic region, that is when the
    # prefix is empty.
    anchors: dict[int, int] = {}
    if read >= plen:
        anchors[state % span] = state
    for t in range(1, max_steps + 1):
        if read >= plen:
            letter = period[(read - plen) % vlen]
        else:
            letter = prefix[read] if read >= 0 else LEFT_END
        move = rows[state].get(letter)
        if move is None:
            move = table.compile(machine, state, letter)
            if move is None:
                return REJECTED_STUCK, trail, moves, -1, -1
        moves.append(move)
        state = move[0]
        pos += move[1]
        config = pos * width + state
        first = trail.setdefault(config, t)
        if first != t:
            return REJECTED_LOOP, trail, moves, first, t
        # The loop argument needs every letter read inside the candidate
        # segment to come from the periodic region, and a backward state at
        # position p reads p - 1.
        read = pos - back[state]
        if read < plen:
            anchors.clear()
            continue
        key = config % span
        prev = anchors.get(key, config)
        if config > prev:
            return SHIFT_LOOP, trail, moves, trail[prev], t
        anchors[key] = config
    return BUDGET_EXCEEDED, trail, moves, -1, -1


def _loop_colors(loop: list) -> tuple[int, ...]:
    """Per-coloring minimum color over the moves of a shift loop: the
    minimum among the transitions taken infinitely often."""
    return tuple(map(min, zip(*map(itemgetter(3), loop))))


def _outputs(moves: list) -> tuple[str, ...]:
    """The concatenated output words of ``moves``."""
    return tuple(chain.from_iterable(map(itemgetter(2), moves)))


def _evaluate(machine, w: LassoWord, budget: Optional[EvalBudget], lasso_output) -> RunOutcome:
    """Classify the run of any machine kind on the canonical lasso ``w``
    exactly.

    A shift loop that passes the parity check gets its output from
    ``lasso_output(machine, head, loop, max_output)``, where the moves
    ``loop`` repeat forever after the moves ``head``: the output is
    ``prefix · block^ω`` for the returned ``(prefix, block)``, finite when
    ``block`` is empty, and None means it is not certified within
    ``max_output``.
    """
    budget = budget or DEFAULT_BUDGET
    kind, _, moves, loop_start, loop_end = _run(machine, w, budget.max_steps)
    steps = len(moves)
    if kind != SHIFT_LOOP:
        return RunOutcome(kind, steps=steps)
    loop = moves[loop_start:loop_end]
    mins = _loop_colors(loop)
    if any(m % 2 == 1 for m in mins):
        return RunOutcome(REJECTED_PARITY, min_colors=mins, steps=steps)
    lasso = lasso_output(machine, moves[:loop_start], loop, budget.max_output)
    if lasso is None:
        return RunOutcome(BUDGET_EXCEEDED, steps=steps)
    prefix, block = lasso
    if not block:
        return RunOutcome(ACCEPTED_FINITE, output_prefix=prefix, min_colors=mins, steps=steps)
    output = LassoWord(*canonical(prefix, block))
    return RunOutcome(ACCEPTED, output=output, min_colors=mins, steps=steps)


def _transducer_output(machine, head: list, loop: list, max_output: int):
    """A transducer writes the head moves' output once and the loop's
    output on every iteration."""
    return _outputs(head), _outputs(loop)


def eval_two_way(
    machine: TwoWayParityTransducer, w: LassoWord, budget: Optional[EvalBudget] = None
) -> RunOutcome:
    """Classify the run of a two-way (or one-way) transducer on ``w`` exactly."""
    return _evaluate(machine, lasso_canonicalize(w), budget, _transducer_output)


# ---------------------------------------------------------------------------
# Register machines


def _expand(maps: list, word) -> list:
    """The word ``word`` over letters and registers, read after the updates
    ``maps`` (image maps, earliest first), as a word over letters and the
    registers before the first update: each register is replaced, backward
    through ``maps``, by its image.  A register an update leaves out has
    the empty image."""
    for images in reversed(maps):
        expanded = []
        for token in word:
            if token[0] == "reg":
                expanded += images.get(token[1], ())
            else:
                expanded.append(token)
        word = expanded
    return word


def _register_output(sst: CopylessParitySST, head: list, loop: list, max_output: int):
    """A register machine's output, from the first literal repeat of the
    registers feeding ``out`` across loop iterations; None when their
    contents outgrow ``max_output`` letters first.

    Only ``out`` and the registers feeding it are expanded through the
    loop, and only their contents after the head are computed: the other
    registers never reach the output.  Contents are words of letter tokens,
    so one loop iteration is ``_expand`` over the current contents.
    """
    out = sst.out
    loop_maps = [move[2] for move in loop]
    images = {out: _expand(loop_maps, [("reg", out)])}  # image is out · tail

    # Registers feeding out, closed under the loop's own flow; their
    # contents evolve autonomously, so a literal repeat proves the appended
    # blocks periodic forever.
    feeding: set[str] = set()
    pending = [value for kind, value in images[out][1:] if kind == "reg"]
    while pending:
        r = pending.pop()
        if r not in feeding:
            feeding.add(r)
            if r not in images:
                images[r] = _expand(loop_maps, [("reg", r)])
            pending += (value for kind, value in images[r] if kind == "reg")
    others = tuple(r for r in sst.registers if r in feeding and r != out)
    # Only out and its feeding registers are updated and charged against the
    # budget.  Every register starts empty: the empty map before the head.
    kept = (out, *others)
    start = [{}, *(move[2] for move in head)]
    valuation = {r: tuple(_expand(start, [("reg", r)])) for r in kept}

    # The loop update is copyless and out is read only by itself, so each
    # feeding register is read by exactly one register: the feeding
    # registers form a forest hanging off out's tail.  A register at height
    # h no longer depends on the starting valuation after h + 1 iterations,
    # so the contents are constant from iteration len(others) on and repeat
    # by iteration len(others) + 1.  A machine that is not copyless may
    # miss this bound; it then gets BUDGET_EXCEEDED, never a pass.
    seen_contents: dict[tuple, int] = {tuple(valuation[r] for r in others): 0}
    boundary_outputs = [valuation[out]]
    for it in range(1, len(others) + 2):
        valuation = {r: tuple(_expand([valuation], images[r])) for r in kept}
        boundary_outputs.append(valuation[out])
        key = tuple(valuation[r] for r in others)
        if key in seen_contents:
            prefix = boundary_outputs[seen_contents[key]]
            block = boundary_outputs[it][len(prefix):]
            return tuple(map(itemgetter(1), prefix)), tuple(map(itemgetter(1), block))
        seen_contents[key] = it
        if sum(map(len, valuation.values())) > max_output:
            break
    return None


def eval_sst(
    sst: CopylessParitySST, w: LassoWord, budget: Optional[EvalBudget] = None
) -> RunOutcome:
    """Classify a register machine's run on ``w`` exactly."""
    return _evaluate(sst, lasso_canonicalize(w), budget, _register_output)


# ---------------------------------------------------------------------------
# Equivalence on lasso batches


def eval_machine(machine, w: LassoWord, budget: Optional[EvalBudget] = None) -> RunOutcome:
    """Dispatch on the machine kind."""
    if isinstance(machine, CopylessParitySST):
        return eval_sst(machine, w, budget)
    return eval_two_way(machine, w, budget)


@dataclass
class EquivReport:
    checked: int = 0
    passed: int = 0
    disagreements: list[tuple[LassoWord, str]] = field(default_factory=list)
    inconclusive: list[tuple[LassoWord, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def summary(self) -> str:
        return (
            f"checked={self.checked} passed={self.passed} "
            f"disagreements={len(self.disagreements)} inconclusive={len(self.inconclusive)}"
        )


def equiv_on_lassos(
    m1,
    m2,
    lassos: Iterable[LassoWord],
    budget: Optional[EvalBudget] = None,
    require_class: bool = False,
) -> EquivReport:
    """Compare the two machines' domains and outputs on each lasso.

    The domain is the transducer domain (accepted with infinite output);
    machines agreeing there must produce equal outputs.  With
    ``require_class`` the finer verdict class must match too, i.e. accepted
    runs with finite output may not become rejections; meaningful between
    machines sharing an acceptance mechanism, but wrong across a fold that
    trades the acceptance condition for output finiteness.

    Budget exhaustion on either side marks the lasso inconclusive, never a
    pass.  Every other outcome is exact and every output lasso canonical,
    so outputs in the domain are equal exactly when their lassos are.
    """
    rule1, rule2 = (
        _register_output if isinstance(m, CopylessParitySST) else _transducer_output
        for m in (m1, m2)
    )
    report = EquivReport()
    for w in lassos:
        report.checked += 1
        canonical_w = lasso_canonicalize(w)
        o1 = _evaluate(m1, canonical_w, budget, rule1)
        o2 = _evaluate(m2, canonical_w, budget, rule2)
        c1, c2 = o1.domain_class(), o2.domain_class()
        if "inconclusive" in (c1, c2):
            report.inconclusive.append((w, "budget exceeded"))
            continue
        if (c1 == "inf") != (c2 == "inf"):
            report.disagreements.append((w, f"domains differ: {c1} vs {c2}"))
            continue
        if require_class and c1 != c2:
            report.disagreements.append((w, f"verdict classes differ: {c1} vs {c2}"))
            continue
        if c1 == "inf" and o1.output != o2.output:
            report.disagreements.append((w, f"outputs differ: {o1.output} vs {o2.output}"))
        else:
            report.passed += 1
    return report
