"""Turning a one-way deterministic parity transducer into a reversible
two-way one.

The reversible machine drags two synchronized heads along the outline of
the merge tree of all partial runs joining the accepting run: one head
travels above that run, one below.  States pair two tagged copies of the
base state set; a tag records whether the head sits above or below the
state's branch.  Mixed tags move forward, equal tags move backward, and
the machine produces output (and the real colors) exactly on the diagonal
states, where both heads pin the same base state.  The outline is not
walked on its own: ``machines.walk_takeable`` asks for the outline steps a
run can take, and only those become states and transitions.
"""

from __future__ import annotations

from typing import Optional

from .machines import (
    LEFT_END,
    TwoWayParityTransducer,
    WrongMachineKind,
    collector_paused,
    materialize,
    max_colors,
    require,
    validate_one_way,
    walk_takeable,
)

UNDER = "u"  # head travels above the state
OVER = "o"  # head travels below the state


def _outline_step(src: tuple, row) -> Optional[tuple]:
    """Outline successor of (tag1, p, tag2, q) on the letter of ``row``, a
    letter table of ``one_way_to_reversible``."""
    t1, p, t2, q = src
    _, _, succ, above, below, least, greatest = row
    if t1 != t2:
        # Mixed tags: (OVER, UNDER) mirrors (UNDER, OVER) with above and
        # below swapped.
        near, far = (above, below) if t1 == UNDER else (below, above)
        if near[p] >= 0:
            return (t2, near[p], t2, q)
        if far[q] >= 0:
            return (t1, p, t1, far[q])
        if succ[p] < 0 or succ[q] < 0:
            return None
        return (t1, succ[p], t2, succ[q])
    # Equal tags rewind both heads, to the least preimage under OVER tags
    # and to the greatest under UNDER tags, unless a head's branch starts
    # here.
    flip = UNDER if t1 == OVER else OVER
    ends = least if t1 == OVER else greatest
    if ends[p] < 0:
        return (flip, p, t1, q)
    if ends[q] < 0:
        return (t1, p, flip, q)
    return (t1, ends[p], t1, ends[q])


def one_way_to_reversible(machine: TwoWayParityTransducer) -> TwoWayParityTransducer:
    """Reversible two-way machine computing the same function.

    One walk builds the result: ``walk_takeable`` asks for each (pair,
    letter) move some run can take, pairs are numbered as the walk finds
    them, and no other move is built.  The result has at most 4·n² states
    for n input states and keeps k and the color bound.
    """
    require(machine, TwoWayParityTransducer, "one_way_to_reversible")
    if not validate_one_way(machine):
        raise WrongMachineKind("input must be a one-way machine")
    return _one_way_to_reversible(machine)


@collector_paused
def _one_way_to_reversible(machine: TwoWayParityTransducer) -> TwoWayParityTransducer:
    """``one_way_to_reversible`` without its input checks."""
    # Base states are numbered by declaration order; -1 stands for none.
    states = machine.states
    n = len(states)
    index = {q: i for i, q in enumerate(states)}
    initial = index[machine.initial]
    # One row per letter: (letter, transitions, successor, next above, next
    # below, least preimage, greatest preimage), each indexed by state.
    rows = []
    for a in machine.input_alphabet:
        base = [machine.transitions.get((q, a)) for q in states]
        succ = [-1 if tr is None else index[tr.target] for tr in base]
        # Preimages per target, in declaration order.  Within a preimage,
        # the next state is the nearest above and the previous one the
        # nearest below sharing the successor.
        preimage: list[list[int]] = [[] for _ in states]
        for p, t in enumerate(succ):
            if t >= 0:
                preimage[t].append(p)
        above, below = [-1] * n, [-1] * n
        for group in preimage:
            for lo, hi in zip(group, group[1:]):
                above[lo], below[hi] = hi, lo
        least = [group[0] if group else -1 for group in preimage]
        greatest = [group[-1] if group else -1 for group in preimage]
        rows.append((a, base, succ, above, below, least, greatest))
    # Only the initial state's branch continues into the endmarker.  Equal
    # tags never pin one branch, so at most one head stands on it and its
    # preimage is never followed.
    stop = [-1] * n
    stop[initial] = initial
    rows.append((LEFT_END, None, None, None, None, stop, stop))  # by letter code

    pairs = [(UNDER, initial, OVER, initial)]
    number = {pairs[0]: 0}
    edges: list[tuple] = []
    global_max = max_colors(machine)

    def move(i: int, c: int) -> Optional[tuple[int, bool]]:
        t1, p, t2, q = src = pairs[i]
        row = rows[c]
        tgt = _outline_step(src, row)
        if tgt is None:
            return None
        x1, b1, x2, b2 = tgt
        if x1 == x2 and b1 == b2:
            # The heads would land on the same side of the same branch.
            # They sandwich the surviving run, so this only happens once
            # the input is doomed; leaving the transition undefined
            # rejects by sticking.
            return None
        j = number.setdefault(tgt, len(pairs))
        if j == len(pairs):
            pairs.append(tgt)
        # Only diagonal states, where both heads pin one base state,
        # produce output and the real colors.
        diagonal = t1 == UNDER and t2 == OVER and p == q
        emit = (row[1][p].output, row[1][p].colors) if diagonal else ((), global_max)
        edges.append((i, row[0], j, *emit))
        return j, x1 != x2

    walk_takeable(len(machine.input_alphabet), move)

    mark = {UNDER: "_", OVER: "^"}
    out_states, transitions = materialize(
        (f"{mark[t1]}{states[p].name}.{mark[t2]}{states[q].name}" for t1, p, t2, q in pairs),
        (t1 != t2 for t1, _, t2, _ in pairs),
        edges,
    )
    return TwoWayParityTransducer(
        input_alphabet=machine.input_alphabet,
        output_alphabet=machine.output_alphabet,
        states=out_states,
        initial=out_states[0],
        transitions=transitions,
        k=machine.k,
        ell=machine.ell,
    )
