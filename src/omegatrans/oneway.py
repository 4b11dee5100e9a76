"""Turning a one-way deterministic parity transducer into a reversible
two-way one.

The reversible machine drags two synchronized heads along the outline of
the merge tree of all partial runs joining the accepting run: one head
travels above that run, one below.  States pair two tagged copies of the
base state set; a tag records whether the head sits above or below the
state's branch.  Mixed tags move forward, equal tags move backward, and
the machine produces output (and the real colors) exactly on the diagonal
states, where both heads pin the same base state.
"""

from __future__ import annotations

from typing import Optional

from .machines import (
    LEFT_END,
    State,
    Transition,
    TwoWayParityTransducer,
    max_colors,
    require_two_way,
    unique_names,
    validate_deterministic,
    validate_one_way,
)

UNDER = "u"  # head travels above the state
OVER = "o"  # head travels below the state


class NotDeterministic(ValueError):
    pass


def abv(machine: TwoWayParityTransducer, a, q: State) -> Optional[State]:
    """Least state above ``q`` (declaration order) sharing its successor on ``a``."""
    return _nearest(machine, a, q, machine.states)


def _nearest(machine: TwoWayParityTransducer, a, q: State, order) -> Optional[State]:
    """First state after ``q`` in ``order`` sharing its successor on ``a``;
    the reversed declaration order gives the greatest state below ``q``."""
    tr = machine.transitions.get((q, a))
    if tr is None:
        return None
    states = iter(order)
    for q2 in states:
        if q2 == q:
            break
    for q2 in states:
        tr2 = machine.transitions.get((q2, a))
        if tr2 is not None and tr2.target == tr.target:
            return q2
    return None


def one_way_to_reversible(machine: TwoWayParityTransducer) -> TwoWayParityTransducer:
    """Reversible two-way machine computing the same function.

    Only states reachable from the initial pair are emitted; the result has
    at most 4·n² states for n input states and keeps k and the color bound.
    """
    require_two_way(machine, "one_way_to_reversible")
    if not validate_one_way(machine):
        raise NotDeterministic("input must be a one-way machine")
    if not validate_deterministic(machine):
        raise NotDeterministic("input must be deterministic")

    letters = tuple(machine.input_alphabet)
    # Preimages per letter, in declaration order.
    preimage: dict[tuple, list[State]] = {}
    for a in letters:
        for q in machine.states:
            tr = machine.transitions.get((q, a))
            if tr is not None:
                preimage.setdefault((a, tr.target), []).append(q)

    def pre_empty(a, q: State) -> bool:
        if a == LEFT_END:
            # Only the initial state's branch continues into the endmarker.
            return q != machine.initial
        return (a, q) not in preimage

    def pre_min(a, q: State) -> State:
        return preimage[(a, q)][0]

    def pre_max(a, q: State) -> State:
        return preimage[(a, q)][-1]

    global_max = max_colors(machine)
    below = machine.states[::-1]

    def delta(src: tuple, a):
        """Outline successor of ((tag1, p), (tag2, q)) on letter ``a``."""
        (t1, p), (t2, q) = src
        if t1 == UNDER and t2 == OVER:
            p2 = abv(machine, a, p)
            if p2 is not None:
                return ((OVER, p2), (OVER, q))
            q2 = _nearest(machine, a, q, below)
            if q2 is not None:
                return ((UNDER, p), (UNDER, q2))
            trp, trq = machine.transitions.get((p, a)), machine.transitions.get((q, a))
            if trp is None or trq is None:
                return None
            return ((UNDER, trp.target), (OVER, trq.target))
        if t1 == OVER and t2 == UNDER:
            p2 = _nearest(machine, a, p, below)
            if p2 is not None:
                return ((UNDER, p2), (UNDER, q))
            q2 = abv(machine, a, q)
            if q2 is not None:
                return ((OVER, p), (OVER, q2))
            trp, trq = machine.transitions.get((p, a)), machine.transitions.get((q, a))
            if trp is None or trq is None:
                return None
            return ((OVER, trp.target), (UNDER, trq.target))
        if t1 == OVER and t2 == OVER:
            if pre_empty(a, p):
                return ((UNDER, p), (OVER, q))
            if pre_empty(a, q):
                return ((OVER, p), (UNDER, q))
            return ((OVER, pre_min(a, p)), (OVER, pre_min(a, q)))
        # both UNDER
        if pre_empty(a, p):
            return ((OVER, p), (UNDER, q))
        if pre_empty(a, q):
            return ((UNDER, p), (OVER, q))
        return ((UNDER, pre_max(a, p)), (UNDER, pre_max(a, q)))

    def polarity(pair: tuple) -> bool:
        return pair[0][0] != pair[1][0]

    def read_letters(pair: tuple):
        return letters if polarity(pair) else letters + (LEFT_END,)

    initial = ((UNDER, machine.initial), (OVER, machine.initial))
    frontier = [initial]
    seen = {initial}
    discovered = [initial]
    edges: list[tuple[tuple, object, tuple]] = []
    while frontier:
        src = frontier.pop(0)
        for a in read_letters(src):
            tgt = delta(src, a)
            if tgt is None:
                continue
            (x1, b1), (x2, b2) = tgt
            if x1 == x2 and b1 == b2:
                # The heads would land on the same side of the same branch.
                # They sandwich the surviving run, so this only happens once
                # the input is doomed; leaving the transition undefined
                # rejects by sticking.
                continue
            edges.append((src, a, tgt))
            if tgt not in seen:
                seen.add(tgt)
                discovered.append(tgt)
                frontier.append(tgt)

    def pretty(pair: tuple) -> str:
        (t1, p), (t2, q) = pair
        mark = {UNDER: "_", OVER: "^"}
        return f"{mark[t1]}{p.name}.{mark[t2]}{q.name}"

    names = unique_names(pretty(pair) for pair in discovered)
    out_state = {
        pair: State(name, polarity(pair)) for pair, name in zip(discovered, names)
    }

    transitions: dict = {}
    for src, a, tgt in edges:
        (t1, p), (t2, q) = src
        diagonal = t1 == UNDER and t2 == OVER and p == q
        if diagonal:
            base = machine.transitions[(p, a)]
            output, colors = base.output, base.colors
        else:
            output, colors = (), global_max
        transitions[(out_state[src], a)] = Transition(out_state[tgt], output, colors)

    return TwoWayParityTransducer(
        input_alphabet=machine.input_alphabet,
        output_alphabet=machine.output_alphabet,
        states=tuple(out_state[pair] for pair in discovered),
        initial=out_state[initial],
        transitions=transitions,
        k=machine.k,
        ell=machine.ell,
    )
