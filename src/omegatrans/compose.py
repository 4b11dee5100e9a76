"""Product composition of reversible two-way transducers.

The composed machine drives the first machine to feed a simulation of the
second: when the second machine moves forward over its input (the first
machine's production), the first machine is simulated forward; when it
moves backward, the first machine's run is rewound co-deterministically.
Each composed transition consumes one transition of the first machine and
runs the second machine across that transition's finite production.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .machines import (
    LEFT_END,
    State,
    Transition,
    TwoWayParityTransducer,
    advance,
    drop_left_end_into_initial,
    odd_sentinels,
    require_two_way,
    unique_names,
    validate_reversible,
)

LOOPING = "looping"
STUCK = "stuck"


class AlphabetMismatch(ValueError):
    pass


class NotReversible(ValueError):
    pass


@dataclass(frozen=True)
class FiniteRunSummary:
    """Result of running a two-way machine across a finite word.

    ``exit`` is the state in which the head leaves the word (forward exits
    right, backward exits left), or LOOPING / STUCK.  ``min_colors`` is the
    per-coloring minimum over the transitions taken; the empty run carries
    the machine's odd sentinel so it can never pose as an accepting
    infinite minimum.
    """

    exit: Union[State, str]
    production: tuple[str, ...] = ()
    min_colors: tuple[int, ...] = ()


def run_on_finite(
    machine: TwoWayParityTransducer,
    word: tuple[str, ...],
    entry: State,
    sentinels: Optional[tuple[int, ...]] = None,
) -> FiniteRunSummary:
    """Maximal run of ``machine`` inside ``word`` from ``entry``.

    A forward entry state walks in at the first letter, a backward one from
    the right end; leaving either end terminates the run.  A word floating
    in the middle of a larger input has no endmarker.  A word starting with
    LEFT_END stands for a prefix of the input: only backward states read the
    endmarker and the head never moves off it, so runs leave it on the right
    only, and forward entries start after it.
    """
    if sentinels is None:
        sentinels = odd_sentinels(machine)
    end = len(word)
    state = entry
    if entry.forward:
        pos = 1 if end and word[0] == LEFT_END else 0
    else:
        pos = end
    production: list[str] = []
    mins = list(sentinels)
    visited = set()
    while True:
        if pos == (end if state.forward else 0):
            return FiniteRunSummary(state, tuple(production), tuple(mins))
        if (state, pos) in visited:
            return FiniteRunSummary(LOOPING)
        visited.add((state, pos))
        step = advance(machine, state, pos, word[pos] if state.forward else word[pos - 1])
        if step is None:
            return FiniteRunSummary(STUCK)
        tr, pos = step
        production.extend(tr.output)
        mins = [min(m, c) for m, c in zip(mins, tr.colors)]
        state = tr.target


def compose(
    first: TwoWayParityTransducer, second: TwoWayParityTransducer
) -> TwoWayParityTransducer:
    """Composition running ``first`` and piping its output into ``second``.

    Both machines must be reversible and second's input alphabet must match
    first's output alphabet.  The result has exactly |Q|·|P| states (junk
    pairs included; ``compose_reachable`` builds only the pairs reachable
    from the initial pair), k1 + k2 colorings, and is itself reversible.
    """
    return _product(first, second, [(q, p) for q in first.states for p in second.states])


def compose_reachable(
    first: TwoWayParityTransducer, second: TwoWayParityTransducer
) -> TwoWayParityTransducer:
    """``compose`` restricted to the pairs reachable from the initial pair.

    States, their names and order, and transitions equal those of
    ``prune_unreachable(compose(first, second))``; ``ell`` is one above the
    largest color the kept transitions use, so it may be smaller.
    """
    return _product(first, second, [(first.initial, second.initial)])


def _product(first, second, seeds) -> TwoWayParityTransducer:
    """The product over the pairs reachable from ``seeds``, explored by
    worklist and emitted in Q×P declaration order under the names the full
    product would give them."""
    for machine in (first, second):
        require_two_way(machine, "composition")
    if set(first.output_alphabet) != set(second.input_alphabet):
        raise AlphabetMismatch(
            "first machine's output alphabet must equal second machine's input alphabet"
        )
    if not validate_reversible(first):
        raise NotReversible("first machine is not reversible")
    if not validate_reversible(second):
        raise NotReversible("second machine is not reversible")
    first = drop_left_end_into_initial(first)
    second = drop_left_end_into_initial(second)

    first_sentinels = odd_sentinels(first)
    second_sentinels = odd_sentinels(second)
    # Co-deterministic predecessor lookup for rewinding the first machine.
    predecessor: dict[tuple[str, State], tuple[State, Transition]] = {}
    for (src, letter), tr in first.transitions.items():
        predecessor[(letter, tr.target)] = (src, tr)

    # A pair is numbered by its position in Q×P declaration order.
    width = len(second.states)
    q_offset = {q: i * width for i, q in enumerate(first.states)}
    p_offset = {p: j for j, p in enumerate(second.states)}
    letters = tuple(first.input_alphabet) + (LEFT_END,)
    moves: dict[int, list] = {q_offset[q] + p_offset[p]: [] for q, p in seeds}
    frontier = list(moves)
    while frontier:
        i = frontier.pop()
        q, p = first.states[i // width], second.states[i % width]
        for a in letters:
            if a == LEFT_END and q.forward == p.forward:
                continue  # the endmarker is read by backward states only
            built = _compose_transition(
                first, second, q, p, a, predecessor, first_sentinels, second_sentinels
            )
            if built is None:
                continue
            (q2, p2), output, colors = built
            target = q_offset[q2] + p_offset[p2]
            moves[i].append((a, target, output, colors))
            if target not in moves:
                moves[target] = []
                frontier.append(target)

    emitted = sorted(moves)
    pair_state: dict[int, State] = {}
    for i, name in zip(emitted, _pair_names(first, second, emitted)):
        q, p = first.states[i // width], second.states[i % width]
        pair_state[i] = State(name, q.forward == p.forward)
    transitions: dict = {}
    for i, src in pair_state.items():
        for a, target, output, colors in moves[i]:
            transitions[(src, a)] = Transition(pair_state[target], output, colors)

    all_colors = [c for tr in transitions.values() for c in tr.colors]
    ell = 1 + max(all_colors) if all_colors else 1
    return TwoWayParityTransducer(
        input_alphabet=first.input_alphabet,
        output_alphabet=second.output_alphabet,
        states=tuple(pair_state.values()),
        initial=pair_state[q_offset[first.initial] + p_offset[second.initial]],
        transitions=transitions,
        k=first.k + second.k,
        ell=ell,
    )


def _pair_names(first, second, pairs: list[int]) -> list[str]:
    """The names ``unique_names`` gives ``pairs`` among all Q×P "q.p" names.

    Two such names coincide only when a machine repeats a state name, or
    when a first-state name cut at one of its dots is another first-state
    name ("a" + "." + "b.c" = "a.b" + "." + "c").  Otherwise every name is
    its own and only the given pairs are formatted.
    """
    q_names = [q.name for q in first.states]
    p_names = [p.name for p in second.states]
    known = set(q_names)
    if (
        len(known) < len(q_names)
        or len(set(p_names)) < len(p_names)
        or any(name[:i] in known for name in q_names for i, c in enumerate(name) if c == ".")
    ):
        names = unique_names(f"{q}.{p}" for q in q_names for p in p_names)
        return [names[i] for i in pairs]
    width = len(p_names)
    return [f"{q_names[i // width]}.{p_names[i % width]}" for i in pairs]


def _compose_transition(
    first, second, q, p, a, predecessor, first_sentinels, second_sentinels
):
    """(target pair, output, colors) of pair (q, p) reading ``a``, or None."""
    if p.forward:
        tr1 = first.transitions.get((q, a))
        if tr1 is None:
            return None
        after, before = tr1.target, q
    elif a == LEFT_END and q == first.initial:
        # The first machine's run is fully rewound; the second machine reads
        # its own (virtual) endmarker at the start of the production stream.
        tr2 = second.transitions.get((p, LEFT_END))
        if tr2 is None:
            return None
        return (q, tr2.target), tr2.output, first_sentinels + tr2.colors
    else:
        # Second machine walks backward: consume the production of the first
        # machine's transition arriving at q, found co-deterministically.
        pred = predecessor.get((a, q))
        if pred is None:
            return None
        (before, tr1), after = pred, q
    # The first machine stands before or after tr1 depending on which side
    # of its production the second machine leaves.
    summary = run_on_finite(second, tr1.output, p, second_sentinels)
    if not isinstance(summary.exit, State):
        return None
    p2 = summary.exit
    target = (after if p2.forward else before, p2)
    return target, summary.production, tr1.colors + summary.min_colors
