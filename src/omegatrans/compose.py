"""Product composition of reversible two-way transducers.

The composed machine drives the first machine to feed a simulation of the
second: when the second machine moves forward over its input (the first
machine's production), the first machine is simulated forward; when it
moves backward, the first machine's run is rewound co-deterministically.
Each composed transition consumes one transition of the first machine and
runs the second machine across that transition's finite production.
``compose_reachable`` builds only the pairs reachable from the initial
pair; the full |Q|·|P| product is only the tests' reference
(``full_product`` in ``tests/support.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .machines import (
    LEFT_END,
    State,
    TwoWayParityTransducer,
    advance,
    collector_paused,
    drop_left_end_into_initial,
    materialize,
    odd_sentinels,
    require,
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


def compose_reachable(
    first: TwoWayParityTransducer, second: TwoWayParityTransducer
) -> TwoWayParityTransducer:
    """Composition running ``first`` and piping its output into ``second``,
    over the pairs reachable from the initial pair.

    Both machines must be reversible and second's input alphabet must match
    first's output alphabet.  The result has k1 + k2 colorings, is itself
    reversible, and has at most |Q|·|P| states.  Its states are the pairs
    in the order a breadth-first walk from the initial pair first reaches
    them, letters in alphabet order and then the endmarker, named by
    ``unique_names`` over their "q.p" names in that order; ``ell`` is one
    above the largest color the built transitions use.

    Each distinct production word of the first machine is numbered once,
    and the second machine runs across a word once per (second state,
    word): pairs sharing both share that run.
    """
    for machine in (first, second):
        require(machine, TwoWayParityTransducer, "composition")
    if set(first.output_alphabet) != set(second.input_alphabet):
        raise AlphabetMismatch(
            "first machine's output alphabet must equal second machine's input alphabet"
        )
    if not validate_reversible(first):
        raise NotReversible("first machine is not reversible")
    if not validate_reversible(second):
        raise NotReversible("second machine is not reversible")
    return _compose_reachable(first, second)


@collector_paused
def _compose_reachable(
    first: TwoWayParityTransducer, second: TwoWayParityTransducer
) -> TwoWayParityTransducer:
    """``compose_reachable`` without its input checks."""
    first = drop_left_end_into_initial(first)
    second = drop_left_end_into_initial(second)

    second_sentinels = odd_sentinels(second)
    first_index = {q: i for i, q in enumerate(first.states)}
    second_index = {p: j for j, p in enumerate(second.states)}
    width = len(second.states)
    initial = first_index[first.initial]
    second_forward = [p.forward for p in second.states]

    # The first machine's moves from each first state q, as (letter, word
    # id, colors, q after the move if the second machine leaves the word
    # forward, q if it leaves backward).  A forward second state follows
    # the transitions out of q; a backward one rewinds the transition into
    # q, unique by co-determinism.  Only backward pairs (q and the second
    # state of opposite polarity) read the endmarker.
    words: dict[tuple, int] = {}
    out_of: list[dict] = [{} for _ in first.states]
    into: list[dict] = [{} for _ in first.states]
    for (src, a), tr in first.transitions.items():
        word = words.setdefault(tr.output, len(words))
        s, t = first_index[src], first_index[tr.target]
        out_of[s][a] = into[t][a] = (a, word, tr.colors, t, s)
    # A fully rewound first machine leaves the second one reading its own
    # (virtual) endmarker at the start of the production stream: the first
    # machine stays put while the second runs across the word LEFT_END.
    word = words.setdefault((LEFT_END,), len(words))
    into[initial][LEFT_END] = (LEFT_END, word, odd_sentinels(first), initial, initial)
    letters = tuple(first.input_alphabet) + (LEFT_END,)
    steps = [  # per first state, indexed by the second state's polarity
        (
            [into[i][a] for a in letters if a in into[i] and (a != LEFT_END or q.forward)],
            [out_of[i][a] for a in letters if a in out_of[i] and (a != LEFT_END or not q.forward)],
        )
        for i, q in enumerate(first.states)
    ]
    word_list = list(words)
    n_words = len(word_list)

    # Run key (second state, word id) -> (exit state, its polarity,
    # production, minimum colors), or None when the run loops or sticks.
    runs: dict[int, Optional[tuple]] = {}
    # Pairs in the order they are reached, the initial pair first, and the
    # moves as (source, letter, target, production, colors).
    pairs = [initial * width + second_index[second.initial]]
    number = {pairs[0]: 0}
    edges: list[tuple] = []
    for src, i in enumerate(pairs):
        qi, pj = divmod(i, width)
        for a, word, colors, on_forward, on_backward in steps[qi][second_forward[pj]]:
            key = pj * n_words + word
            if key not in runs:
                summary = run_on_finite(second, word_list[word], second.states[pj], second_sentinels)
                p2 = summary.exit
                runs[key] = (
                    (second_index[p2], p2.forward, summary.production, summary.min_colors)
                    if isinstance(p2, State)
                    else None
                )
            run = runs[key]
            if run is None:
                continue
            # The first machine stands before or after the transition
            # depending on which side of its production the second machine
            # leaves.
            target = (on_forward if run[1] else on_backward) * width + run[0]
            j = number.setdefault(target, len(pairs))
            if j == len(pairs):
                pairs.append(target)
            edges.append((src, a, j, run[2], colors + run[3]))

    states, transitions = materialize(
        (f"{first.states[i // width].name}.{second.states[i % width].name}" for i in pairs),
        (first.states[i // width].forward == second_forward[i % width] for i in pairs),
        edges,
    )
    ell = 1 + max((c for colors in {edge[4] for edge in edges} for c in colors), default=0)
    return TwoWayParityTransducer(
        input_alphabet=first.input_alphabet,
        output_alphabet=second.output_alphabet,
        states=states,
        initial=states[0],
        transitions=transitions,
        k=first.k + second.k,
        ell=ell,
    )

