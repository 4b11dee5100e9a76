"""Product composition of reversible two-way transducers.

The composed machine drives the first machine to feed a simulation of the
second: when the second machine moves forward over its input (the first
machine's production), the first machine is simulated forward; when it
moves backward, the first machine's run is rewound co-deterministically.
Each composed transition consumes one transition of the first machine and
runs the second machine across that transition's finite production.
``compose_reachable`` builds only the pairs and moves a run can reach: it
walks from the initial pair carrying, per pair, the letters that can
stand just right of the head, and builds a move only when one of them
lets a run read its letter.  The full |Q|·|P| product is only the tests'
reference (``full_product`` in ``tests/support.py``).
"""

from __future__ import annotations

from collections import deque
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
    over the pairs and moves a run can reach.

    Both machines must be reversible and second's input alphabet must match
    first's output alphabet.  The result has k1 + k2 colorings, is itself
    reversible, and has at most ``bounds.composition_pairs(|Q|, |P|)``
    states.  Only the moves a walk with one letter of window right of the
    head asks for are built (see ``_compose_reachable``): a subset of the
    pairs reachable in the product graph, and every move a run takes.  Its
    states are the pairs in the order that walk first finds them, letters
    in alphabet order and then the endmarker, named by ``unique_names``
    over their "q.p" names in that order; ``ell`` is one above the largest
    color the built transitions use.

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

    # The first machine's moves from each first state q, as (letter code,
    # letter, word id, colors, q after the move if the second machine
    # leaves the word forward, q if it leaves backward).  Letter codes are
    # positions in the alphabet, the endmarker last.  A forward second
    # state follows the transitions out of q; a backward one rewinds the
    # transition into q, unique by co-determinism.  Only backward pairs (q
    # and the second state of opposite polarity) read the endmarker.
    letters = (*first.input_alphabet, LEFT_END)
    code = {a: c for c, a in enumerate(letters)}
    words: dict[tuple, int] = {}
    out_of: list[dict] = [{} for _ in first.states]
    into: list[dict] = [{} for _ in first.states]
    for (src, a), tr in first.transitions.items():
        word = words.setdefault(tr.output, len(words))
        s, t = first_index[src], first_index[tr.target]
        out_of[s][a] = into[t][a] = (code[a], a, word, tr.colors, t, s)
    # A fully rewound first machine leaves the second one reading its own
    # (virtual) endmarker at the start of the production stream: the first
    # machine stays put while the second runs across the word LEFT_END.
    word = words.setdefault((LEFT_END,), len(words))
    into[initial][LEFT_END] = (
        code[LEFT_END], LEFT_END, word, odd_sentinels(first), initial, initial
    )
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

    # The walk: each pair carries a bitmask of the letters that can stand
    # just right of the head while a run is in it, bit c for letter code c
    # and bit sigma for a letter not read yet.  A forward pair reads only
    # those letters (every letter once one is unknown); a backward pair
    # reads every letter and the endmarker.  A step right makes the letter
    # unknown, a forward turn or a step left leaves the letter just read
    # there, and a backward turn or an endmarker move keeps the source's
    # letters: such targets are the source's heirs and get each letter it
    # gains later.  This is ``walk_takeable``'s right-hand window at width
    # one.  On the det2rev corpus (generate_two_way seeds 0-29, n=7,
    # |Σ|=3) it keeps 23,756 of the 25,095 pairs reachable in the product
    # graph; the left half of a W=2 window keeps 25,086, a right-hand
    # window of width two 22,608 at twice the cost, and the full W=2
    # window 22,481.  Pairs are numbered in the order the walk finds them,
    # and each (pair, letter) move is built at most once.
    sigma = len(first.input_alphabet)
    unknown = 1 << sigma
    every = unknown - 1
    first_forward = [q.forward for q in first.states]
    pairs = [initial * width + second_index[second.initial]]
    number = {pairs[0]: 0}
    forward = [True]  # by pair: its polarity
    carried = [unknown]  # by pair: the letters a run can have right of the head
    pending = [unknown]  # by pair: letters carried but not walked from yet
    read = [0]  # by forward pair: the letters whose moves are built
    heirs: list[Optional[list]] = [None]  # by backward pair, once walked
    edges: list[tuple] = []  # (source, letter, target, production, colors)
    queue = deque([0])

    def give(j: int, mask: int) -> None:
        """Let pair j carry the letters in ``mask`` too; queue it for the
        ones it did not carry."""
        extra = mask & ~carried[j]
        if extra:
            carried[j] |= extra
            if not pending[j]:
                queue.append(j)
            pending[j] |= extra

    while queue:
        src = queue.popleft()
        new = pending[src]
        pending[src] = 0
        ahead = forward[src]
        if ahead:
            fresh = (every if new & unknown else new) & ~read[src]
            read[src] |= fresh
        elif heirs[src] is None:
            fresh = every | unknown
            heirs[src] = []
        else:
            fresh = 0
        qi, pj = divmod(pairs[src], width)
        options = steps[qi][second_forward[pj]] if fresh else ()
        for c, a, word, colors, on_forward, on_backward in options:
            if not fresh >> c & 1:
                continue
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
            q2 = on_forward if run[1] else on_backward
            target = q2 * width + run[0]
            j = number.setdefault(target, len(pairs))
            if j == len(pairs):
                pairs.append(target)
                forward.append(first_forward[q2] == run[1])
                carried.append(0)
                pending.append(0)
                read.append(0)
                heirs.append(None)
            edges.append((src, a, j, run[2], colors + run[3]))
            if ahead:
                give(j, unknown if forward[j] else 1 << c)
            elif forward[j] or c == sigma:
                heirs[src].append(j)
            else:
                give(j, 1 << c)
        if not ahead:
            for j in heirs[src]:
                give(j, new)

    states, transitions = materialize(
        (f"{first.states[i // width].name}.{second.states[i % width].name}" for i in pairs),
        forward,
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

