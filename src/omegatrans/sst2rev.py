"""From copyless register machines back to reversible two-way transducers.

Two machines in series do the job: a one-way transducer that re-emits each
input letter as the whole substitution it triggers, and a reversible walker
over that substitution stream which reconstructs the out register's content
by following where register contents flow.  Making the first machine
reversible and composing yields the result.  Both machines are built from
the register machine after three passes that keep its function: register
updates whose contents never reach ``out`` are dropped
(``drop_dead_registers``), each state's registers are renamed by where its
moves put them (``name_registers_by_use``), so that states differing only
by a register permutation take equal updates and the walker's register
states line up across the stream, and then equal states are merged
(``merge_equal_states``).  The stream declares its states in median order
(see ``sst_to_substitution_stream``), which sizes the outline
``one_way_to_reversible`` follows.

Each public construction checks its input with ``require`` and calls its
unchecked body ``_name``; ``sst_to_reversible`` checks its register machine
once and chains the bodies, since every stage builds a valid machine.
"""

from __future__ import annotations

from dataclasses import replace

from .compose import _compose_reachable
from .machines import (
    LEFT_END,
    CopylessParitySST,
    State,
    Substitution,
    Transition,
    TwoWayParityTransducer,
    collector_paused,
    require,
)
from .oneway import _one_way_to_reversible


def drop_dead_registers(sst: CopylessParitySST) -> CopylessParitySST:
    """Empty the image of every register whose contents never reach out.

    A register is live at a state when some path from there moves its
    contents into ``out``: ``out`` is live everywhere, and x is live at the
    source of a transition whose update puts x into the image of a register
    live at the target.  Each update then maps the registers dead at its
    target to the empty word.  Updates stay copyless and keep the out
    discipline, and the function is unchanged.

    Liveness spreads backward from ``out`` in one worklist pass: each
    (state, register) pair found live is popped once, and reads the
    registers that the images of that register, on the transitions into
    the state, consume.  An update with no non-empty dead image is kept.
    """
    require(sst, CopylessParitySST, "drop_dead_registers")
    return _drop_dead_registers(sst)


@collector_paused
def _drop_dead_registers(sst: CopylessParitySST) -> CopylessParitySST:
    """``drop_dead_registers`` without its input check."""
    # Each move's non-empty images, as the registers each of them reads.
    reads = {
        key: {r: [v for kind, v in img if kind == "reg"] for r, img in tr.update.images if img}
        for key, tr in sst.transitions.items()
    }
    into: dict = {s: [] for s in sst.states}  # target -> [(source, reads of the move)]
    for key, tr in sst.transitions.items():
        into[tr.target].append((key[0], reads[key]))
    live = {s: {sst.out} for s in sst.states}
    work = [(s, sst.out) for s in sst.states]
    while work:
        target, r = work.pop()
        for src, read in into[target]:
            for x in read.get(r, ()):
                if x not in live[src]:
                    live[src].add(x)
                    work.append((src, x))
    transitions = {}
    for key, tr in sst.transitions.items():
        keep = live[tr.target]
        dead = [r for r in reads[key] if r not in keep]
        if dead:
            images = dict(tr.update.images)
            images.update((r, ()) for r in dead)
            tr = tr._replace(update=Substitution(tuple(images.items())))
        transitions[key] = tr
    return replace(sst, transitions=transitions)


def name_registers_by_use(sst: CopylessParitySST) -> CopylessParitySST:
    """Rename each state's registers by where its moves put them, so that
    states differing only by a register permutation take equal updates.

    At each state the registers other than ``out`` are sorted by one key
    per input letter, in alphabet order: where that letter's update puts
    the register, as (its holder's position in ``registers``, its index in
    the holder's image), or ``(len(registers), 0)`` when the update does
    not read it or the state has no move on the letter.  Ties, only between
    registers no letter reads, keep declaration order.  The i-th register
    in this order takes the i-th name of ``registers`` without ``out``, and
    ``out`` keeps its name.  A transition from s to t then names its
    holders by t's renaming and the registers its images read by s's.

    Any bijection per state that fixes ``out`` keeps the function: the
    valuation at each state is the old one renamed, and updates stay
    copyless with the out discipline.  The pass runs once; run again, it
    may keep permuting (a loop that swaps two registers flips them each
    time).
    """
    require(sst, CopylessParitySST, "name_registers_by_use")
    return _name_registers_by_use(sst)


@collector_paused
def _name_registers_by_use(sst: CopylessParitySST) -> CopylessParitySST:
    """``name_registers_by_use`` without its input check."""
    position = {r: i for i, r in enumerate(sst.registers)}
    pool = [r for r in sst.registers if r != sst.out]
    unread = (len(sst.registers), 0)
    # Per state, the new name of each register and the new token of each
    # register token, or None where the state keeps every name.
    names: dict = {}
    tokens: dict = {}
    for s in sst.states:
        wheres = []  # per letter: register -> (holder's position, index in its image)
        for a in sst.input_alphabet:
            tr = sst.transitions.get((s, a))
            where = {}
            if tr is not None:
                for holder, img in tr.update.images:
                    for i, (kind, value) in enumerate(img):
                        if kind == "reg":
                            where[value] = (position[holder], i)
            wheres.append(where)
        order = sorted(pool, key=lambda r: [where.get(r, unread) for where in wheres])
        if order == pool:
            names[s] = tokens[s] = None
        else:
            names[s] = {sst.out: sst.out, **dict(zip(order, pool))}
            tokens[s] = {("reg", r): ("reg", new) for r, new in names[s].items()}
    transitions = {}
    for (s, a), tr in sst.transitions.items():
        read, hold = tokens[s], names[tr.target]
        if read or hold:
            # Empty images, most of them, are kept as they are; renamed
            # holders are sorted again, as ``Substitution`` stores them.
            images = [
                (
                    hold[holder] if hold else holder,
                    tuple([read.get(t, t) for t in img]) if read and img else img,
                )
                for holder, img in tr.update.images
            ]
            if hold:
                images.sort()
            tr = tr._replace(update=Substitution(tuple(images)))
        transitions[(s, a)] = tr
    return replace(sst, transitions=transitions)


def merge_equal_states(sst: CopylessParitySST) -> CopylessParitySST:
    """Merge the states that, on every letter, take the same update and
    colors to equivalent targets (Moore partition refinement).

    Each class keeps its first-declared member, and states stay in
    declaration order.
    """
    require(sst, CopylessParitySST, "merge_equal_states")
    return _merge_equal_states(sst)


def _merge_equal_states(sst: CopylessParitySST) -> CopylessParitySST:
    """``merge_equal_states`` without its input check."""
    number = {s: i for i, s in enumerate(sst.states)}
    # The first blocks number each state's (update, colors) per letter, so
    # each update is hashed once and refinement compares ints.  A missing
    # move targets the last slot of ``block``, which stays -1.
    labels: dict = {}
    block, targets = [], []
    for s in sst.states:
        moves = [sst.transitions.get((s, a)) for a in sst.input_alphabet]
        label = tuple(tr and (tr.update, tr.colors) for tr in moves)
        block.append(labels.setdefault(label, len(labels)))
        targets.append([-1 if tr is None else number[tr.target] for tr in moves])
    block.append(-1)
    count, signatures = -1, labels
    while len(signatures) != count:
        count, signatures = len(signatures), {}
        block = [
            signatures.setdefault((b, *[block[t] for t in row]), len(signatures))
            for b, row in zip(block, targets)
        ] + [-1]
    first = {}
    for s, b in zip(sst.states, block):
        first.setdefault(b, s)
    transitions = {
        (src, a): tr._replace(target=first[block[number[tr.target]]])
        for (src, a), tr in sst.transitions.items()
        if first[block[number[src]]] == src
    }
    return replace(
        sst,
        states=tuple(first.values()),
        initial=first[block[number[sst.initial]]],
        transitions=transitions,
    )


def substitution_alphabet(sst: CopylessParitySST) -> tuple[Substitution, ...]:
    """Distinct updates in transition declaration order; the intermediate
    alphabet is exactly the substitutions the machine actually uses."""
    seen: dict[Substitution, None] = {}
    for tr in sst.transitions.values():
        seen.setdefault(tr.update, None)
    return tuple(seen)


def _median_order(sst: CopylessParitySST) -> tuple[State, ...]:
    """The states stably sorted by the upper median of their successors'
    declaration positions over the input letters: one pass of the median
    heuristic of layered graph drawing.  A state with no move keeps its own
    position as its key."""
    position = {s: i for i, s in enumerate(sst.states)}

    def median(s: State) -> int:
        moves = (sst.transitions.get((s, a)) for a in sst.input_alphabet)
        ts = sorted(position[tr.target] for tr in moves if tr is not None)
        return ts[len(ts) // 2] if ts else position[s]

    return tuple(sorted(sst.states, key=median))


def sst_to_substitution_stream(sst: CopylessParitySST) -> TwoWayParityTransducer:
    """Same automaton as the register machine, each transition emitting its
    own update as a single letter of the substitution alphabet.

    The states are declared in median order (``_median_order``), so that a
    state sits near the states it leads to.  ``one_way_to_reversible``
    pairs each state with its neighbours in declaration order among the
    states sharing a successor, so this order sizes the outline, and the
    composition after it."""
    require(sst, CopylessParitySST, "sst_to_substitution_stream")
    return _sst_to_substitution_stream(sst)


def _sst_to_substitution_stream(sst: CopylessParitySST) -> TwoWayParityTransducer:
    """``sst_to_substitution_stream`` without its input check."""
    transitions = {
        key: Transition(tr.target, (tr.update,), tr.colors)
        for key, tr in sst.transitions.items()
    }
    return TwoWayParityTransducer(
        input_alphabet=sst.input_alphabet,
        output_alphabet=substitution_alphabet(sst),
        states=_median_order(sst),
        initial=sst.initial,
        transitions=transitions,
        k=sst.k,
        ell=sst.ell,
    )


def _occurrence(update: Substitution, register: str):
    """Where ``register`` occurs across the images: (holder, holder's image,
    index in that image) or None.  Copylessness makes the occurrence unique."""
    for holder, img in update.images:
        for i, (kind, value) in enumerate(img):
            if kind == "reg" and value == register:
                return holder, img, i
    return None


def _walk_on(img, start: int, holder: str, fetch: dict, done: dict) -> Transition:
    """The walk's move from ``img[start]`` on: emit the letters up to the
    next register token and fetch that register, or, if none is left, the
    holder is done."""
    for j in range(start, len(img)):
        if img[j][0] == "reg":
            return Transition(fetch[img[j][1]], tuple(v for _, v in img[start:j]), ())
    return Transition(done[holder], tuple(v for _, v in img[start:]), ())


def build_register_walker(sst: CopylessParitySST) -> TwoWayParityTransducer:
    """Reversible two-way transducer over the substitution stream producing
    the out register's content.

    State (r, fetch) walks backward to compute r's content; (r, done) walks
    forward having just produced it.  The endmarker behaves as the
    substitution mapping every register to the empty word, so a fetch
    bouncing off it simply yields nothing.  The walker needs no acceptance
    condition of its own.
    """
    require(sst, CopylessParitySST, "build_register_walker")
    return _build_register_walker(sst)


def _build_register_walker(sst: CopylessParitySST) -> TwoWayParityTransducer:
    """``build_register_walker`` without its input check."""
    alphabet = substitution_alphabet(sst)
    fetch = {r: State(f"{r}.fetch", False) for r in sst.registers}
    done = {r: State(f"{r}.done", True) for r in sst.registers}
    transitions: dict = {}
    for r in sst.registers:
        transitions[(fetch[r], LEFT_END)] = Transition(done[r], (), ())
        for sigma in alphabet:
            transitions[(fetch[r], sigma)] = _walk_on(sigma.image(r), 0, r, fetch, done)
        for sigma in alphabet:
            occ = _occurrence(sigma, r)
            if occ is None:
                continue  # register dropped: the walk stops and rejects
            holder, img, i = occ
            transitions[(done[r], sigma)] = _walk_on(img, i + 1, holder, fetch, done)
    states = tuple(done[r] for r in sst.registers) + tuple(fetch[r] for r in sst.registers)
    return TwoWayParityTransducer(
        input_alphabet=alphabet,
        output_alphabet=sst.output_alphabet,
        states=states,
        initial=done[sst.out],
        transitions=transitions,
        k=0,
        ell=1,
    )


def sst_to_reversible(sst: CopylessParitySST) -> TwoWayParityTransducer:
    """Reversible two-way transducer computing the register machine's
    function; keeps the machine's colorings.

    The stream and the walker are built from the machine after
    ``drop_dead_registers``, ``name_registers_by_use`` and
    ``merge_equal_states``: fewer distinct updates and fewer states make
    both smaller, the walker reaches only registers that feed ``out``, and
    registers named by use let one walker state serve the same role at
    many stream states.  Only the composition's pairs reachable
    from the initial pair are built, so no prune pass follows.  ``ell`` is
    one above the largest color the kept transitions use, which can be
    below the full product's bound.
    """
    require(sst, CopylessParitySST, "sst_to_reversible")
    return _sst_to_reversible(sst)


def _sst_to_reversible(sst: CopylessParitySST) -> TwoWayParityTransducer:
    """``sst_to_reversible`` without its input check: the stages build only
    valid machines, so none of them is checked again."""
    sst = _merge_equal_states(_name_registers_by_use(_drop_dead_registers(sst)))
    stream = _one_way_to_reversible(_sst_to_substitution_stream(sst))
    walker = _build_register_walker(sst)
    return _compose_reachable(stream, walker)
