"""From deterministic two-way machines to copyless register machines.

The register machine's state pairs the current endpoint of the left-to-right
run with a *merging forest* summarizing every useful right-to-right run over
the prefix read so far: leaves are the backward states entering the prefix
from the right, roots the forward states exiting it, tree shape records the
order in which runs merge, and every edge owns a register holding that
segment's production.  Reading a letter splices the machine's transitions on
that letter into the forest, walks the turn-back path of the main run into
the out register, trims everything that can no longer appear in an accepting
run, and contracts unary chains back into single registers, which is what
keeps the updates copyless.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .bounds import registers
from .machines import (
    LEFT_END,
    CopylessParitySST,
    SstTransition,
    State,
    Substitution,
    TwoWayParityTransducer,
    collector_paused,
    reg,
    require,
    sym,
    takeable,
)


class StateExplosion(RuntimeError):
    pass


STATE_CAP = 10**6  # the default state_cap of two_way_to_sst, dbt_to_rbt and the CLI


# ---------------------------------------------------------------------------
# Merging forests
#
# A forest is kept as its preorder: a flat tuple with one (label, colors,
# child count) triple per node.  States are numbered in declaration order.
# Leaves carry a backward state's number and a per-coloring tuple of the
# minimum colors along the summarized run; roots carry a forward state's
# number; internal merge nodes are unlabeled and have at least two children.
# Equal forests have equal preorders, so the tuple is the summary's hash
# key.  A step names every node by an int: a root or leaf is its state's
# number s, the boundary node of state s is n + s, and a merge node is 2n
# plus its offset in the preorder.  The edges of a forest own the pool's
# registers in preorder (traversal order meets pool order).


class _Flat(NamedTuple):
    """A summary's forest, shared by all letters read from it."""

    edges: dict  # child -> (parent, register label), in pool order
    climb: list  # state -> (the root above it, label) if it is a leaf, else None


def _flatten(preorder: tuple, reg_labels: tuple, n: int) -> _Flat:
    """The climb from a leaf to its root reads the registers on the way up,
    and its label carries the leaf's colors."""
    edges: dict = {}
    climb: list = [None] * n
    open_nodes: list[list] = []  # [node, children still to come, its root, tokens up to it]
    for position in range(0, len(preorder), 3):
        label, colors, count = preorder[position : position + 3]
        node = 2 * n + position if label is None else label
        if open_nodes:
            parent = open_nodes[-1]
            reg_label = reg_labels[len(edges)]
            edges[node] = (parent[0], reg_label)
            root, tokens = parent[2], reg_label[0] + parent[3]
            parent[1] -= 1
            if not parent[1]:
                open_nodes.pop()
        else:
            root, tokens = node, ()
        if count:
            open_nodes.append([node, count, root, tokens])
        else:
            climb[node] = (root, (tokens, colors))
    return _Flat(edges, climb)


# ---------------------------------------------------------------------------
# The one-letter extension step


class _Tables(NamedTuple):
    """What a step reads of the machine and the register pool, built once
    per conversion, over state numbers.  Edge labels are (tokens, colors): a
    forest edge's tokens are its register, with colors None; a splice
    edge's tokens are the output letters, with the transition's colors.
    Splice edges lead from a root or an entry to a leaf or an exit; a
    forest lacking the root or the leaf just leaves its splice edges
    unused.  Updates share the pairs of ``empty``: a step replaces only the
    images it writes."""

    n: int
    moves: dict  # letter -> [state -> (target, target forward, out image, colors) or None]
    splices: dict  # letter -> [root or entry -> (leaf or exit, label) or None]
    entries: tuple  # boundary nodes of the backward states, in state order
    exits: tuple  # boundary nodes of the forward states, in state order
    reg_labels: tuple  # edge index -> label of the forest edge owning pool[index]
    empty: tuple  # (register, ()) for ("out",) + pool, sorted as Substitution stores them
    out_slot: tuple  # (position of out in ``empty``, out)
    pool_slots: tuple  # (position of pool[i] in ``empty``, pool[i])


def _tables(machine: TwoWayParityTransducer, pool: tuple[str, ...], out: str) -> _Tables:
    n = len(machine.states)
    number = {s: i for i, s in enumerate(machine.states)}
    letters = (*machine.input_alphabet, LEFT_END)
    moves = {a: [None] * n for a in letters}
    splices = {a: [None] * (2 * n) for a in letters}
    for (src, a), tr in machine.transitions.items():
        s, t = number[src], number[tr.target]
        word = tuple(sym(b) for b in tr.output)
        moves[a][s] = (t, tr.target.forward, (reg(out),) + word, tr.colors)
        origin = s if src.forward else n + s
        dest = n + t if tr.target.forward else t
        splices[a][origin] = (dest, (word, tr.colors))
    # Reading the left endmarker, the main run stays where it starts: the
    # slot is free, as the initial state is forward and endmarker moves have
    # a backward source.
    initial = number[machine.initial]
    moves[LEFT_END][initial] = (initial, True, (reg(out),), None)
    registers = sorted((out,) + pool)
    return _Tables(
        n,
        moves,
        splices,
        tuple(n + i for i, s in enumerate(machine.states) if not s.forward),
        tuple(n + i for i, s in enumerate(machine.states) if s.forward),
        tuple(((reg(r),), None) for r in pool),
        tuple((r, ()) for r in registers),
        (registers.index(out), out),
        tuple((registers.index(r), r) for r in pool),
    )


def _min_colors(colors, more):
    """Elementwise minimum of two color tuples, where None means no colors."""
    if more is None:
        return colors
    return more if colors is None else tuple(map(min, colors, more))


def _resolve(jump: list, climb: list, leaf: int, memo: dict):
    """(exit, colors) of the walk that enters ``leaf``, or None when it dies:
    a leaf the forest lacks, a root with no splice edge, or a cycle.  Each
    leaf climbs to its root, and a splice edge leads from the root to a
    leaf or an exit (a node from n up).  ``memo`` keeps every leaf's result,
    so each is resolved once; a leaf still being resolved maps to None, so
    a walk back into it dies."""
    n = len(climb)
    steps = []  # (leaf, colors from it up to the next leaf)
    while leaf not in memo:
        memo[leaf] = None
        up = climb[leaf]
        if up is None:
            return None
        root, (_, colors) = up
        edge = jump[root]
        if edge is None:
            return None
        dest, (_, more) = edge
        colors = _min_colors(colors, more)
        if dest >= n:
            memo[leaf] = (dest, colors)
            break
        steps.append((leaf, colors))
        leaf = dest
    found = memo[leaf]
    if found is not None:
        end, colors = found
        for leaf, more in reversed(steps):
            colors = _min_colors(more, colors)
            found = memo[leaf] = (end, colors)
    return found


def _walk(jump: list, climb: list, leaf: int, tokens: list) -> None:
    """Append the tokens of the walk that enters ``leaf``, which reaches an
    exit."""
    n = len(climb)
    while True:
        root, (more, _) = climb[leaf]
        tokens.extend(more)
        leaf, (more, _) = jump[root]
        tokens.extend(more)
        if leaf >= n:
            return


def _step(q: int, flat: _Flat, a, tables: _Tables):
    """Extend the summarized prefix by one letter, or the empty prefix by
    the left endmarker.

    Returns (state, preorder, substitution, colors), or None when the
    extended left-to-right run dies: it loops, falls off a dead branch, or
    turns back into a run the forest no longer tracks.
    """
    move = tables.moves[a][q]
    if move is None:
        return None
    target, target_forward, head, colors = move
    n = tables.n
    jump = tables.splices[a]
    climb = flat.climb
    memo: dict = {}
    out_image = list(head)
    if target_forward:
        p = target
    else:
        found = _resolve(jump, climb, target, memo)
        if found is None:
            return None
        p = found[0] - n
        colors = _min_colors(colors, found[1])
        _walk(jump, climb, target, out_image)

    # Keep exactly the nodes on an entry-to-exit walk that does not reach
    # the new endpoint: a run merging with the main run could only recur by
    # looping on a finite prefix, so it is dropped (and its registers freed).
    # Entries go in state order and mark their walks upward until they meet
    # a kept node, so every child list comes out least leaf first.
    children: dict = {}  # kept node -> [(child, tokens of the edge up to it)]
    leaf_colors: dict = {}  # entry -> minimum colors over its whole run
    edges = flat.edges
    endpoint = n + p
    two_n = 2 * n
    for entry in tables.entries:
        edge = jump[entry]
        if edge is None:
            continue
        end, (_, run_colors) = edge
        if end < n:
            found = _resolve(jump, climb, end, memo)
            if found is None:
                continue
            end, more = found
            run_colors = _min_colors(run_colors, more)
        if end == endpoint:
            continue
        leaf_colors[entry] = run_colors
        node = entry
        while True:
            parent, (tokens, _) = edges.get(node) or jump[node]
            kids = children.get(parent)
            if kids is not None:
                kids.append((node, tokens))
                break
            children[parent] = [(node, tokens)]
            if n <= parent < two_n:
                break
            node = parent

    # One depth-first pass over the kept nodes, contracting unary chains:
    # edges take registers in preorder.  Only the roots, the exits, are
    # stacked without an image.
    preorder: list = []
    images: list = []
    stack = [(root, None) for root in reversed(tables.exits) if root in children]
    while stack:
        node, image = stack.pop()
        if image is not None:
            images.append(image)
        kids = children.get(node)
        if kids is None:
            preorder += (node - n, leaf_colors[node], 0)
            continue
        preorder += (node - n if image is None else None, None, len(kids))
        for child, image in reversed(kids):
            while len(children.get(child, ())) == 1:
                (child, tokens), = children[child]
                image = tokens + image
            stack.append((child, image))
    pairs = list(tables.empty)
    slot, register = tables.out_slot
    pairs[slot] = (register, tuple(out_image))
    for (slot, register), image in zip(tables.pool_slots, images):
        pairs[slot] = (register, image)
    return p, tuple(preorder), Substitution(tuple(pairs)), colors


# ---------------------------------------------------------------------------
# Whole-machine conversion


def two_way_to_sst(
    machine: TwoWayParityTransducer,
    state_cap: int = STATE_CAP,
    details: Optional[dict] = None,
) -> CopylessParitySST:
    """Equivalent copyless register machine over ``bounds.registers(n)``
    registers for n states.

    Only the moves ``takeable`` keeps are summarized: no run takes another.
    The starting summary is the step on the left endmarker, where the main
    run stands still and the backward runs bounce into forward states.  A
    synthetic initial state performs that step followed by the first
    letter's, keeping the standard all-empty starting valuation.  So the
    starting summary is a state of the output only when some step
    re-enters it; otherwise ``ini`` stands in for it and every state is
    reachable.  Exploration is breadth-first over reachable (endpoint,
    forest) summaries, at most ``bounds.summaries(n, k, ell)`` of them;
    exceeding ``state_cap`` (at least 1) raises StateExplosion rather than
    truncating.

    ``details``, when given, is filled with ``state_map`` (each emitted
    state's name, ``ini`` aside, to its (endpoint, forest preorder)
    summary, with the endpoint and the labels as state names), ``start`` and
    ``init_contents`` (the summary and register contents before the first
    letter), ``summary_count`` and the observed forest maxima
    ``max_forest_nodes`` and ``max_forest_edges``.
    """
    require(machine, TwoWayParityTransducer, "two_way_to_sst")
    return _two_way_to_sst(machine, state_cap, details)


@collector_paused
def _two_way_to_sst(
    machine: TwoWayParityTransducer, state_cap: int, details: Optional[dict] = None
) -> CopylessParitySST:
    """``two_way_to_sst`` without its input check."""
    machine = takeable(machine)
    n = len(machine.states)
    if state_cap < 1:
        raise ValueError(f"state_cap must be positive, got {state_cap}")
    pool = tuple(f"r{i}" for i in range(1, registers(n)))
    out = "out"
    tables = _tables(machine, pool, out)

    initial = machine.states.index(machine.initial)
    _, preorder, end_update, _ = _step(initial, _flatten((), (), n), LEFT_END, tables)
    # Summaries are numbered in the order they are reached, and keyed by
    # (endpoint, forest preorder) over state numbers; ``moves[i]`` lists the
    # steps of summary i.
    summaries = [(initial, preorder)]
    index_of = {summaries[0]: 0}
    moves: list[list] = []
    max_nodes = 0
    max_edges = 0
    while len(moves) < len(summaries):
        q, preorder = summaries[len(moves)]
        flat = _flatten(preorder, tables.reg_labels, n)
        max_nodes = max(max_nodes, len(preorder) // 3)
        max_edges = max(max_edges, len(flat.edges))
        steps = []
        for a in machine.input_alphabet:
            result = _step(q, flat, a, tables)
            if result is None:
                continue
            p, target_preorder, update, colors = result
            target = (p, target_preorder)
            j = index_of.get(target)
            if j is None:
                if len(summaries) >= state_cap:
                    raise StateExplosion(f"more than {state_cap} summaries reachable")
                j = index_of[target] = len(summaries)
                summaries.append(target)
            steps.append((a, j, update, colors))
        moves.append(steps)

    ini = State("ini", True)
    names = [s.name for s in machine.states]
    states = [State(f"s{i}_{names[q]}", True) for i, (q, _) in enumerate(summaries)]
    # Every summary but the start is reached from ``ini``; the start itself
    # is emitted only when some step re-enters it.
    first = 0 if any(j == 0 for steps in moves for _, j, _, _ in steps) else 1
    transitions: dict = {}
    for i, steps in enumerate(moves[first:], first):
        for a, j, update, colors in steps:
            transitions[(states[i], a)] = SstTransition(states[j], update, colors)
    # The synthetic initial state reads the endmarker and the first letter
    # in one move, so no run ever returns to it.
    for a, j, update, colors in moves[0]:
        transitions[(ini, a)] = SstTransition(states[j], end_update.then(update), colors)

    sst = CopylessParitySST(
        input_alphabet=machine.input_alphabet,
        output_alphabet=machine.output_alphabet,
        states=(ini,) + tuple(states[first:]),
        initial=ini,
        transitions=transitions,
        registers=(out,) + pool,
        out=out,
        k=machine.k,
        ell=machine.ell,
    )
    if details is not None:

        def named(summary):
            q, preorder = summary
            decoded = list(preorder)
            decoded[::3] = [None if s is None else names[s] for s in preorder[::3]]
            return names[q], tuple(decoded)

        details["state_map"] = {
            state.name: named(key) for state, key in zip(states[first:], summaries[first:])
        }
        details["start"] = named(summaries[0])
        details["init_contents"] = {
            r: tuple(letter for _, letter in image)
            for r, image in end_update.images
            if r != out and image
        }
        details["max_forest_nodes"] = max_nodes
        details["max_forest_edges"] = max_edges
        details["summary_count"] = len(summaries)
    return sst
