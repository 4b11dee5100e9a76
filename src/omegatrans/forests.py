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

from operator import itemgetter
from typing import NamedTuple, Optional

from .machines import (
    LEFT_END,
    CopylessParitySST,
    SstTransition,
    State,
    Substitution,
    Token,
    TwoWayParityTransducer,
    reg,
    require_two_way,
    sym,
)


class StateExplosion(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Merging forests
#
# A forest is kept as its preorder: a flat tuple with one (label, colors,
# child count) triple per node.  Leaves carry a backward-state label and a
# per-coloring tuple of the minimum colors along the summarized run; roots
# carry a forward-state label; internal merge nodes are unlabeled and have
# at least two children.  Equal forests have equal preorders, so the tuple
# is the summary's hash key.  A node's id is its position in the preorder,
# and the edges of a forest own the pool's registers in preorder (traversal
# order meets pool order).


class _Flat(NamedTuple):
    """A summary's forest as int nodes, shared by all letters read from it."""

    edges: dict  # child id -> (parent id, register label), in pool order
    leaf_of: dict  # backward-state label -> leaf id
    root_of: dict  # forward-state label -> root id
    climb: dict  # leaf id -> (root id, nodes from the leaf up to the root, label)


def _flatten(preorder: tuple, reg_labels: tuple) -> _Flat:
    """The climb from a leaf to its root reads the registers on the way up,
    and its label carries the leaf's colors."""
    edges: dict = {}
    leaf_of: dict = {}
    root_of: dict = {}
    climb: dict = {}
    up: list = []  # node id -> (root id, nodes up to the root, register tokens)
    open_nodes: list[list[int]] = []  # [id, children still to come]
    for node in range(len(preorder) // 3):
        label, colors, count = preorder[3 * node : 3 * node + 3]
        if open_nodes:
            parent = open_nodes[-1]
            reg_label = reg_labels[len(edges)]
            edges[node] = (parent[0], reg_label)
            root, path, tokens = up[parent[0]]
            up.append((root, (node,) + path, reg_label[0] + tokens))
            parent[1] -= 1
            if not parent[1]:
                open_nodes.pop()
        else:
            root_of[label] = node
            up.append((node, (node,), ()))
        if count:
            open_nodes.append([node, count])
        else:
            leaf_of[label] = node
            root, path, tokens = up[node]
            climb[node] = (root, path, (tokens, colors))
    return _Flat(edges, leaf_of, root_of, climb)


# ---------------------------------------------------------------------------
# The one-letter extension step


class _Tables(NamedTuple):
    """What a step reads of the machine and the register pool, built once
    per conversion.  Edge labels are (tokens, colors): a forest edge's
    tokens are its register, with colors None; a splice edge's tokens are
    the output letters, with the transition's colors."""

    moves: dict  # (state name, letter) -> (target name, target forward, out image, colors)
    splices: dict  # letter -> [(origin, origin is a root name, dest, dest is a leaf name, label)]
    entries: tuple  # boundary nodes of the backward states, in state order
    exits: tuple  # boundary nodes of the forward states, in state order
    order: dict  # state name -> position
    reg_labels: tuple  # edge index -> label of the forest edge owning pool[index]
    registers: tuple  # ("out",) + pool, sorted as Substitution stores them
    out_slot: int
    pool_slots: tuple  # position of pool[i] in ``registers``


def _tables(machine: TwoWayParityTransducer, pool: tuple[str, ...], out: str) -> _Tables:
    boundary = {s.name: ("c", s.name) for s in machine.states}
    moves: dict = {}
    splices: dict = {}
    for (src, a), tr in machine.transitions.items():
        target = tr.target
        word = tuple(sym(b) for b in tr.output)
        moves[src.name, a] = (target.name, target.forward, (reg(out),) + word, tr.colors)
        splices.setdefault(a, []).append(
            (
                src.name if src.forward else boundary[src.name],
                src.forward,
                boundary[target.name] if target.forward else target.name,
                not target.forward,
                (word, tr.colors),
            )
        )
    # Reading the left endmarker, the main run stays where it starts: the
    # key is free, as the initial state is forward and endmarker moves have
    # a backward source.
    moves[machine.initial.name, LEFT_END] = (machine.initial.name, True, (reg(out),), None)
    registers = tuple(sorted((out,) + pool))
    return _Tables(
        moves,
        splices,
        tuple(boundary[s.name] for s in machine.states if not s.forward),
        tuple(boundary[s.name] for s in machine.states if s.forward),
        {s.name: i for i, s in enumerate(machine.states)},
        tuple(((reg(r),), None) for r in pool),
        registers,
        registers.index(out),
        tuple(registers.index(r) for r in pool),
    )


def _splices(flat: _Flat, a, tables: _Tables) -> dict:
    """The splice edges of letter ``a`` that this forest's runs can take."""
    jump: dict = {}
    root_of, leaf_of = flat.root_of, flat.leaf_of
    for origin, from_root, dest, to_leaf, label in tables.splices.get(a, ()):
        if from_root:
            origin = root_of.get(origin)
            if origin is None:
                continue
        if to_leaf:
            dest = leaf_of.get(dest)
            if dest is None:
                continue
        jump[origin] = (dest, label)
    return jump


def _walk(jump: dict, climb: dict, node, nodes: list, labels: list):
    """Extend the walk that reached ``node``: splice edges lead from a root or
    an entry to a leaf or an exit, and each leaf climbs to its root.  Returns
    the exit, or None when the walk dies: a root with no splice edge, or a
    cycle (more leaves entered than the forest has)."""
    for _ in range(len(climb) + 1):
        edge = jump.get(node)
        if edge is None:
            return None
        dest, label = edge
        labels.append(label)
        if type(dest) is tuple:
            nodes.append(dest)
            return dest
        node, path, label = climb[dest]
        nodes.extend(path)
        labels.append(label)
    return None


def _fold_colors(colors, labels: list):
    """``colors`` folded by minimum with the colors of ``labels``."""
    for _, more in labels:
        if more is not None:
            colors = more if colors is None else tuple(map(min, colors, more))
    return colors


def _subtree(node, children: dict, new_leaf_colors: dict, order: dict):
    """(least leaf position, preorder, edge images in preorder) of the
    canonical subtree at ``node`` of a step's kept nodes; unary chains below
    it are contracted into single edges."""
    kids = []
    for child, (image, _) in children[node]:
        while type(child) is not tuple and len(children[child]) == 1:
            (child, (tokens, _)), = children[child]
            image = tokens + image
        leaf_colors = new_leaf_colors.get(child)
        if leaf_colors is None:
            kids.append((*_subtree(child, children, new_leaf_colors, order), image))
        else:
            kids.append((order[child[1]], (child[1], leaf_colors, 0), (), image))
    kids.sort(key=itemgetter(0))  # subtrees have disjoint leaves
    preorder = (node[1] if type(node) is tuple else None, None, len(kids))
    images: list[tuple[Token, ...]] = []
    for _, sub_preorder, sub_images, image in kids:
        preorder += sub_preorder
        images.append(image)
        images.extend(sub_images)
    return kids[0][0], preorder, images


def _step(q_name: str, flat: _Flat, a, tables: _Tables):
    """Extend the summarized prefix by one letter, or the empty prefix by
    the left endmarker.

    Returns (state, preorder, substitution, colors), or None when the
    extended left-to-right run dies: it loops, falls off a dead branch, or
    turns back into a run the forest no longer tracks.
    """
    move = tables.moves.get((q_name, a))
    if move is None:
        return None
    target, target_forward, head, colors = move
    jump = _splices(flat, a, tables)
    climb = flat.climb
    out_image = list(head)
    if target_forward:
        p_name = target
    else:
        leaf = flat.leaf_of.get(target)
        if leaf is None:
            return None
        root, _, label = climb[leaf]
        labels = [label]
        end = _walk(jump, climb, root, [], labels)
        if end is None:
            return None
        p_name = end[1]
        colors = _fold_colors(colors, labels)
        for tokens, _ in labels:
            out_image.extend(tokens)

    # Keep exactly the nodes on an entry-to-exit walk that does not reach
    # the new endpoint: a run merging with the main run could only recur by
    # looping on a finite prefix, so it is dropped (and its registers freed).
    kept: set = set()
    new_leaf_colors: dict = {}
    for start in tables.entries:
        if start not in jump:
            continue
        nodes = [start]
        labels = []
        end = _walk(jump, climb, start, nodes, labels)
        if end is None or end[1] == p_name:
            continue
        kept.update(nodes)
        # Color tuple of the new leaf: minimum over the whole summarized run.
        new_leaf_colors[start] = _fold_colors(None, labels)

    children: dict = {}
    edges = flat.edges
    for node in kept:
        edge = edges.get(node) or jump.get(node)
        if edge is not None:  # it leads on to the next node of its walk
            children.setdefault(edge[0], []).append((node, edge[1]))

    preorder: tuple = ()
    slots: list = [()] * len(tables.registers)
    slots[tables.out_slot] = tuple(out_image)
    pool_slots = iter(tables.pool_slots)  # edges take registers in preorder
    for root in tables.exits:
        if root in kept:
            _, tree, images = _subtree(root, children, new_leaf_colors, tables.order)
            preorder += tree
            for image in images:
                slots[next(pool_slots)] = image
    update = Substitution(tuple(zip(tables.registers, slots)))
    return p_name, preorder, update, colors


# ---------------------------------------------------------------------------
# Whole-machine conversion


def two_way_to_sst(
    machine: TwoWayParityTransducer,
    state_cap: int = 10**6,
    details: Optional[dict] = None,
) -> CopylessParitySST:
    """Equivalent copyless register machine over 2n-1 registers.

    The starting summary is the step on the left endmarker, where the main
    run stands still and the backward runs bounce into forward states.  A
    synthetic initial state performs that step followed by the first
    letter's, keeping the standard all-empty starting valuation.
    Exploration is breadth-first over reachable (endpoint, forest)
    summaries; exceeding ``state_cap`` (at least 1) raises StateExplosion
    rather than truncating.

    ``details``, when given, is filled with ``state_map`` (each state's name
    to its (endpoint, forest preorder) summary), ``start`` and
    ``init_contents`` (the summary and register contents before the first
    letter), ``summary_count`` and the observed forest maxima
    ``max_forest_nodes`` and ``max_forest_edges``.
    """
    require_two_way(machine, "two_way_to_sst")
    n = len(machine.states)
    if n < 1:
        raise ValueError("machine needs at least one state")
    if state_cap < 1:
        raise ValueError(f"state_cap must be positive, got {state_cap}")
    pool = tuple(f"r{i}" for i in range(1, 2 * n - 1))
    out = "out"
    tables = _tables(machine, pool, out)

    initial = machine.initial.name
    _, preorder, end_update, _ = _step(initial, _flatten((), ()), LEFT_END, tables)
    # Summaries are numbered in the order they are reached, and keyed by
    # (endpoint, forest preorder); ``moves[i]`` lists the steps of summary i.
    summaries = [(initial, preorder)]
    index_of = {summaries[0]: 0}
    moves: list[list] = []
    max_nodes = 0
    max_edges = 0
    while len(moves) < len(summaries):
        q_name, preorder = summaries[len(moves)]
        flat = _flatten(preorder, tables.reg_labels)
        max_nodes = max(max_nodes, len(preorder) // 3)
        max_edges = max(max_edges, len(flat.edges))
        steps = []
        for a in machine.input_alphabet:
            result = _step(q_name, flat, a, tables)
            if result is None:
                continue
            p_name, target_preorder, update, colors = result
            target = (p_name, target_preorder)
            j = index_of.get(target)
            if j is None:
                if len(summaries) >= state_cap:
                    raise StateExplosion(f"more than {state_cap} summaries reachable")
                j = index_of[target] = len(summaries)
                summaries.append(target)
            steps.append((a, j, update, colors))
        moves.append(steps)

    ini = State("ini", True)
    states = [State(f"s{i}_{q_name}", True) for i, (q_name, _) in enumerate(summaries)]
    transitions: dict = {}
    for i, steps in enumerate(moves):
        for a, j, update, colors in steps:
            transitions[(states[i], a)] = SstTransition(states[j], update, colors)
    # The synthetic initial state reads the endmarker and the first letter
    # in one move, so no run ever returns to it.
    for a, j, update, colors in moves[0]:
        transitions[(ini, a)] = SstTransition(states[j], end_update.then(update), colors)

    sst = CopylessParitySST(
        input_alphabet=machine.input_alphabet,
        output_alphabet=machine.output_alphabet,
        states=(ini,) + tuple(states),
        initial=ini,
        transitions=transitions,
        registers=(out,) + pool,
        out=out,
        k=machine.k,
        ell=machine.ell,
    )
    if details is not None:
        details["state_map"] = {state.name: key for state, key in zip(states, summaries)}
        details["start"] = summaries[0]
        details["init_contents"] = {
            r: tuple(letter for _, letter in image)
            for r, image in end_update.images
            if r != out and image
        }
        details["max_forest_nodes"] = max_nodes
        details["max_forest_edges"] = max_edges
        details["summary_count"] = len(summaries)
    return sst
