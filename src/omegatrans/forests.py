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

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .compose import run_on_finite
from .machines import (
    LEFT_END,
    CopylessParitySST,
    SstTransition,
    State,
    Substitution,
    Token,
    TwoWayParityTransducer,
    odd_sentinels,
    reg,
    require_two_way,
    sym,
)


class StateExplosion(RuntimeError):
    pass


@dataclass(frozen=True)
class ForestNode:
    """Node of a merging forest.

    Leaves carry a backward-state label and a per-coloring tuple of the
    minimum colors along the summarized run; roots carry a forward-state
    label; internal merge nodes are unlabeled and have at least two
    children.
    """

    label: Optional[str]
    colors: Optional[tuple[int, ...]]
    children: tuple["ForestNode", ...]

    def is_leaf(self) -> bool:
        return not self.children


MergingForest = tuple[ForestNode, ...]


def forest_nodes(forest: MergingForest) -> int:
    def count(node: ForestNode) -> int:
        return 1 + sum(count(c) for c in node.children)

    return sum(count(t) for t in forest)


def forest_edges(forest: MergingForest) -> int:
    return forest_nodes(forest) - len(forest)


def forest_leaves(tree: ForestNode):
    if tree.is_leaf():
        yield tree
    for c in tree.children:
        yield from forest_leaves(c)


def forest_leaf_root_pairs(forest: MergingForest) -> set[tuple[str, str]]:
    return {(leaf.label, tree.label) for tree in forest for leaf in forest_leaves(tree)}


def _min_leaf(node: ForestNode, order: dict[str, int]) -> int:
    if node.is_leaf():
        return order[node.label]
    return min(_min_leaf(c, order) for c in node.children)


def canonical_forest(forest: MergingForest, order: dict[str, int]) -> MergingForest:
    """Sort sibling subtrees by least leaf label and trees by root label.

    Sibling order carries no run semantics (only the nesting does), so this
    makes structurally equal summaries compare and hash equal.
    """

    def canon(node: ForestNode) -> ForestNode:
        children = tuple(
            sorted((canon(c) for c in node.children), key=lambda n: _min_leaf(n, order))
        )
        return ForestNode(node.label, node.colors, children)

    return tuple(sorted((canon(t) for t in forest), key=lambda n: order[n.label]))


def _dfs_edge_paths(forest: MergingForest) -> list[tuple]:
    """Edges in traversal order, keyed by the child node's path."""
    paths: list[tuple] = []

    def walk(node: ForestNode, path: tuple):
        for i, child in enumerate(node.children):
            paths.append(path + (i,))
            walk(child, path + (i,))

    for t, tree in enumerate(forest):
        walk(tree, (t,))
    return paths


def forest_registers(forest: MergingForest, pool: tuple[str, ...]) -> dict[tuple, str]:
    """Canonical edge-to-register map: traversal order meets pool order."""
    return {path: pool[i] for i, path in enumerate(_dfs_edge_paths(forest))}


# ---------------------------------------------------------------------------
# The one-letter extension step


@dataclass
class TransitionGraph:
    """A forest plus the splice edges contributed by one input letter.

    Nodes are forest-node paths and fresh ("c", state-name) boundary nodes.
    Old edges are labeled ("reg", register); new ones ("word", output,
    colors).  Every node has at most one outgoing edge, so maximal paths
    are deterministic walks; cycles can appear and mark dying runs.
    """

    out_edge: dict[object, tuple[object, object]]
    leaf_of: dict[str, tuple]
    node_info: dict[tuple, ForestNode]


def build_graph(
    forest: MergingForest,
    a,
    machine: TwoWayParityTransducer,
    pool: tuple[str, ...],
) -> TransitionGraph:
    registers = forest_registers(forest, pool)
    out_edge: dict[object, tuple[object, object]] = {}
    leaf_of: dict[str, tuple] = {}
    node_info: dict[tuple, ForestNode] = {}
    root_of: dict[str, tuple] = {}

    def walk(node: ForestNode, path: tuple):
        node_info[path] = node
        if node.is_leaf():
            leaf_of[node.label] = path
        for i, child in enumerate(node.children):
            child_path = path + (i,)
            out_edge[child_path] = (path, ("reg", registers[child_path]))
            walk(child, child_path)

    for t, tree in enumerate(forest):
        root_of[tree.label] = (t,)
        walk(tree, (t,))

    for (src, letter), tr in machine.transitions.items():
        if letter != a:
            continue
        if src.forward:
            origin = root_of.get(src.name)
            if origin is None:
                continue
        else:
            origin = ("c", src.name)
        if tr.target.forward:
            dest = ("c", tr.target.name)
        else:
            dest = leaf_of.get(tr.target.name)
            if dest is None:
                continue
        out_edge[origin] = (dest, ("word", tr.output, tr.colors))
    return TransitionGraph(out_edge, leaf_of, node_info)


def _walk(graph: TransitionGraph, start):
    """Follow out-edges from ``start``: (nodes, labels, end); end is None on a cycle."""
    nodes = [start]
    labels = []
    seen = {start}
    node = start
    while node in graph.out_edge:
        node, label = graph.out_edge[node]
        labels.append(label)
        if node in seen:
            return nodes, labels, None
        seen.add(node)
        nodes.append(node)
    return nodes, labels, node


def _is_boundary(node) -> bool:
    return isinstance(node, tuple) and len(node) == 2 and node[0] == "c"


def _fold_min(colors: tuple[int, ...], acc: Optional[tuple[int, ...]]) -> tuple[int, ...]:
    if acc is None:
        return colors
    return tuple(min(x, y) for x, y in zip(acc, colors))


def step(
    q_and_forest: tuple[str, MergingForest],
    a,
    machine: TwoWayParityTransducer,
    pool: tuple[str, ...],
    out: str,
    order: dict[str, int],
):
    """Extend the summarized prefix by one letter.

    Returns ((state, forest), substitution, colors), or None when the
    extended left-to-right run dies: it loops, falls off a dead branch, or
    turns back into a run the forest no longer tracks.
    """
    q_name, forest = q_and_forest
    by_name = {s.name: s for s in machine.states}
    tr = machine.transitions.get((by_name[q_name], a))
    if tr is None:
        return None
    graph = build_graph(forest, a, machine, pool)

    out_image: list[Token] = [reg(out)] + [sym(b) for b in tr.output]
    colors = list(tr.colors)
    if tr.target.forward:
        p_name = tr.target.name
    else:
        leaf = graph.leaf_of.get(tr.target.name)
        if leaf is None:
            return None
        nodes, labels, end = _walk(graph, leaf)
        if end is None or not _is_boundary(end):
            return None
        p_name = end[1]
        for node in nodes:
            info = graph.node_info.get(node)
            if info is not None and info.is_leaf():
                colors = [min(m, c) for m, c in zip(colors, info.colors)]
        for label in labels:
            if label[0] == "reg":
                out_image.append(reg(label[1]))
            else:
                out_image.extend(sym(b) for b in label[1])
                colors = [min(m, c) for m, c in zip(colors, label[2])]

    # Keep exactly the nodes on an entry-to-exit walk that does not reach
    # the new endpoint: a run merging with the main run could only recur by
    # looping on a finite prefix, so it is dropped (and its registers freed).
    kept: set = set()
    entry_walks: dict[tuple, tuple] = {}
    for s in machine.states:
        if s.forward:
            continue
        start = ("c", s.name)
        if start not in graph.out_edge:
            continue
        nodes, labels, end = _walk(graph, start)
        if end is None or not _is_boundary(end) or end[1] == p_name:
            continue
        kept.update(nodes)
        entry_walks[start] = (nodes, labels)

    children: dict[object, list] = {}
    for node in kept:
        if node in graph.out_edge:
            target, label = graph.out_edge[node]
            if target in kept:
                children.setdefault(target, []).append((node, label))

    structural: set = set()
    for node in kept:
        if _is_boundary(node) or len(children.get(node, [])) >= 2:
            structural.add(node)

    # Color tuples of the new leaves: minimum over the whole summarized run.
    leaf_colors: dict[tuple, tuple[int, ...]] = {}
    for start, (nodes, labels) in entry_walks.items():
        mins: Optional[tuple[int, ...]] = None
        for node in nodes:
            info = graph.node_info.get(node)
            if info is not None and info.is_leaf():
                mins = _fold_min(info.colors, mins)
        for label in labels:
            if label[0] == "word":
                mins = _fold_min(label[2], mins)
        leaf_colors[start] = mins if mins is not None else tuple()

    def build(node) -> tuple[ForestNode, list[tuple[Token, ...]]]:
        """Canonical subtree plus its edge images in traversal order."""
        kids = []
        for child, label in children.get(node, []):
            chain = [label]
            probe = child
            while probe not in structural:
                below = children.get(probe, [])
                assert len(below) == 1, "dissolved nodes must be unary"
                probe, lower = below[0]
                chain.append(lower)
            sub_node, sub_images = build(probe)
            image: list[Token] = []
            for lab in reversed(chain):
                if lab[0] == "reg":
                    image.append(reg(lab[1]))
                else:
                    image.extend(sym(b) for b in lab[1])
            kids.append((sub_node, tuple(image), sub_images))
        kids.sort(key=lambda item: _min_leaf(item[0], order))
        if _is_boundary(node):
            if by_name[node[1]].forward:
                made = ForestNode(node[1], None, tuple(k[0] for k in kids))
            else:
                made = ForestNode(node[1], leaf_colors[node], ())
        else:
            made = ForestNode(None, None, tuple(k[0] for k in kids))
        dfs_images: list[tuple[Token, ...]] = []
        for sub_node, image, sub_images in kids:
            dfs_images.append(image)
            dfs_images.extend(sub_images)
        return made, dfs_images

    roots = sorted(
        (n for n in structural if _is_boundary(n) and by_name[n[1]].forward),
        key=lambda n: order[n[1]],
    )
    trees = []
    all_images: list[tuple[Token, ...]] = []
    for r in roots:
        tree, imgs = build(r)
        trees.append(tree)
        all_images.extend(imgs)
    new_forest: MergingForest = tuple(trees)

    assignment = forest_registers(new_forest, pool)
    edge_paths = _dfs_edge_paths(new_forest)
    assert len(edge_paths) == len(all_images), "one image per contracted edge"
    subst_images: dict[str, tuple[Token, ...]] = {out: tuple(out_image)}
    for path, image in zip(edge_paths, all_images):
        subst_images[assignment[path]] = image
    for r in pool:
        subst_images.setdefault(r, ())
    return (p_name, new_forest), Substitution.from_dict(subst_images), tuple(colors)


# ---------------------------------------------------------------------------
# Whole-machine conversion


def initial_state(machine: TwoWayParityTransducer):
    """Starting summary of the endmarker bounces: a depth-one tree per
    bounce target, one leaf per bouncing backward state, each edge's
    register initialized with the bounce's production.

    Bounces back into the initial state are omitted: a run using them
    revisits the initial configuration and loops.
    """
    order = {s.name: i for i, s in enumerate(machine.states)}
    by_root: dict[str, list[tuple[str, tuple, tuple]]] = {}
    for (src, letter), tr in machine.transitions.items():
        if letter != LEFT_END or tr.target == machine.initial:
            continue
        by_root.setdefault(tr.target.name, []).append((src.name, tr.colors, tr.output))
    trees = []
    edge_productions: list[tuple[str, ...]] = []
    for root_name in sorted(by_root, key=lambda r: order[r]):
        entries = sorted(by_root[root_name], key=lambda e: order[e[0]])
        leaves = tuple(ForestNode(leaf, colors, ()) for leaf, colors, _ in entries)
        trees.append(ForestNode(root_name, None, leaves))
        edge_productions.extend(prod for _, _, prod in entries)
    forest: MergingForest = tuple(trees)
    pool = _register_pool(len(machine.states))
    assignment = forest_registers(forest, pool)
    init_contents = {
        assignment[path]: prod
        for path, prod in zip(_dfs_edge_paths(forest), edge_productions)
        if prod
    }
    return (machine.initial.name, forest), init_contents


def _register_pool(n: int) -> tuple[str, ...]:
    return tuple(f"r{i}" for i in range(1, max(2 * n - 2, 0) + 1))


def two_way_to_sst(
    machine: TwoWayParityTransducer,
    state_cap: int = 10**6,
    details: Optional[dict] = None,
) -> CopylessParitySST:
    """Equivalent copyless register machine over 2n-1 registers.

    Initialized registers are realized by a synthetic initial state whose
    updates inline the initial contents, keeping the standard all-empty
    starting valuation.  Exploration is breadth-first over reachable
    (endpoint, forest) summaries; exceeding ``state_cap`` raises
    StateExplosion rather than truncating.  ``details``, when given, is
    filled with the state map and observed forest maxima.
    """
    require_two_way(machine, "two_way_to_sst")
    n = len(machine.states)
    if n < 1:
        raise ValueError("machine needs at least one state")
    order = {s.name: i for i, s in enumerate(machine.states)}
    pool = _register_pool(n)
    registers = ("out",) + pool
    out = "out"

    start, init_contents = initial_state(machine)
    key_of: dict = {start: "s0"}
    queue = deque([start])
    sst_transitions: dict = {}
    max_nodes = 0
    max_edges = 0
    while queue:
        current = queue.popleft()
        max_nodes = max(max_nodes, forest_nodes(current[1]))
        max_edges = max(max_edges, forest_edges(current[1]))
        for a in machine.input_alphabet:
            result = step(current, a, machine, pool, out, order)
            if result is None:
                continue
            target, update, colors = result
            if target not in key_of:
                if len(key_of) >= state_cap:
                    raise StateExplosion(f"more than {state_cap} summaries reachable")
                key_of[target] = f"s{len(key_of)}"
                queue.append(target)
            sst_transitions[(current, a)] = (target, update, colors)

    ini = State("ini", True)
    states = {key: State(f"{name}_{key[0]}", True) for key, name in key_of.items()}
    transitions: dict = {}
    for (src_key, a), (tgt_key, update, colors) in sst_transitions.items():
        transitions[(states[src_key], a)] = SstTransition(states[tgt_key], update, colors)
    # The synthetic initial state performs the first step with the initial
    # register contents substituted in, so no run ever returns to it.
    for a in machine.input_alphabet:
        result = sst_transitions.get((start, a))
        if result is None:
            continue
        target, update, colors = result
        inlined = {r: _inline(img, init_contents) for r, img in update.images}
        transitions[(ini, a)] = SstTransition(
            states[target], Substitution.from_dict(inlined), colors
        )

    sst = CopylessParitySST(
        input_alphabet=machine.input_alphabet,
        output_alphabet=machine.output_alphabet,
        states=(ini,) + tuple(states[k] for k in key_of),
        initial=ini,
        transitions=transitions,
        registers=registers,
        out=out,
        k=machine.k,
        ell=machine.ell,
    )
    if details is not None:
        details["state_map"] = {states[k].name: k for k in key_of}
        details["start"] = start
        details["init_contents"] = init_contents
        details["max_forest_nodes"] = max_nodes
        details["max_forest_edges"] = max_edges
        details["summary_count"] = len(key_of)
    return sst


def _inline(image: tuple[Token, ...], contents: dict[str, tuple[str, ...]]) -> tuple[Token, ...]:
    expanded: list[Token] = []
    for kind, value in image:
        if kind == "reg" and value in contents:
            expanded.extend(sym(b) for b in contents[value])
        elif kind == "reg" and value != "out":
            continue  # initially empty register
        else:
            expanded.append((kind, value))
    return tuple(expanded)


# ---------------------------------------------------------------------------
# Brute-force oracle


def right_right_runs(machine: TwoWayParityTransducer, word: tuple) -> list[dict]:
    """All completed right-to-right runs over the finite prefix ``word``.

    A run enters at the right end in a backward state and completes when it
    exits at the right end in a forward state; runs that get stuck, loop,
    or never return are omitted.  Each result carries the entry and exit
    state names, the production, and the per-coloring minimum color.
    """
    prefix = (LEFT_END,) + tuple(word)
    sentinels = odd_sentinels(machine)
    results = []
    for entry in machine.states:
        if entry.forward:
            continue
        summary = run_on_finite(machine, prefix, entry, sentinels)
        if isinstance(summary.exit, State):
            results.append(
                {
                    "entry": entry.name,
                    "exit": summary.exit.name,
                    "production": summary.production,
                    "min_colors": summary.min_colors,
                }
            )
    return results


def left_right_endpoint(machine: TwoWayParityTransducer, word: tuple):
    """State in which the main run exits the prefix ``word`` on the right,
    or None if it gets stuck or loops inside."""
    summary = run_on_finite(machine, (LEFT_END,) + tuple(word), machine.initial)
    return summary.exit.name if isinstance(summary.exit, State) else None
