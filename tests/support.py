"""Shared checking helpers for the construction test modules."""

from omegatrans.evaluate import eval_machine
from omegatrans.forests import (
    ForestNode,
    forest_leaf_root_pairs,
    forest_leaves,
    left_right_endpoint,
    right_right_runs,
)
from omegatrans.lasso import lasso_equal


def _min_leaf(node, order):
    if node.is_leaf():
        return order[node.label]
    return min(_min_leaf(c, order) for c in node.children)


def canonical_forest(forest, order):
    """Sort sibling subtrees by least leaf label and trees by root label.

    Sibling order carries no run semantics (only the nesting does), so this
    makes structurally equal summaries compare and hash equal.
    """

    def canon(node):
        children = tuple(
            sorted((canon(c) for c in node.children), key=lambda n: _min_leaf(n, order))
        )
        return ForestNode(node.label, node.colors, children)

    return tuple(sorted((canon(t) for t in forest), key=lambda n: order[n.label]))


def _dfs_edge_paths(forest):
    """Edges in traversal order, keyed by the child node's path."""
    paths = []

    def walk(node, path):
        for i, child in enumerate(node.children):
            paths.append(path + (i,))
            walk(child, path + (i,))

    for t, tree in enumerate(forest):
        walk(tree, (t,))
    return paths


def forest_registers(forest, pool):
    """Reference edge-to-register map: traversal order meets pool order."""
    return {path: pool[i] for i, path in enumerate(_dfs_edge_paths(forest))}


def sst_summary_after(sst, details, word):
    """(summary, valuation) reached after reading ``word``, or (None, None)."""
    state = sst.initial
    val = {r: () for r in sst.registers}
    if not word:
        return details["start"], dict(val, **details["init_contents"])
    for a in word:
        tr = sst.transitions.get((state, a))
        if tr is None:
            return None, None
        val = tr.update.apply(val)
        state = tr.target
    return details["state_map"].get(state.name), val


def forest_run_contents(forest, valuation, pool):
    """Per-leaf (production, colors) by concatenating the path registers."""
    assignment = forest_registers(forest, pool)
    runs = {}

    def walk(node, path, regs):
        if node.is_leaf():
            production = tuple(b for r in regs for b in valuation.get(r, ()))
            runs[node.label] = (production, node.colors)
        for i, child in enumerate(node.children):
            walk(child, path + (i,), [assignment[path + (i,)]] + regs)

    for t, tree in enumerate(forest):
        walk(tree, (t,), [])
    return runs


def check_forest_against_runs(machine, sst, details, word):
    """Forest content must equal the completed right-right runs that do not
    merge into the main run (those exit at its endpoint), production and
    minimum colors included.  Returns a list of complaints."""
    complaints = []
    key, val = sst_summary_after(sst, details, word)
    endpoint = left_right_endpoint(machine, word)
    if key is None:
        if endpoint is not None:
            complaints.append(f"{word}: summary died but the main run is alive")
        return complaints
    if endpoint is None:
        complaints.append(f"{word}: summary alive but the main run died")
        return complaints
    state, forest = key
    if state != endpoint:
        complaints.append(f"{word}: endpoint {state} != {endpoint}")
        return complaints
    oracle = {
        (r["entry"], r["exit"]): (r["production"], tuple(r["min_colors"]))
        for r in right_right_runs(machine, word)
        if r["exit"] != endpoint
    }
    if forest_leaf_root_pairs(forest) != set(oracle):
        complaints.append(f"{word}: run set mismatch")
        return complaints
    pool = tuple(r for r in sst.registers if r != sst.out)
    runs = forest_run_contents(forest, val, pool)
    for tree in forest:
        for leaf in forest_leaves(tree):
            production, colors = runs[leaf.label]
            want_production, want_colors = oracle[(leaf.label, tree.label)]
            if production != want_production:
                complaints.append(f"{word}: production of {leaf.label} differs")
            if tuple(colors) != want_colors:
                complaints.append(f"{word}: colors of {leaf.label} differ")
    return complaints


def output_prefix(outcome, length):
    if outcome.prefix_only or outcome.output is None:
        return outcome.output_prefix[:length]
    return outcome.output.unroll(length)


def check_two_stage(first, second, composed, lassos, budget=None):
    """Direct evaluation of the composition vs running the stages in series.

    Returns (failures, inconclusive_count); lassos where any stage ran out
    of budget or produced only an output prefix count as inconclusive.
    """
    failures = []
    inconclusive = 0
    for w in lassos:
        direct = eval_machine(composed, w, budget)
        stage1 = eval_machine(first, w, budget)
        if "inconclusive" in (direct.domain_class(), stage1.domain_class()):
            inconclusive += 1
            continue
        if not stage1.in_domain():
            if direct.in_domain():
                failures.append((w, "composition accepts outside the stage-1 domain"))
            continue
        if stage1.prefix_only:
            inconclusive += 1
            continue
        stage2 = eval_machine(second, stage1.output, budget)
        if stage2.domain_class() == "inconclusive":
            inconclusive += 1
            continue
        if stage2.in_domain() != direct.in_domain():
            failures.append((w, f"domains differ: {stage2.verdict} vs {direct.verdict}"))
            continue
        if stage2.in_domain():
            if stage2.prefix_only or direct.prefix_only:
                inconclusive += 1
            elif not lasso_equal(stage2.output, direct.output):
                failures.append((w, f"outputs differ: {stage2.output} vs {direct.output}"))
    return failures, inconclusive
