"""Shared checking helpers and reference constructions for the test modules."""

import hashlib
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Optional

from omegatrans.compose import run_on_finite
from omegatrans.evaluate import REJECTED_LOOP, _run, eval_machine
from omegatrans.io import loads_machine
from omegatrans.lasso import LassoWord, lasso_canonicalize
from omegatrans.machines import (
    LEFT_END,
    State,
    Substitution,
    Transition,
    TwoWayParityTransducer,
    advance,
    drop_left_end_into_initial,
    odd_sentinels,
    takeable,
    unique_names,
)


def load_machine(path):
    """The machine in the JSON document at ``path``."""
    with open(path) as fh:
        return loads_machine(fh.read())


def lasso_equal(w1: LassoWord, w2: LassoWord) -> bool:
    """True iff the two representations denote the same infinite word."""
    return lasso_canonicalize(w1) == lasso_canonicalize(w2)


# --- two-way runs step by step, a reference for the oracle's run loop --------


@dataclass(frozen=True, slots=True)
class Configuration:
    """Head state and position; a forward state reads the letter at
    ``position``, a backward state the letter at ``position - 1`` (the
    endmarker when that is negative)."""

    state: State
    position: int


def step_two_way(
    machine: TwoWayParityTransducer, word: LassoWord, config: Configuration
):
    """One successor step (see ``advance``); None when the needed
    transition is undefined.  Returns (next configuration, output word,
    colors)."""
    state, pos = config.state, config.position
    read_pos = pos if state.forward else pos - 1
    step = advance(machine, state, pos, word.letter(read_pos) if read_pos >= 0 else LEFT_END)
    if step is None:
        return None
    tr, new_pos = step
    return Configuration(tr.target, new_pos), tr.output, tr.colors


@dataclass
class TwoWayRun:
    """Full record of a classified two-way simulation."""

    kind: str  # one of the verdict constants, or SHIFT_LOOP
    configs: list[Configuration] = field(default_factory=list)
    outputs: list[tuple[str, ...]] = field(default_factory=list)
    colors: list[tuple[int, ...]] = field(default_factory=list)
    loop_start: int = -1
    loop_end: int = -1


def simulate_two_way(
    machine: TwoWayParityTransducer, word: LassoWord, max_steps: int
) -> TwoWayRun:
    """Simulate until the run is classified or ``max_steps`` transitions
    ran, decoding the oracle's int-keyed trail into configurations."""
    kind, trail, moves, loop_start, loop_end = _run(machine, lasso_canonicalize(word), max_steps)
    states = machine.states
    configs = [Configuration(states[c % len(states)], c // len(states)) for c in trail]
    if kind == REJECTED_LOOP:
        configs.append(configs[loop_start])
    return TwoWayRun(
        kind, configs, [m[2] for m in moves], [m[3] for m in moves], loop_start, loop_end
    )


# --- register-machine outputs over every register, a reference for the oracle --


def full_register_output(sst, head: list, loop: list, max_output: int):
    """The output rule of ``evaluate._register_output``, computed over every
    register: the head's updates applied to all registers and the loop's
    updates composed in full before the registers feeding ``out`` are
    picked.  The oracle expands only those registers, on demand.  A
    register an update leaves out reads as empty, as in
    ``Substitution.apply``."""
    updates = [Substitution.from_dict(move[2]) for move in (*head, *loop)]
    valuation: dict[str, tuple[str, ...]] = {r: () for r in sst.registers}
    for update in updates[: len(head)]:
        valuation = update.apply(valuation)
    loop_update = reduce(Substitution.then, updates[len(head):])
    images = dict(loop_update.images)
    out_tail = images.get(sst.out, ())[1:]  # image is out · tail

    feeding = {value for kind, value in out_tail if kind == "reg"}
    while True:
        grown = set(feeding)
        for r in feeding:
            grown.update(v for kind, v in images.get(r, ()) if kind == "reg")
        if grown == feeding:
            break
        feeding = grown
    others = tuple(r for r in sst.registers if r in feeding and r != sst.out)
    kept = (sst.out, *others)
    loop_update = Substitution.from_dict({r: images.get(r, ()) for r in kept})
    valuation = {r: valuation.get(r, ()) for r in kept}

    seen_contents: dict[tuple, int] = {tuple(valuation[r] for r in others): 0}
    boundary_outputs = [valuation[sst.out]]
    for it in range(1, len(others) + 2):
        valuation = loop_update.apply(valuation)
        boundary_outputs.append(valuation[sst.out])
        key = tuple(valuation[r] for r in others)
        if key in seen_contents:
            prefix = boundary_outputs[seen_contents[key]]
            return prefix, boundary_outputs[it][len(prefix):]
        seen_contents[key] = it
        if sum(map(len, valuation.values())) > max_output:
            break
    return None


# --- reversibility on raw (source, letter, target) triples ---------------------


def deterministic_triples(triples) -> bool:
    """True iff no (source, letter) pair has two distinct targets."""
    seen: dict[tuple, object] = {}
    for src, letter, tgt in triples:
        key = (src, letter)
        if key in seen and seen[key] != tgt:
            return False
        seen[key] = tgt
    return True


def codeterministic_triples(triples) -> bool:
    """True iff no (letter, target) pair has two distinct sources: the
    reference for ``validate_reversible`` on machines."""
    seen: dict[tuple, object] = {}
    for src, letter, tgt in triples:
        key = (letter, tgt)
        if key in seen and seen[key] != src:
            return False
        seen[key] = src
    return True


def reversible_triples(triples) -> bool:
    return deterministic_triples(triples) and codeterministic_triples(triples)


def abv(machine: TwoWayParityTransducer, a, q: State) -> Optional[State]:
    """Least state above ``q`` (declaration order) sharing its successor on
    ``a``: the "above" map of the one-way construction, by brute force."""
    tr = machine.transitions.get((q, a))
    if tr is None:
        return None
    states = iter(machine.states)
    for q2 in states:
        if q2 == q:
            break
    for q2 in states:
        tr2 = machine.transitions.get((q2, a))
        if tr2 is not None and tr2.target == tr.target:
            return q2
    return None


def full_product(first, second) -> TwoWayParityTransducer:
    """The composition of ``first`` then ``second`` over all |Q|·|P| pairs,
    straight from the definition: the reference ``compose_reachable`` is
    checked against, once pruned to the reachable pairs.

    A pair (q, p) is forward when q and p have the same polarity.  On each
    letter, a forward p steps ``first`` forward from q, and a backward p
    rewinds the unique move of ``first`` into q; ``second`` then runs from p
    across that move's output, and the side it leaves on says whether
    ``first`` stands after the move or before it.  With ``first`` fully
    rewound (q initial), a backward p reads ``second``'s own endmarker.
    Endmarker moves into an initial state are dropped first: they would
    revisit the initial configuration.
    """
    first = drop_left_end_into_initial(first)
    second = drop_left_end_into_initial(second)
    pairs = [(q, p) for q in first.states for p in second.states]
    names = unique_names(f"{q.name}.{p.name}" for q, p in pairs)
    state = {
        (q, p): State(name, q.forward == p.forward) for (q, p), name in zip(pairs, names)
    }
    # (before, move, after), by the state it leaves and by the state it enters
    out_of, into = {}, {}
    for (src, a), tr in first.transitions.items():
        out_of[src, a] = into[tr.target, a] = (src, tr, tr.target)
    transitions = {}
    for q, p in pairs:
        for a in (*first.input_alphabet, LEFT_END):
            move = (out_of if p.forward else into).get((q, a))
            if move is None:
                continue
            before, tr, after = move
            run = run_on_finite(second, tr.output, p)
            if isinstance(run.exit, State):
                target = (after if run.exit.forward else before, run.exit)
                transitions[(state[q, p], a)] = Transition(
                    state[target], run.production, tr.colors + run.min_colors
                )
        end = second.transitions.get((p, LEFT_END))
        if q == first.initial and not p.forward and end is not None:
            transitions[(state[q, p], LEFT_END)] = Transition(
                state[first.initial, end.target], end.output, odd_sentinels(first) + end.colors
            )
    return TwoWayParityTransducer(
        input_alphabet=first.input_alphabet,
        output_alphabet=second.output_alphabet,
        states=tuple(state.values()),
        initial=state[first.initial, second.initial],
        transitions=transitions,
        k=first.k + second.k,
        ell=1 + max((c for tr in transitions.values() for c in tr.colors), default=0),
    )


def prune_unreachable(machine: TwoWayParityTransducer) -> TwoWayParityTransducer:
    """Restrict to the states reachable from the initial state, listed in
    the order a breadth-first search first reaches them, trying letters in
    alphabet order and then the endmarker; ``prune_unreachable(full_product(a,
    b))`` is the reference ``compose_reachable(a, b)`` is checked against
    (up to ``ell``)."""
    letters = (*machine.input_alphabet, LEFT_END)
    states = [machine.initial]
    reached = {machine.initial}
    for s in states:
        for a in letters:
            tr = machine.transitions.get((s, a))
            if tr is not None and tr.target not in reached:
                reached.add(tr.target)
                states.append(tr.target)
    transitions = {
        (src, letter): tr for (src, letter), tr in machine.transitions.items() if src in reached
    }
    return replace(machine, states=tuple(states), transitions=transitions)


def merge_equal_states_on_updates(sst):
    """Reference for ``sst2rev.merge_equal_states``: Moore partition
    refinement whose signatures hold each move's update and colors
    themselves, so every round hashes every update again."""
    block = dict.fromkeys(sst.states, 0)
    count = 1
    while True:
        signatures: dict = {}
        refined = {}
        for s in sst.states:
            moves = (sst.transitions.get((s, a)) for a in sst.input_alphabet)
            signature = tuple(tr and (tr.update, tr.colors, block[tr.target]) for tr in moves)
            refined[s] = signatures.setdefault((block[s], signature), len(signatures))
        block = refined
        if len(signatures) == count:
            break
        count = len(signatures)
    first = {}
    for s in sst.states:
        first.setdefault(block[s], s)
    transitions = {
        (src, a): tr._replace(target=first[block[tr.target]])
        for (src, a), tr in sst.transitions.items()
        if first[block[src]] == src
    }
    return replace(
        sst,
        states=tuple(first.values()),
        initial=first[block[sst.initial]],
        transitions=transitions,
    )


def drop_dead_registers_fixpoint(sst):
    """Reference for ``sst2rev.drop_dead_registers``: grow each state's live
    registers by re-scanning every image of every transition until no live
    set grows, then empty the images of the registers dead at each
    transition's target."""
    live = {s: {sst.out} for s in sst.states}
    changed = True
    while changed:
        changed = False
        for (src, _), tr in sst.transitions.items():
            before = len(live[src])
            for r, img in tr.update.images:
                if r in live[tr.target]:
                    live[src].update(value for kind, value in img if kind == "reg")
            changed |= len(live[src]) != before
    transitions = {}
    for key, tr in sst.transitions.items():
        keep = live[tr.target]
        images = tuple((r, img if r in keep else ()) for r, img in tr.update.images)
        transitions[key] = tr._replace(update=Substitution(images))
    return replace(sst, transitions=transitions)


def register_names_by_use(sst):
    """Reference for the renaming ``sst2rev.name_registers_by_use`` picks:
    per state, each register's new name.  The registers besides ``out``
    are sorted by where each letter's update puts them, (holder's position,
    index in its image), unread ones last, then by position; the i-th takes
    the i-th name besides ``out``."""
    pool = [r for r in sst.registers if r != sst.out]
    names = {}
    for s in sst.states:
        def key(r):
            uses = []
            for a in sst.input_alphabet:
                tr = sst.transitions.get((s, a))
                found = (len(sst.registers), 0)
                for holder, img in tr.update.images if tr else ():
                    if ("reg", r) in img:
                        found = (sst.registers.index(holder), img.index(("reg", r)))
                uses.append(found)
            return uses, pool.index(r)

        names[s] = dict(zip(sorted(pool, key=key), pool), **{sst.out: sst.out})
    return names


def rename_registers(sst, names):
    """``sst`` with the registers at each state s renamed by ``names[s]``:
    a move from s to t names its holders by t's map and the registers its
    images read by s's."""
    transitions = {}
    for (src, a), tr in sst.transitions.items():
        read, hold = names[src], names[tr.target]
        images = {
            hold[r]: [(kind, read[value] if kind == "reg" else value) for kind, value in img]
            for r, img in tr.update.images
        }
        transitions[(src, a)] = tr._replace(update=Substitution.from_dict(images))
    return replace(sst, transitions=transitions)


class _Asked(dict):
    """A transition map that records each key ``get`` is called with."""

    def __init__(self, transitions):
        super().__init__(transitions)
        self.keys_asked = []

    def get(self, key, default=None):
        self.keys_asked.append(key)
        return super().get(key, default)


def asked_moves(machine: TwoWayParityTransducer) -> list[tuple]:
    """The (state, letter) keys ``takeable`` asks ``machine`` for, one per
    call to ``walk_takeable``'s ``move``, in the order asked; undefined
    moves included."""
    transitions = _Asked(machine.transitions)
    takeable(replace(machine, transitions=transitions))
    return transitions.keys_asked


def drop_untakeable(machine: TwoWayParityTransducer) -> TwoWayParityTransducer:
    """``takeable(machine)`` without the states its moves neither leave nor
    enter, the initial state aside; names, records, ``k`` and ``ell`` stay
    as they are."""
    walked = takeable(machine)
    alive = {machine.initial, *(tr.target for tr in walked.transitions.values())}
    return replace(walked, states=tuple(s for s in machine.states if s in alive))


def content_digest(machine: TwoWayParityTransducer) -> str:
    """SHA-256 of what the machine is, whatever order its states and
    transitions come in: the sorted (source, letter, target, output,
    colors) rows, the sorted states with their polarity, the initial
    state, ``k`` and ``ell``."""
    rows = sorted(
        repr((src.name, repr(a), tr.target.name, tr.output, tr.colors))
        for (src, a), tr in machine.transitions.items()
    )
    states = sorted(repr(s) for s in machine.states)
    head = repr((machine.initial, machine.k, machine.ell))
    return hashlib.sha256("\n".join([head, *states, *rows]).encode()).hexdigest()


def left_right_endpoint(machine: TwoWayParityTransducer, word: tuple):
    """State in which the main run exits the prefix ``word`` on the right,
    or None if it gets stuck or loops inside."""
    summary = run_on_finite(machine, (LEFT_END,) + tuple(word), machine.initial)
    return summary.exit.name if isinstance(summary.exit, State) else None


# --- merging forests, read from their preorder --------------------------------


def right_right_runs(machine: TwoWayParityTransducer, word: tuple) -> list[dict]:
    """All completed right-to-right runs over the finite prefix ``word``, by
    brute force: the reference the merging forests are checked against.

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


def forest_nodes(preorder):
    """Decode a forest preorder into one (label, colors, child count, parent)
    per node, indexed by node id (preorder position); a root's parent is
    None."""
    nodes = []
    open_nodes = []  # [node id, children still to come]
    for i in range(0, len(preorder), 3):
        label, colors, count = preorder[i : i + 3]
        parent = None
        if open_nodes:
            parent = open_nodes[-1][0]
            open_nodes[-1][1] -= 1
            if not open_nodes[-1][1]:
                open_nodes.pop()
        if count:
            open_nodes.append([len(nodes), count])
        nodes.append((label, colors, count, parent))
    assert not open_nodes, "preorder ends inside a tree"
    return nodes


def forest_runs(preorder):
    """One (leaf label, root label, edges from the leaf up, leaf colors) per
    leaf.  Edges are numbered in preorder of their child node, which is the
    order in which they own the pool's registers."""
    nodes = forest_nodes(preorder)
    edge_of = {}
    for node, (_, _, _, parent) in enumerate(nodes):
        if parent is not None:
            edge_of[node] = len(edge_of)
    runs = []
    for node, (label, colors, count, parent) in enumerate(nodes):
        if count:
            continue
        edges = []
        while parent is not None:
            edges.append(edge_of[node])
            node, parent = parent, nodes[parent][3]
        runs.append((label, nodes[node][0], edges, colors))
    return runs


def forest_leaf_root_pairs(preorder):
    return {(leaf, root) for leaf, root, _, _ in forest_runs(preorder)}


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


def check_forest_against_runs(machine, sst, details, word):
    """Forest content must equal the completed right-right runs that do not
    merge into the main run (those exit at its endpoint), production and
    minimum colors included.  The forests summarize only the moves some run
    can take, so the runs are those of ``takeable(machine)``.  Returns a
    list of complaints."""
    machine = takeable(machine)
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
    state, preorder = key
    if state != endpoint:
        complaints.append(f"{word}: endpoint {state} != {endpoint}")
        return complaints
    oracle = {
        (r["entry"], r["exit"]): (r["production"], tuple(r["min_colors"]))
        for r in right_right_runs(machine, word)
        if r["exit"] != endpoint
    }
    if forest_leaf_root_pairs(preorder) != set(oracle):
        complaints.append(f"{word}: run set mismatch")
        return complaints
    pool = tuple(r for r in sst.registers if r != sst.out)
    for leaf, root, edges, colors in forest_runs(preorder):
        production = tuple(b for e in edges for b in val.get(pool[e], ()))
        want_production, want_colors = oracle[(leaf, root)]
        if production != want_production:
            complaints.append(f"{word}: production of {leaf} differs")
        if tuple(colors) != want_colors:
            complaints.append(f"{word}: colors of {leaf} differ")
    return complaints


def check_two_stage(first, second, composed, lassos, budget=None):
    """Direct evaluation of the composition vs running the stages in series.

    Returns (failures, inconclusive_count); lassos where any stage ran out
    of budget count as inconclusive.
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
        stage2 = eval_machine(second, stage1.output, budget)
        if stage2.domain_class() == "inconclusive":
            inconclusive += 1
            continue
        if stage2.in_domain() != direct.in_domain():
            failures.append((w, f"domains differ: {stage2.verdict} vs {direct.verdict}"))
            continue
        if stage2.in_domain() and not lasso_equal(stage2.output, direct.output):
            failures.append((w, f"outputs differ: {stage2.output} vs {direct.output}"))
    return failures, inconclusive
