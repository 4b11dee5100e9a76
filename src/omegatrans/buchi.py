"""End-to-end pipeline and the single-accepting-condition constructions.

``dbt_to_rbt`` chains the two halves: deterministic two-way to register
machine, register machine to reversible two-way.  The remaining operations
handle machines whose acceptance is a transition marking (some marked
transition must recur) or no condition at all beyond producing an infinite
output: marking and coloring interconvert mechanically, and a reversible
marked machine folds into an unconditioned one by replaying each segment
between marked transitions after the fact: silently simulate, rewind on a
marked transition, then replay with output.
"""

from __future__ import annotations

from dataclasses import replace

from .compose import NotReversible
from .forests import STATE_CAP, _two_way_to_sst
from .machines import (
    LEFT_END,
    State,
    Transition,
    TwoWayParityTransducer,
    drop_left_end_into_initial,
    require,
    validate_reversible,
)
from .sst2rev import _sst_to_reversible

BuchiMarking = frozenset  # of (State, letter) transition keys


def dbt_to_rbt(machine: TwoWayParityTransducer, state_cap: int = STATE_CAP) -> TwoWayParityTransducer:
    """Reversible two-way transducer computing the same function, with the
    same number of colorings."""
    require(machine, TwoWayParityTransducer, "dbt_to_rbt")
    return _sst_to_reversible(_two_way_to_sst(machine, state_cap))


def drop_acceptance(machine: TwoWayParityTransducer) -> TwoWayParityTransducer:
    """Remove all colorings: the domain widens to every input whose run
    reads the whole word and produces an infinite output, and outputs are
    unchanged where both machines are defined."""
    transitions = {key: tr._replace(colors=()) for key, tr in machine.transitions.items()}
    return replace(machine, transitions=transitions, k=0, ell=1)


def buchi_as_parity(
    machine: TwoWayParityTransducer, marking: BuchiMarking
) -> TwoWayParityTransducer:
    """Encode a transition marking as one two-color condition: marked
    transitions get color 0, the rest color 1."""
    transitions = {
        key: tr._replace(colors=(0,) if key in marking else (1,))
        for key, tr in machine.transitions.items()
    }
    return replace(machine, transitions=transitions, k=1, ell=2)


def marking_from_colors(machine: TwoWayParityTransducer) -> BuchiMarking:
    """Marked transitions of a two-color machine: those of color 0."""
    if machine.k != 1:
        raise ValueError("marking recovery needs exactly one coloring")
    return frozenset(key for key, tr in machine.transitions.items() if tr.colors[0] == 0)


def buchi_to_noacc(
    machine: TwoWayParityTransducer, marking: BuchiMarking
) -> TwoWayParityTransducer:
    """Fold a reversible marked machine into one with no acceptance condition.

    Three copies of each state: silent simulation until the next transition
    is marked, a backward unfolding of the (reversible) run to the previous
    marked transition or the run's start, and a producing replay that ends
    by taking the marked transition with its output.  Exactly
    ``bounds.folded_states(n)`` states for n source states; the output
    machine accepts by producing infinitely, which happens iff marked
    transitions recur and the source's output is infinite.
    """
    require(machine, TwoWayParityTransducer, "buchi_to_noacc")
    if not validate_reversible(machine):
        raise NotReversible("marked-transition folding needs a reversible machine")
    machine = drop_left_end_into_initial(machine)
    marking = frozenset(k for k in marking if k in machine.transitions)

    sim = {s: State(f"sim.{s.name}", s.forward) for s in machine.states}
    rew = {s: State(f"rew.{s.name}", not s.forward) for s in machine.states}
    prod = {s: State(f"prod.{s.name}", s.forward) for s in machine.states}

    transitions: dict = {}
    predecessor: dict = {}
    for (src, letter), tr in machine.transitions.items():
        predecessor[(letter, tr.target)] = (src, (src, letter))
        accepting = (src, letter) in marking
        if accepting:
            transitions[(sim[src], letter)] = Transition(rew[src], (), ())
            transitions[(prod[src], letter)] = Transition(sim[tr.target], tr.output, ())
        else:
            transitions[(sim[src], letter)] = Transition(sim[tr.target], (), ())
            transitions[(prod[src], letter)] = Transition(prod[tr.target], tr.output, ())
    for s in machine.states:
        # The rewind copy of s has flipped polarity, so it reads the
        # endmarker exactly when s is forward.
        reads = tuple(machine.input_alphabet) + ((LEFT_END,) if s.forward else ())
        for letter in reads:
            pred = predecessor.get((letter, s))
            if pred is None:
                # Only the initial configuration has no predecessor; the
                # rewind has reached the start of the run.
                if letter == LEFT_END and s == machine.initial:
                    transitions[(rew[s], letter)] = Transition(prod[s], (), ())
                continue
            p, key = pred
            if key in marking:
                transitions[(rew[s], letter)] = Transition(prod[s], (), ())
            else:
                transitions[(rew[s], letter)] = Transition(rew[p], (), ())

    states = tuple(
        mode[s] for s in machine.states for mode in (sim, rew, prod)
    )
    return TwoWayParityTransducer(
        input_alphabet=machine.input_alphabet,
        output_alphabet=machine.output_alphabet,
        states=states,
        initial=sim[machine.initial],
        transitions=transitions,
        k=0,
        ell=1,
    )
