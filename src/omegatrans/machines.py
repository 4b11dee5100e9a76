"""Machine data model and structural validators.

Letters are ordinary hashable values; in practice they are one-character
strings, except for the substitution-stream machines where whole
substitutions act as letters.  The reserved left endmarker ``LEFT_END``
lives outside every alphabet: transitions keyed on it must go from a
backward state to a forward state and never move the head.

The records built once per state and per transition (``State``,
``Transition``, ``SstTransition``) are immutable named tuples, so that
building, hashing and comparing them runs in C: the constructions emit
them by the hundred thousand.  ``record._replace(field=...)`` makes a
changed copy.  Being tuples, they also equal plain tuples of the same
fields; no table in the library keys both on records and on plain tuples.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass, replace
from typing import Hashable, Iterable, Mapping, NamedTuple

# Reserved endmarker token; rejected by the loader as an alphabet letter.
LEFT_END = "$lend"

Letter = Hashable


class State(NamedTuple):
    """A control state with a head-direction polarity."""

    name: str
    forward: bool

    def __repr__(self) -> str:
        return f"{self.name}{'+' if self.forward else '-'}"


class Transition(NamedTuple):
    target: State
    output: tuple[str, ...]
    colors: tuple[int, ...]


@dataclass(frozen=True)
class TwoWayParityTransducer:
    """Deterministic two-way transducer with a conjunction of parity conditions.

    Determinism is representational: ``transitions`` is keyed by
    (state, letter).  ``k`` coloring functions assign each transition a
    color vector of naturals below ``ell``; a run is accepting when it
    reads the whole word and, for every coloring index, the minimum color
    among transitions taken infinitely often is even.  Machines with
    ``k == 0`` accept exactly the whole-word-reading runs.

    Instances are immutable after construction and safe to share.
    """

    input_alphabet: tuple[Letter, ...]
    output_alphabet: tuple[str, ...]
    states: tuple[State, ...]
    initial: State
    transitions: dict[tuple[State, Letter], Transition]
    k: int
    ell: int

    def is_one_way(self) -> bool:
        return all(s.forward for s in self.states)


def advance(machine: TwoWayParityTransducer, state: State, pos: int, letter: Letter):
    """The one head-move rule of two-way machines.

    ``state`` reads ``letter`` with the head at ``pos``: a forward state
    reads the letter at ``pos``, a backward state the one at ``pos - 1``.
    Returns the transition taken and the new head position, or None when
    the transition is undefined.  Forward-to-forward moves right,
    backward-to-backward moves left, polarity flips keep the head in place;
    on the endmarker the head never moves.  Register machines, whose states
    are all forward, move by the same rule.
    """
    tr = machine.transitions.get((state, letter))
    if tr is None:
        return None
    if state.forward:
        return tr, pos + 1 if tr.target.forward else pos
    return tr, pos if tr.target.forward or letter == LEFT_END else pos - 1


# ---------------------------------------------------------------------------
# Substitutions and copyless register machines


Token = tuple[str, str]  # ("reg", register-name) or ("sym", output-letter)


def reg(name: str) -> Token:
    return ("reg", name)


def sym(letter: str) -> Token:
    return ("sym", letter)


@dataclass(frozen=True)
class Substitution:
    """Register update mapping each register to a word over registers and letters.

    Stored as a sorted tuple of (register, image) pairs so that values are
    hashable; this lets whole substitutions serve as input letters for the
    register-walking machines.
    """

    images: tuple[tuple[str, tuple[Token, ...]], ...]

    @classmethod
    def from_dict(cls, images: Mapping[str, Iterable[Token]]) -> "Substitution":
        return cls(tuple(sorted((r, tuple(img)) for r, img in images.items())))

    def image(self, register: str) -> tuple[Token, ...]:
        for r, img in self.images:
            if r == register:
                return img
        return ()

    def is_copyless(self) -> bool:
        seen: set[str] = set()
        for _, img in self.images:
            for kind, value in img:
                if kind == "reg":
                    if value in seen:
                        return False
                    seen.add(value)
        return True

    def apply(self, valuation: Mapping[str, tuple[str, ...]]) -> dict[str, tuple[str, ...]]:
        """New register contents after applying this update to ``valuation``."""
        new: dict[str, tuple[str, ...]] = {}
        for r, img in self.images:
            parts: list[str] = []
            for kind, value in img:
                if kind == "reg":
                    parts.extend(valuation.get(value, ()))
                else:
                    parts.append(value)
            new[r] = tuple(parts)
        return new

    def then(self, later: "Substitution") -> "Substitution":
        """Sequential composition: apply ``self`` first, then ``later``.
        The result lists ``later``'s registers, so it stays sorted."""
        earlier = dict(self.images)
        images = []
        for r, img in later.images:
            expanded: list[Token] = []
            for token in img:
                if token[0] == "reg":
                    expanded.extend(earlier.get(token[1], ()))
                else:
                    expanded.append(token)
            images.append((r, tuple(expanded)))
        return Substitution(tuple(images))

    def display(self) -> str:
        parts = []
        for r, img in self.images:
            body = "".join(v if kind == "sym" else f"<{v}>" for kind, v in img)
            parts.append(f"{r}:={body or 'ε'}")
        return "{" + ", ".join(parts) + "}"

    def __repr__(self) -> str:
        return self.display()


class SstTransition(NamedTuple):
    target: State
    update: Substitution
    colors: tuple[int, ...]


@dataclass(frozen=True)
class CopylessParitySST:
    """One-way parity automaton with copyless register updates.

    The distinguished ``out`` register may only grow: every update's image
    of ``out`` starts with ``out`` itself, so its contents form a weakly
    increasing word sequence whose limit is the machine's output.
    """

    input_alphabet: tuple[Letter, ...]
    output_alphabet: tuple[str, ...]
    states: tuple[State, ...]
    initial: State
    transitions: dict[tuple[State, Letter], SstTransition]
    registers: tuple[str, ...]
    out: str
    k: int
    ell: int


# ---------------------------------------------------------------------------
# Validators


def validate_reversible(machine) -> bool:
    """Deterministic and co-deterministic: no (letter, target) pair has two
    distinct sources.  The transition map makes every machine
    deterministic."""
    # Keys are unique, so transitions sharing (letter, target) have
    # distinct sources.
    targets: dict = {}  # letter -> targets reached on it so far
    for (_, letter), tr in machine.transitions.items():
        seen = targets.get(letter)
        if seen is None:
            seen = targets[letter] = set()
        if tr.target in seen:
            return False
        seen.add(tr.target)
    return True


def validate_one_way(machine: TwoWayParityTransducer) -> bool:
    if not machine.is_one_way():
        return False
    return all(letter != LEFT_END for (_, letter) in machine.transitions)


def _where(src: State, letter: Letter) -> str:
    """A transition's location in validator messages."""
    return f"({src.name}, {letter!r})"


def _common_problems(machine) -> list[str]:
    """Checks shared by both machine kinds: names, initial state, the
    reserved endmarker, the coloring counts, transition states, letters and
    colors."""
    problems = []
    states = set(machine.states)
    names = [s.name for s in machine.states]
    if len(set(names)) != len(names):
        problems.append("state names are not unique")
    if machine.initial not in states:
        problems.append("initial state not declared")
    alphabet = set(machine.input_alphabet)
    if LEFT_END in alphabet or LEFT_END in set(machine.output_alphabet):
        problems.append("the endmarker is reserved and cannot be an alphabet letter")
    k, ell = machine.k, machine.ell
    if k < 0 or ell < 1:
        problems.append(f"need k >= 0 and ell >= 1, got k={k}, ell={ell}")
    for (src, letter), tr in machine.transitions.items():
        if src not in states:
            problems.append(f"{_where(src, letter)}: unknown source state")
        if tr.target not in states:
            problems.append(f"{_where(src, letter)}: unknown target state")
        if letter != LEFT_END and letter not in alphabet:
            problems.append(f"{_where(src, letter)}: letter not in the input alphabet")
        if len(tr.colors) != k:
            problems.append(f"{_where(src, letter)}: expected {k} colors, got {len(tr.colors)}")
        for c in tr.colors:
            if type(c) is not int:
                problems.append(f"{_where(src, letter)}: colors must be integers, got {list(tr.colors)!r}")
                break
            if c < 0 or c >= ell:
                problems.append(f"{_where(src, letter)}: colors must lie below {ell}")
                break
    return problems


def validate_machine(machine: TwoWayParityTransducer) -> list[str]:
    """Structural well-formedness check; empty list means valid."""
    problems = _common_problems(machine)
    if machine.initial in machine.states and not machine.initial.forward:
        problems.append("initial state must be forward")
    for (src, letter), tr in machine.transitions.items():
        if letter == LEFT_END:
            if src.forward:
                problems.append(f"{_where(src, letter)}: endmarker transitions need a backward source")
            if not tr.target.forward:
                problems.append(f"{_where(src, letter)}: endmarker transitions need a forward target")
        for b in tr.output:
            if b not in machine.output_alphabet:
                problems.append(f"{_where(src, letter)}: output letter {b!r} not in the output alphabet")
    return problems


def validate_sst_machine(sst: CopylessParitySST) -> list[str]:
    """Structural check for register machines: declared registers, copyless
    updates, and out's image starting with out and no other image holding it."""
    problems = _common_problems(sst)
    if any(not s.forward for s in sst.states):
        problems.append("register machines are one-way: all states must be forward")
    if len(set(sst.registers)) != len(sst.registers):
        problems.append("register names are not unique")
    out = sst.out
    if out not in sst.registers:
        problems.append("the out register is not declared")
    regs = set(sst.registers)
    for (src, letter), tr in sst.transitions.items():
        if letter == LEFT_END:
            problems.append(f"{_where(src, letter)}: register machines cannot read the endmarker")
        if not tr.update.is_copyless():
            problems.append(f"{_where(src, letter)}: update is not copyless")
        if tr.update.image(out)[:1] != (("reg", out),):
            problems.append(f"{_where(src, letter)}: image of {out!r} must start with {out!r}")
        for r, img in tr.update.images:
            if r not in regs:
                problems.append(f"{_where(src, letter)}: update writes unknown register {r!r}")
            if r != out and ("reg", out) in img:
                problems.append(f"{_where(src, letter)}: {out!r} appears in the image of {r!r}")
            for kind, value in img:
                if kind == "reg" and value not in regs:
                    problems.append(f"{_where(src, letter)}: update reads unknown register {value!r}")
                if kind == "sym" and value not in sst.output_alphabet:
                    problems.append(
                        f"{_where(src, letter)}: output letter {value!r} not in the output alphabet"
                    )
    return problems


# ---------------------------------------------------------------------------
# Shared helpers used by the constructions


class WrongMachineKind(ValueError):
    """A construction was given a machine of a kind it does not take."""


class InvalidMachine(ValueError):
    """A construction was given a machine that fails its structural check."""


# Each kind a construction takes: its name in errors, and its validator.
_KINDS = {
    TwoWayParityTransducer: ("a two-way transducer", validate_machine),
    CopylessParitySST: ("a register machine", validate_sst_machine),
}


def require(machine, kind: type, construction: str) -> None:
    """The input check of every construction: raise WrongMachineKind unless
    ``machine`` is a ``kind``, and InvalidMachine naming each problem
    that kind's validator finds."""
    words, validate = _KINDS[kind]
    if not isinstance(machine, kind):
        raise WrongMachineKind(f"{construction}: expected {words}, got a {type(machine).__name__}")
    problems = validate(machine)
    if problems:
        raise InvalidMachine("; ".join(problems))


def collector_paused(build):
    """Run ``build`` with the cyclic garbage collector paused.

    For builders that allocate many objects and leave no reference cycles:
    a collection pass over them would find nothing to free.  The collector
    is re-enabled on return, also by an exception, only if it was enabled
    on entry.
    """

    @functools.wraps(build)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def max_colors(machine: TwoWayParityTransducer) -> tuple[int, ...]:
    """Per-coloring maximum over all transitions (0 when unused)."""
    return tuple(
        max((t.colors[i] for t in machine.transitions.values()), default=0)
        for i in range(machine.k)
    )


def odd_sentinels(machine: TwoWayParityTransducer) -> tuple[int, ...]:
    """Per-coloring odd value at least every color the machine uses.

    Used as the color of empty sub-runs when composing: an odd value above
    the whole used range can never masquerade as an accepting infinite
    minimum, and when it genuinely is the minimum the run deserves
    rejection.
    """
    return tuple(m if m % 2 == 1 else m + 1 for m in max_colors(machine))


def drop_left_end_into_initial(machine: TwoWayParityTransducer) -> TwoWayParityTransducer:
    """Remove endmarker transitions targeting the initial state.

    Any run using such a transition revisits the initial configuration and
    therefore loops without reading the whole word, so removal preserves
    the recognized function.  The constructions rely on the initial
    configuration having no predecessor.
    """
    doomed = [
        key
        for key, tr in machine.transitions.items()
        if key[1] == LEFT_END and tr.target == machine.initial
    ]
    if not doomed:
        return machine
    transitions = {k: v for k, v in machine.transitions.items() if k not in doomed}
    return replace(machine, transitions=transitions)


# Letters ``walk_takeable`` remembers on each side of the head.  On the
# det2rev corpus (generate_two_way seeds 0-29, n=7, |Σ|=3) W=2 keeps 87,982
# of the 111,604 output transitions the whole outline gives; W=3 keeps
# 86,981 at twice the cost.
WINDOW = 2


def walk_takeable(sigma: int, move) -> None:
    """Ask ``move`` for every move some run can take, each exactly once.

    States are numbers: 0 is the initial state, forward as in every valid
    machine, and the caller numbers the others 1, 2, ... as ``move`` first
    returns them.  Letters are codes: the alphabet's ``sigma`` letters in
    order, then the endmarker.  ``move(i, c)`` is called the first time
    some configuration in state i reads letter c; it returns the target's
    number and polarity, or None when the move is undefined.

    A depth-first walk over abstract configurations: the state and the
    ``WINDOW`` letters on each side of the head, where a letter not read
    yet is unknown and everything left of the endmarker is gone.  A
    forward state reads the nearest letter on the right, a backward one the
    nearest on the left; an unknown letter branches over every letter, and
    on the left also over the endmarker.  Moves shift the window as
    ``advance`` moves the head, and a letter once read stays known while it
    is in the window.  Every real configuration maps onto an explored one,
    so a run takes only moves ``move`` was asked for, and a machine of just
    those moves runs as before; a subset of a reversible map is reversible.
    """
    # Letter codes past the endmarker: an unknown letter and a position
    # left of the endmarker.  A window is a number in base B, the slot next
    # to the head least significant.
    end, unknown, gone = sigma, sigma + 1, sigma + 2
    base = sigma + 3
    span = base**WINDOW
    far = base ** (WINDOW - 1)
    unasked = object()
    polarity = [True]
    moves = [[unasked] * (sigma + 1)]  # by state, then letter code

    at_start = end + sum(gone * base**s for s in range(1, WINDOW))
    nothing_read = sum(unknown * base**s for s in range(WINDOW))
    start = at_start * span + nothing_read
    seen = {start}
    stack = [start]
    letters = range(sigma)
    letters_or_end = range(sigma + 1)
    while stack:
        rest, right = divmod(stack.pop(), span)
        i, left = divmod(rest, span)
        row = moves[i]
        ahead = polarity[i]
        if ahead:
            read = right % base
            options = letters if read == unknown else (read,)
        else:
            read = left % base
            options = letters_or_end if read == unknown else (read,)
        for c in options:
            step = row[c]
            if step is unasked:
                step = row[c] = move(i, c)
                if step is not None and step[0] == len(moves):
                    moves.append([unasked] * (sigma + 1))
                    polarity.append(step[1])
            if step is None:
                continue
            j, to_forward = step
            if ahead and to_forward:  # one step right
                new_left, new_right = (left * base + c) % span, right // base + unknown * far
            elif ahead:  # turn in place
                new_left, new_right = left, right + c - read
            elif c == end:  # the head stays on the endmarker
                new_left, new_right = at_start, right
            elif to_forward:  # turn in place
                new_left, new_right = left + c - read, right
            else:  # one step left
                fill = gone if left // far in (end, gone) else unknown
                new_left, new_right = left // base + fill * far, (right * base + c) % span
            config = (j * span + new_left) * span + new_right
            if config not in seen:
                seen.add(config)
                stack.append(config)


def takeable(machine: TwoWayParityTransducer) -> TwoWayParityTransducer:
    """The machine with only the transitions ``walk_takeable`` asks for,
    one ``machine.transitions.get`` each.  A valid machine's runs take no
    other, so the function is unchanged.  Every state stays, in order, and
    the machine itself is returned when nothing is dropped."""
    code = (*machine.input_alphabet, LEFT_END)
    found = [machine.initial]
    number = {machine.initial: 0}
    asked = set()

    def move(i, c):
        key = (found[i], code[c])
        asked.add(key)
        tr = machine.transitions.get(key)
        if tr is None:
            return None
        j = number.setdefault(tr.target, len(found))
        if j == len(found):
            found.append(tr.target)
        return j, tr.target.forward

    walk_takeable(len(machine.input_alphabet), move)
    transitions = {key: tr for key, tr in machine.transitions.items() if key in asked}
    if len(transitions) == len(machine.transitions):
        return machine
    return replace(machine, transitions=transitions)


def unique_names(names: Iterable[str]) -> list[str]:
    """Disambiguate duplicates by appending ~2, ~3, ... suffixes."""
    seen: dict[str, int] = {}
    result = []
    for name in names:
        if name not in seen:
            seen[name] = 1
            result.append(name)
        else:
            seen[name] += 1
            candidate = f"{name}~{seen[name]}"
            while candidate in seen:
                seen[name] += 1
                candidate = f"{name}~{seen[name]}"
            seen[candidate] = 1
            result.append(candidate)
    return result


def materialize(names: Iterable[str], forward: Iterable[bool], edges: Iterable[tuple]):
    """States tuple and transition map of a machine built on state numbers.

    State i takes the i-th of ``names``, made unique by ``unique_names``,
    and the i-th polarity of ``forward``.  An edge is (source, letter,
    target, output, colors), both ends by number.  Edges with equal (target,
    output, colors) share one ``Transition``: over the det2rev corpus,
    25,679 objects serve 69,169 transitions.
    """
    states = tuple(map(State, unique_names(names), forward))
    made: dict[tuple, Transition] = {}
    transitions: dict = {}
    for src, letter, j, output, colors in edges:
        key = (j, output, colors)
        tr = made.get(key)
        if tr is None:
            tr = made[key] = Transition(states[j], output, colors)
        transitions[(states[src], letter)] = tr
    return states, transitions
