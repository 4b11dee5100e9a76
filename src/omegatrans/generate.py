"""Seeded random machine generation for fuzzing the constructions.

Generated machines are always deterministic (the constructions require it),
the initial state is forward, and endmarker transitions respect the
backward-to-forward convention.  The same seed yields the same machine.
"""

from __future__ import annotations

from random import Random

from .machines import (
    LEFT_END,
    CopylessParitySST,
    SstTransition,
    State,
    Substitution,
    Token,
    Transition,
    TwoWayParityTransducer,
    reg,
    sym,
)

LETTERS = "abcdefgh"


def _colors(rng: Random, k: int, ell: int) -> tuple[int, ...]:
    return tuple(rng.randrange(ell) for _ in range(k))


def _word(rng: Random, alphabet: tuple[str, ...], max_len: int = 2) -> tuple[str, ...]:
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def _two_way(
    rng: Random,
    states: tuple[State, ...],
    alphabet: tuple[str, ...],
    k: int,
    ell: int,
    density: float,
) -> TwoWayParityTransducer:
    """Machine over ``states`` with randomly drawn transitions: each letter
    move, and each backward state's endmarker move into a forward state, is
    present with probability ``density``."""
    forward = [s for s in states if s.forward]
    transitions = {}
    for s in states:
        for a in alphabet:
            if rng.random() < density:
                transitions[(s, a)] = Transition(
                    rng.choice(states), _word(rng, alphabet), _colors(rng, k, ell)
                )
        if not s.forward and rng.random() < density:
            transitions[(s, LEFT_END)] = Transition(
                rng.choice(forward), _word(rng, alphabet), _colors(rng, k, ell)
            )
    return TwoWayParityTransducer(
        input_alphabet=alphabet,
        output_alphabet=alphabet,
        states=states,
        initial=states[0],
        transitions=transitions,
        k=k,
        ell=ell,
    )


def generate_one_way(
    seed: int, n: int, k: int = 1, ell: int = 2, alphabet_size: int = 2, density: float = 0.9
) -> TwoWayParityTransducer:
    states = tuple(State(f"q{i}", True) for i in range(n))
    return _two_way(Random(seed), states, tuple(LETTERS[:alphabet_size]), k, ell, density)


def generate_two_way(
    seed: int, n: int, k: int = 1, ell: int = 2, alphabet_size: int = 2, density: float = 0.9
) -> TwoWayParityTransducer:
    rng = Random(seed)
    states = (State("q0", True),) + tuple(State(f"q{i}", rng.random() < 0.5) for i in range(1, n))
    return _two_way(rng, states, tuple(LETTERS[:alphabet_size]), k, ell, density)


def generate_sst(
    seed: int,
    n: int,
    k: int = 1,
    ell: int = 2,
    alphabet_size: int = 2,
    n_registers: int = 2,
    density: float = 0.9,
) -> CopylessParitySST:
    rng = Random(seed)
    alphabet = tuple(LETTERS[:alphabet_size])
    states = tuple(State(f"q{i}", True) for i in range(n))
    registers = ("out",) + tuple(f"x{i}" for i in range(1, n_registers))
    transitions = {}
    for s in states:
        for a in alphabet:
            if rng.random() < density:
                transitions[(s, a)] = SstTransition(
                    rng.choice(states), _update(rng, registers, alphabet), _colors(rng, k, ell)
                )
    return CopylessParitySST(
        input_alphabet=alphabet,
        output_alphabet=alphabet,
        states=states,
        initial=states[0],
        transitions=transitions,
        registers=registers,
        out="out",
        k=k,
        ell=ell,
    )


def _update(rng: Random, registers: tuple[str, ...], alphabet: tuple[str, ...]) -> Substitution:
    """Random copyless update whose out image starts with out."""
    flowing = [r for r in registers if r != "out" and rng.random() < 0.8]
    rng.shuffle(flowing)
    images: dict[str, list[Token]] = {r: [] for r in registers}
    images["out"] = [reg("out")]
    targets = list(registers)
    for r in flowing:
        images[rng.choice(targets)].append(reg(r))
    for r in registers:
        body = images[r][1:] if r == "out" else images[r]
        head = images[r][:1] if r == "out" else []
        sprinkled: list[Token] = []
        for tok in body:
            sprinkled.extend(sym(b) for b in _word(rng, alphabet, 1))
            sprinkled.append(tok)
        sprinkled.extend(sym(b) for b in _word(rng, alphabet, 1))
        images[r] = head + sprinkled
    return Substitution.from_dict({r: tuple(img) for r, img in images.items()})


def generate_machine(
    kind: str, seed: int, n: int, k: int = 1, ell: int = 2, alphabet_size: int = 2,
    density: float = 0.9,
):
    # A nan density fails the check too.
    sizes_ok = n >= 1 and k >= 0 and ell >= 1 and 1 <= alphabet_size <= len(LETTERS)
    if not (sizes_ok and 0 <= density <= 1):
        raise ValueError(
            f"need n >= 1, k >= 0, ell >= 1, 1 <= alphabet_size <= {len(LETTERS)} and "
            f"0 <= density <= 1, got n={n}, k={k}, ell={ell}, alphabet_size={alphabet_size}, "
            f"density={density}"
        )
    if kind == "1dpt":
        return generate_one_way(seed, n, k, ell, alphabet_size, density)
    if kind == "2dpt":
        return generate_two_way(seed, n, k, ell, alphabet_size, density)
    if kind == "cpsst":
        return generate_sst(seed, n, k, ell, alphabet_size, density=density)
    raise ValueError(f"unknown machine kind {kind!r}")
