"""Example machines used by the tests and bundled as the machines/ files."""

from __future__ import annotations

from omegatrans.machines import (
    LEFT_END,
    CopylessParitySST,
    SstTransition,
    State,
    Substitution,
    Transition,
    TwoWayParityTransducer,
    reg,
    sym,
)


def map_copy_reverse_rbt(letters: str = "ab") -> TwoWayParityTransducer:
    """Reversible two-way transducer for map-copy-reverse.

    Copies each #-delimited block, then walks it backwards to append its
    mirror image: u1#u2#... maps to u1#~u1#u2#~u2#...; a tail with no
    further # is copied unchanged.
    """
    copy = State("copy", True)
    back = State("back", False)
    skip = State("skip", True)
    transitions: dict = {}
    for a in letters:
        transitions[(copy, a)] = Transition(copy, (a,), (0,))
        transitions[(back, a)] = Transition(back, (a,), (1,))
        transitions[(skip, a)] = Transition(skip, (), (1,))
    transitions[(copy, "#")] = Transition(back, ("#",), (1,))
    transitions[(back, "#")] = Transition(skip, (), (1,))
    transitions[(back, LEFT_END)] = Transition(skip, (), (1,))
    transitions[(skip, "#")] = Transition(copy, ("#",), (0,))
    alphabet = tuple(letters) + ("#",)
    return TwoWayParityTransducer(
        input_alphabet=alphabet,
        output_alphabet=alphabet,
        states=(copy, back, skip),
        initial=copy,
        transitions=transitions,
        k=1,
        ell=2,
    )


def map_copy_reverse_sst(letters: str = "ab") -> CopylessParitySST:
    """Register-machine twin of map-copy-reverse: X accumulates the mirror
    of the current block and is flushed into out at each #."""
    q = State("q", True)
    transitions: dict = {}
    for a in letters:
        transitions[(q, a)] = SstTransition(
            q,
            Substitution.from_dict({"out": (reg("out"), sym(a)), "X": (sym(a), reg("X"))}),
            (0,),
        )
    transitions[(q, "#")] = SstTransition(
        q,
        Substitution.from_dict({"out": (reg("out"), sym("#"), reg("X"), sym("#")), "X": ()}),
        (0,),
    )
    alphabet = tuple(letters) + ("#",)
    return CopylessParitySST(
        input_alphabet=alphabet,
        output_alphabet=alphabet,
        states=(q,),
        initial=q,
        transitions=transitions,
        registers=("out", "X"),
        out="out",
        k=1,
        ell=1,
    )


def a_in_first_two_automaton() -> TwoWayParityTransducer:
    """One-way parity automaton accepting words over {a, b} with an ``a``
    in the first or second position (no outputs)."""
    s1, s2, s3 = State("1", True), State("2", True), State("3", True)
    transitions = {
        (s1, "b"): Transition(s2, (), (1,)),
        (s1, "a"): Transition(s3, (), (1,)),
        (s2, "a"): Transition(s3, (), (1,)),
        (s3, "a"): Transition(s3, (), (0,)),
        (s3, "b"): Transition(s3, (), (0,)),
    }
    return TwoWayParityTransducer(
        input_alphabet=("a", "b"),
        output_alphabet=(),
        states=(s1, s2, s3),
        initial=s1,
        transitions=transitions,
        k=1,
        ell=2,
    )


def finitely_many_a_identity() -> TwoWayParityTransducer:
    """Identity on words over {a, b} containing finitely many a's.

    The a-transitions carry an odd color that dominates iff a occurs
    infinitely often; a closed-domain (Büchi-style) machine cannot express
    this, making it a separation witness at desk scale.
    """
    q = State("q", True)
    transitions = {
        (q, "a"): Transition(q, ("a",), (1,)),
        (q, "b"): Transition(q, ("b",), (2,)),
    }
    return TwoWayParityTransducer(
        input_alphabet=("a", "b"),
        output_alphabet=("a", "b"),
        states=(q,),
        initial=q,
        transitions=transitions,
        k=1,
        ell=3,
    )


def identity_transducer(letters: str = "ab") -> TwoWayParityTransducer:
    """One-state copy machine with color 0 everywhere."""
    q = State("id", True)
    transitions = {(q, a): Transition(q, (a,), (0,)) for a in letters}
    return TwoWayParityTransducer(
        input_alphabet=tuple(letters),
        output_alphabet=tuple(letters),
        states=(q,),
        initial=q,
        transitions=transitions,
        k=1,
        ell=1,
    )
