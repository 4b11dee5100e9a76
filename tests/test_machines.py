import gc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from omegatrans.machines import (
    LEFT_END,
    CopylessParitySST,
    SstTransition,
    State,
    Substitution,
    Transition,
    TwoWayParityTransducer,
    advance,
    collector_paused,
    drop_left_end_into_initial,
    odd_sentinels,
    reg,
    sym,
    unique_names,
    validate_machine,
    validate_reversible,
    validate_sst_machine,
)
from support import (
    codeterministic_triples,
    deterministic_triples,
    prune_unreachable,
    reversible_triples,
)


def test_deterministic_on_triples():
    assert deterministic_triples([(1, "a", 2), (1, "b", 3)])
    assert not deterministic_triples([(1, "a", 2), (1, "a", 3)])
    assert deterministic_triples([])


def test_deterministic_on_machine(first_two_automaton):
    # The transition map is keyed by (state, letter): every machine is
    # deterministic.
    assert deterministic_triples(_triples(first_two_automaton))


def test_codeterministic(first_two_automaton, identity_ab):
    # states 1 and 2 both reach 3 on a
    assert not validate_reversible(first_two_automaton)
    assert validate_reversible(identity_ab)


def test_reversible(mcr_rbt, first_two_automaton):
    assert validate_reversible(mcr_rbt)
    assert not validate_reversible(first_two_automaton)
    assert not reversible_triples([(1, "a", 2), (1, "a", 3)])


def test_validate_sst_accepts_golden(mcr_sst):
    assert validate_sst_machine(mcr_sst) == []


def _one_state_sst(update):
    q = State("q", True)
    return CopylessParitySST(
        input_alphabet=("a",),
        output_alphabet=("a",),
        states=(q,),
        initial=q,
        transitions={(q, "a"): SstTransition(q, update, (0,))},
        registers=("out", "r"),
        out="out",
        k=1,
        ell=1,
    )


def test_validate_sst_copy_violation():
    bad = _one_state_sst(Substitution.from_dict({"out": (reg("out"),), "r": (reg("r"), reg("r"))}))
    problems = validate_sst_machine(bad)
    assert len(problems) == 1 and "copyless" in problems[0]


def test_validate_sst_out_discipline():
    bad = _one_state_sst(Substitution.from_dict({"out": (sym("a"), reg("out")), "r": ()}))
    problems = validate_sst_machine(bad)
    assert any("must start with" in p for p in problems)


def test_endmarker_convention_checked():
    fwd, bwd = State("f", True), State("b", False)
    machine = TwoWayParityTransducer(
        input_alphabet=("a",),
        output_alphabet=(),
        states=(fwd, bwd),
        initial=fwd,
        transitions={(fwd, LEFT_END): Transition(fwd, (), (0,))},
        k=1,
        ell=1,
    )
    assert any("backward source" in p for p in validate_machine(machine))


def test_endmarker_not_an_alphabet_letter():
    q = State("q", True)
    machine = TwoWayParityTransducer(
        input_alphabet=("a", LEFT_END),
        output_alphabet=(),
        states=(q,),
        initial=q,
        transitions={},
        k=0,
        ell=1,
    )
    assert any("reserved" in p for p in validate_machine(machine))


def test_color_bounds_checked():
    q = State("q", True)
    machine = TwoWayParityTransducer(
        input_alphabet=("a",),
        output_alphabet=(),
        states=(q,),
        initial=q,
        transitions={(q, "a"): Transition(q, (), (2,))},
        k=1,
        ell=2,
    )
    assert any("below" in p for p in validate_machine(machine))


@pytest.mark.parametrize(
    "machine, state, pos, letter, expected",
    [
        ("mcr_rbt", "copy", 3, "a", ("copy", 4)),  # forward to forward moves right
        ("mcr_rbt", "copy", 3, "#", ("back", 3)),  # forward to backward stays
        ("mcr_rbt", "back", 3, "#", ("skip", 3)),  # backward to forward stays
        ("mcr_rbt", "back", 3, "a", ("back", 2)),  # backward to backward moves left
        ("mcr_rbt", "back", 0, LEFT_END, ("skip", 0)),  # endmarker never moves
        ("first_two_automaton", "2", 1, "b", None),  # undefined transition
    ],
)
def test_advance_head_move_rule(request, machine, state, pos, letter, expected):
    machine = request.getfixturevalue(machine)
    src = next(s for s in machine.states if s.name == state)
    step = advance(machine, src, pos, letter)
    if expected is None:
        assert step is None
        return
    tr, new_pos = step
    assert tr is machine.transitions[(src, letter)]
    assert (tr.target.name, new_pos) == expected


def test_odd_sentinels_exceed_used_colors():
    q = State("q", True)
    machine = TwoWayParityTransducer(
        input_alphabet=("a", "b"),
        output_alphabet=(),
        states=(q,),
        initial=q,
        transitions={
            (q, "a"): Transition(q, (), (1, 2)),
            (q, "b"): Transition(q, (), (3, 0)),
        },
        k=2,
        ell=4,
    )
    sentinels = odd_sentinels(machine)
    assert sentinels == (3, 3)
    for i, s in enumerate(sentinels):
        assert s % 2 == 1
        assert all(s >= t.colors[i] for t in machine.transitions.values())


def test_drop_left_end_into_initial(mcr_rbt):
    assert drop_left_end_into_initial(mcr_rbt) is mcr_rbt
    copy, back = mcr_rbt.states[0], mcr_rbt.states[1]
    polluted = dict(mcr_rbt.transitions)
    del polluted[(back, LEFT_END)]
    polluted[(back, LEFT_END)] = Transition(copy, (), (1,))
    machine = TwoWayParityTransducer(
        mcr_rbt.input_alphabet,
        mcr_rbt.output_alphabet,
        mcr_rbt.states,
        mcr_rbt.initial,
        polluted,
        mcr_rbt.k,
        mcr_rbt.ell,
    )
    cleaned = drop_left_end_into_initial(machine)
    assert (back, LEFT_END) not in cleaned.transitions


def test_prune_unreachable():
    a, b, c = State("a", True), State("b", True), State("c", True)
    machine = TwoWayParityTransducer(
        input_alphabet=("x",),
        output_alphabet=(),
        states=(a, b, c),
        initial=a,
        transitions={(a, "x"): Transition(b, (), ()), (c, "x"): Transition(c, (), ())},
        k=0,
        ell=1,
    )
    pruned = prune_unreachable(machine)
    assert set(pruned.states) == {a, b}
    assert (c, "x") not in pruned.transitions


def test_unique_names():
    assert unique_names(["a", "b", "a", "a"]) == ["a", "b", "a~2", "a~3"]


def test_substitution_apply_and_compose():
    s1 = Substitution.from_dict({"out": (reg("out"), sym("a")), "x": (sym("b"), reg("x"))})
    s2 = Substitution.from_dict({"out": (reg("out"), reg("x")), "x": ()})
    val = {"out": (), "x": ()}
    v1 = s2.apply(s1.apply(val))
    composed = s1.then(s2)
    v2 = composed.apply(val)
    assert v1 == v2 == {"out": ("a", "b"), "x": ()}
    assert composed.is_copyless()


def test_substitution_display():
    s = Substitution.from_dict({"out": (reg("out"), sym("#")), "x": ()})
    assert s.display() == "{out:=<out>#, x:=ε}"


@st.composite
def copyless_substitutions(draw):
    registers = ("out", "x", "y")
    flowing = draw(st.permutations([r for r in registers if r != "out"]))
    used = flowing[: draw(st.integers(0, 2))]
    images = {r: [] for r in registers}
    images["out"] = [reg("out")]
    for r in used:
        home = draw(st.sampled_from(registers))
        images[home].append(reg(r))
    for r in registers:
        body = images[r][1:] if r == "out" else images[r]
        head = images[r][:1] if r == "out" else []
        sprinkled = []
        for token in body:
            sprinkled.extend(sym(c) for c in draw(st.text(alphabet="ab", max_size=2)))
            sprinkled.append(token)
        sprinkled.extend(sym(c) for c in draw(st.text(alphabet="ab", max_size=2)))
        images[r] = head + sprinkled
    return Substitution.from_dict({r: tuple(img) for r, img in images.items()})


@given(s1=copyless_substitutions(), s2=copyless_substitutions(), s3=copyless_substitutions())
def test_substitution_composition_associative(s1, s2, s3):
    assert s1.then(s2).then(s3) == s1.then(s2.then(s3))


@given(s1=copyless_substitutions(), s2=copyless_substitutions())
def test_substitution_composition_matches_sequential_application(s1, s2):
    val = {"out": ("a",), "x": ("b", "b"), "y": ()}
    assert s1.then(s2).apply(val) == s2.apply(s1.apply(val))


@given(s1=copyless_substitutions(), s2=copyless_substitutions())
def test_substitution_composition_stays_copyless_and_disciplined(s1, s2):
    composed = s1.then(s2)
    assert composed.is_copyless()
    assert composed.image("out")[0] == reg("out")


def _triples(machine):
    return [(src, letter, tr.target) for (src, letter), tr in machine.transitions.items()]


def test_reversibility_checks_agree_on_machines_and_triples(first_two_automaton, mcr_rbt):
    from omegatrans.generate import generate_machine
    from omegatrans.oneway import one_way_to_reversible

    machines = [first_two_automaton, mcr_rbt]
    for seed in range(10):
        machines.append(generate_machine("2dpt", seed, 4, alphabet_size=2))
        machines.append(generate_machine("cpsst", seed, 3, alphabet_size=2))
        machines.append(one_way_to_reversible(generate_machine("1dpt", seed, 3, alphabet_size=2)))
    verdicts = set()
    for machine in machines:
        triples = _triples(machine)
        verdict = validate_reversible(machine)
        for reference in (codeterministic_triples, reversible_triples):
            assert verdict == reference(triples), (reference.__name__, machine)
        verdicts.add(verdict)
    assert verdicts == {True, False}
    assert not codeterministic_triples(_triples(first_two_automaton))


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_paused_restores_the_entry_state(enabled):
    @collector_paused
    def build(fail):
        assert not gc.isenabled()
        if fail:
            raise ValueError("bad input")
        return "built"

    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert build(False) == "built"
        assert gc.isenabled() == enabled
        with pytest.raises(ValueError, match="bad input"):
            build(True)
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if was else gc.disable()



# Each record kind: how to make one, and a field with a different value.
RECORDS = {
    "State": (lambda: State("q", False), "name", "r"),
    "Transition": (lambda: Transition(State("q", True), ("a", "b"), (1,)), "output", ()),
    "SstTransition": (
        lambda: SstTransition(State("p", True), Substitution.from_dict({"o": [reg("o")]}), (0,)),
        "target",
        State("q", True),
    ),
}


@pytest.mark.parametrize("make, field, other", RECORDS.values(), ids=RECORDS.keys())
def test_records_are_immutable_values(make, field, other):
    """Machine records are immutable, compare and hash by their fields, and
    ``_replace`` builds a new record.  That colours (1,) and (True,) still
    print apart is pinned by test_dumps_keeps_equal_colors_of_different_types_apart."""
    record, same = make(), make()
    with pytest.raises(AttributeError):
        setattr(record, field, other)
    assert record == same and hash(record) == hash(same)
    changed = record._replace(**{field: other})
    assert type(changed) is type(record) and getattr(changed, field) == other
    assert record == same and changed != record


def test_state_repr_shows_polarity():
    assert repr(State("q", False)) == "q-"
    assert repr(State("q", True)) == "q+"
