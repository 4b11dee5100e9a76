import copy
import hashlib
import io
import itertools
import json
import pathlib
from dataclasses import replace

import pytest

from omegatrans.bounds import composition_pairs
from omegatrans.buchi import buchi_to_noacc, dbt_to_rbt, drop_acceptance, marking_from_colors
from omegatrans.cli import BUILD_COMMANDS, main
from omegatrans.compose import compose_reachable
from omegatrans.dot import machine_to_dot
from omegatrans.generate import generate_machine, generate_one_way, generate_two_way
from omegatrans.io import (
    DocumentError,
    document_to_machine,
    dumps_machine,
    format_lasso,
    loads_machine,
    parse_lasso,
)
from omegatrans.forests import two_way_to_sst
from omegatrans.lasso import LassoWord
from omegatrans.oneway import one_way_to_reversible
from omegatrans.sst2rev import sst_to_reversible
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
from builtin import (
    a_in_first_two_automaton,
    finitely_many_a_identity,
    map_copy_reverse_rbt,
    map_copy_reverse_sst,
)
from support import load_machine, walked_composition

MACHINES = pathlib.Path(__file__).resolve().parent.parent / "machines"
BUNDLED = sorted(MACHINES.glob("*.json"))


ALL_BUILTINS = [
    map_copy_reverse_rbt,
    map_copy_reverse_sst,
    a_in_first_two_automaton,
    finitely_many_a_identity,
]


@pytest.mark.parametrize("build", ALL_BUILTINS)
def test_round_trip(build):
    machine = build()
    assert loads_machine(dumps_machine(machine)) == machine


# --- document format ----------------------------------------------------------


def _canonical(text):
    """What json writes for the same document: pretty, sorted keys, ASCII."""
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def _assert_transition_order(text):
    doc = json.loads(text)
    rank = {s["name"]: i for i, s in enumerate(doc["states"])}
    keys = [(rank[t["from"]], t["letter"]) for t in doc["transitions"]]
    assert keys == sorted(keys)


@pytest.mark.parametrize("path", BUNDLED, ids=lambda path: path.name)
def test_dumps_reproduces_bundled_files(path):
    assert dumps_machine(load_machine(str(path))) == path.read_text()


@pytest.mark.parametrize("kind", ["2dpt", "1dpt", "cpsst"])
def test_dumps_is_canonical_pretty_json(kind):
    for seed in range(12):
        machine = generate_machine(kind, seed, 5, alphabet_size=3)
        text = dumps_machine(machine)
        assert text == _canonical(text), seed
        _assert_transition_order(text)
        assert loads_machine(text) == machine, seed


def test_dumps_is_canonical_on_reversible_outputs():
    for seed in range(3):
        machine = dbt_to_rbt(generate_two_way(seed, 3, alphabet_size=2, density=1.0))
        text = dumps_machine(machine)
        assert text == _canonical(text), seed
        _assert_transition_order(text)
        assert loads_machine(text) == machine, seed


def test_dumps_keeps_equal_colors_of_different_types_apart():
    """(1,) and (True,) compare equal, but json prints [1] and [true]."""
    q = State("q", True)
    colors = {"a": (1,), "b": (True,), "c": (1,)}
    machine = TwoWayParityTransducer(
        input_alphabet=("a", "b", "c"),
        output_alphabet=("a",),
        states=(q,),
        initial=q,
        transitions={(q, a): Transition(q, ("a",), c) for a, c in colors.items()},
        k=1,
        ell=2,
    )
    doc = {
        "ell": 2,
        "initial": "q",
        "input_alphabet": ["a", "b", "c"],
        "k": 1,
        "kind": "1dpt",
        "output_alphabet": ["a"],
        "states": [{"name": "q", "polarity": "+"}],
        "transitions": [
            {"colors": list(c), "from": "q", "letter": a, "output": ["a"], "to": "q"}
            for a, c in colors.items()
        ],
    }
    assert dumps_machine(machine) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _edge_two_way():
    """k = 0, empty and non-ASCII outputs, quotes and backslashes in names."""
    plain, quote, back = State("p", True), State('q"1', True), State("r\\2", False)
    return TwoWayParityTransducer(
        input_alphabet=("é", "a", "→"),
        output_alphabet=("é", "ß"),
        states=(plain, quote, back),
        initial=plain,
        transitions={
            (back, LEFT_END): Transition(plain, ("é",), ()),
            (back, "a"): Transition(back, (), ()),
            (quote, "→"): Transition(back, ("ß", "é"), ()),
            (plain, "é"): Transition(quote, (), ()),
        },
        k=0,
        ell=1,
    )


def _edge_sst():
    state = State('s"\\', True)
    update = Substitution.from_dict({"out": [reg("out"), sym("ü")], "X": []})
    return CopylessParitySST(
        input_alphabet=("ü",),
        output_alphabet=("ü",),
        states=(state,),
        initial=state,
        transitions={(state, "ü"): SstTransition(state, update, ())},
        registers=("out", "X"),
        out="out",
        k=0,
        ell=1,
    )


def _edge_one_way():
    machine = _edge_two_way()
    forward = tuple(s for s in machine.states if s.forward)
    transitions = {
        key: tr for key, tr in machine.transitions.items() if key[0].forward and tr.target.forward
    }
    return replace(machine, states=forward, transitions=transitions)


EDGE_MACHINES = {
    "two-way": _edge_two_way,
    "one-way": _edge_one_way,
    "no-transitions": lambda: replace(_edge_two_way(), transitions={}),
    "register": _edge_sst,
    "register-two-colorings": lambda: replace(
        _edge_sst(),
        transitions={
            key: tr._replace(colors=(0, 3)) for key, tr in _edge_sst().transitions.items()
        },
        k=2,
        ell=4,
    ),
}


@pytest.mark.parametrize("build", EDGE_MACHINES.values(), ids=EDGE_MACHINES.keys())
def test_dumps_is_canonical_on_edge_cases(build):
    machine = build()
    text = dumps_machine(machine)
    assert text == _canonical(text)
    assert text.isascii()
    _assert_transition_order(text)
    assert loads_machine(text) == machine


def test_dumps_is_canonical_on_an_empty_update():
    machine = _edge_sst()
    (key, tr), = machine.transitions.items()
    empty = replace(machine, transitions={key: tr._replace(update=Substitution(()))})
    text = dumps_machine(empty)
    assert text == _canonical(text)
    assert '"update": {}' in text


def test_loader_rejects_duplicate_keys(mcr_rbt):
    doc = json.loads(dumps_machine(mcr_rbt))
    doc["transitions"].append(dict(doc["transitions"][0], to="skip"))
    with pytest.raises(DocumentError, match="duplicate"):
        loads_machine(json.dumps(doc))


def test_loader_rejects_endmarker_letter(mcr_rbt):
    doc = json.loads(dumps_machine(mcr_rbt))
    doc["input_alphabet"].append("$lend")
    with pytest.raises(DocumentError, match="endmarker"):
        loads_machine(json.dumps(doc))


def test_loader_rejects_bad_polarity_on_endmarker(mcr_rbt):
    doc = json.loads(dumps_machine(mcr_rbt))
    for t in doc["transitions"]:
        if t["letter"] == "$lend":
            t["to"] = "back"
    with pytest.raises(DocumentError, match="forward target"):
        loads_machine(json.dumps(doc))


def test_loader_locates_unknown_state(mcr_rbt):
    doc = json.loads(dumps_machine(mcr_rbt))
    doc["transitions"][0]["to"] = "nowhere"
    with pytest.raises(DocumentError, match="transition #0"):
        loads_machine(json.dumps(doc))


def _without_initial(rbt_doc, sst_doc):
    del rbt_doc["initial"]
    return rbt_doc


def _string_colors(rbt_doc, sst_doc):
    rbt_doc["transitions"][0]["colors"] = ["0"]
    return rbt_doc


def _bare_register_token(rbt_doc, sst_doc):
    update = sst_doc["transitions"][0]["update"]
    update[sst_doc["out"]][0] = sst_doc["out"]
    return sst_doc


def _backward_register_state(rbt_doc, sst_doc):
    sst_doc["states"][0]["polarity"] = "-"
    return sst_doc


def _repeated_register(rbt_doc, sst_doc):
    sst_doc["registers"].append(sst_doc["registers"][-1])
    return sst_doc


def _undeclared_out(rbt_doc, sst_doc):
    sst_doc["out"] = "Y"
    return sst_doc


def _first_update(sst_doc):
    return sst_doc["transitions"][0]["update"]


def _writes_unknown_register(rbt_doc, sst_doc):
    _first_update(sst_doc)["Y"] = []
    return sst_doc


def _reads_unknown_register(rbt_doc, sst_doc):
    _first_update(sst_doc)["X"] = [{"reg": "Y"}]
    return sst_doc


def _foreign_output_symbol(rbt_doc, sst_doc):
    _first_update(sst_doc)["X"] = [{"sym": "z"}]
    return sst_doc


def _out_in_other_image(rbt_doc, sst_doc):
    _first_update(sst_doc)["X"] = [{"reg": "out"}]
    return sst_doc


def _repeated_state_name(rbt_doc, sst_doc):
    rbt_doc["states"].append(rbt_doc["states"][0])
    return rbt_doc


def _with_field(name, value):
    def malform(rbt_doc, sst_doc):
        rbt_doc[name] = value
        return rbt_doc

    return malform


_fractional_k, _string_k, _boolean_k, _fractional_ell = (
    _with_field("k", 1.7),
    _with_field("k", "1"),
    _with_field("k", True),
    _with_field("ell", 2.9),
)


def _one_state_one_way(k, ell, copies):
    """A one-state one-way document holding ``copies`` copies of its one
    transition, which echoes ``a`` and carries no colors."""

    def malform(rbt_doc, sst_doc):
        echo = {"from": "q", "letter": "a", "to": "q", "output": ["a"], "colors": []}
        return {
            "kind": "1dpt", "input_alphabet": ["a"], "output_alphabet": ["a"],
            "states": [{"name": "q", "polarity": "+"}], "initial": "q",
            "k": k, "ell": ell, "transitions": [echo] * copies,
        }

    return malform


def _worded_polarity(rbt_doc, sst_doc):
    rbt_doc["states"][1]["polarity"] = "forward"
    return rbt_doc


def _integer_state_name(rbt_doc, sst_doc):
    """A state renamed to the number 5 everywhere it is named."""
    old = rbt_doc["states"][1]["name"]
    rbt_doc["states"][1]["name"] = 5
    for record in rbt_doc["transitions"]:
        for end in ("from", "to"):
            if record[end] == old:
                record[end] = 5
    return rbt_doc


def _integer_letter(field, letter):
    """The letter ``letter`` of ``field`` renamed to the number 7 everywhere
    it is written."""

    def malform(rbt_doc, sst_doc):
        rbt_doc[field] = [7 if b == letter else b for b in rbt_doc[field]]
        for record in rbt_doc["transitions"]:
            if field == "input_alphabet" and record["letter"] == letter:
                record["letter"] = 7
            if field == "output_alphabet":
                record["output"] = [7 if b == letter else b for b in record["output"]]
        return rbt_doc

    return malform


_integer_input_letter, _integer_output_letter = (
    _integer_letter("input_alphabet", "a"),
    _integer_letter("output_alphabet", "a"),
)


def _string_output(rbt_doc, sst_doc):
    rbt_doc["transitions"][0]["output"] = "ab"
    return rbt_doc


_string_input_alphabet, _string_output_alphabet = (
    _with_field("input_alphabet", "ab#"),
    _with_field("output_alphabet", "ab#"),
)


def _string_registers(rbt_doc, sst_doc):
    """A one-register machine, appending ``a`` to ``o``, whose one-letter
    register name is written as a bare string."""
    append = {"from": "q", "letter": "a", "to": "q", "colors": [0],
              "update": {"o": [{"reg": "o"}, {"sym": "a"}]}}
    return {
        "kind": "cpsst", "input_alphabet": ["a"], "output_alphabet": ["a"],
        "states": [{"name": "q", "polarity": "+"}], "initial": "q",
        "registers": "o", "out": "o", "k": 1, "ell": 1, "transitions": [append],
    }


def _empty_input_alphabet(rbt_doc, sst_doc):
    """A two-way document that reads no letter and has no transitions."""
    rbt_doc["input_alphabet"] = []
    rbt_doc["transitions"] = []
    return rbt_doc


_zero_k_and_ell, _negative_ell, _negative_k = (
    _one_state_one_way(0, 0, 1),
    _one_state_one_way(0, -5, 1),
    _one_state_one_way(-1, 1, 0),
)


def _first_transition_key(doc):
    first = doc["transitions"][0]
    return f"({first['from']}, {first['letter']!r})"


# What the error message must say: where it points, for the
# transition-level cases, and which check fired for the validator cases.
_MESSAGES = {
    _string_colors: _first_transition_key,
    _bare_register_token: lambda doc: "transition #0",
    _backward_register_state: lambda doc: "all states must be forward",
    _repeated_register: lambda doc: "register names are not unique",
    _undeclared_out: lambda doc: "the out register is not declared",
    _writes_unknown_register: lambda doc: "update writes unknown register 'Y'",
    _reads_unknown_register: lambda doc: "update reads unknown register 'Y'",
    _foreign_output_symbol: lambda doc: "output letter 'z' not in the output alphabet",
    _out_in_other_image: lambda doc: "'out' appears in the image of 'X'",
    _repeated_state_name: lambda doc: "state names are not unique",
    _worded_polarity: lambda doc: "polarity must be '+' or '-', got 'forward'",
    _integer_state_name: lambda doc: "state 5: name must be a string",
    _integer_input_letter: lambda doc: "input_alphabet: letter 7 must be a string",
    _integer_output_letter: lambda doc: "output_alphabet: letter 7 must be a string",
    _string_output: lambda doc: "output must be a JSON list, got 'ab'",
    _string_input_alphabet: lambda doc: "input_alphabet must be a JSON list",
    _string_output_alphabet: lambda doc: "output_alphabet must be a JSON list",
    _string_registers: lambda doc: "registers must be a JSON list",
    _empty_input_alphabet: lambda doc: "input alphabet is empty",
    **dict.fromkeys(
        (_fractional_k, _string_k, _boolean_k, _fractional_ell),
        lambda doc: "k and ell must be integers",
    ),
    **dict.fromkeys(
        (_zero_k_and_ell, _negative_ell, _negative_k), lambda doc: "need k >= 0 and ell >= 1"
    ),
}


@pytest.mark.parametrize(
    "malform",
    [
        _without_initial,
        _string_colors,
        lambda rbt_doc, sst_doc: [1, 2],
        _bare_register_token,
        _backward_register_state,
        _repeated_register,
        _undeclared_out,
        _writes_unknown_register,
        _reads_unknown_register,
        _foreign_output_symbol,
        _out_in_other_image,
        _repeated_state_name,
        _fractional_k,
        _string_k,
        _boolean_k,
        _fractional_ell,
        _zero_k_and_ell,
        _negative_ell,
        _negative_k,
        _worded_polarity,
        _integer_state_name,
        _integer_input_letter,
        _integer_output_letter,
        _string_output,
        _string_input_alphabet,
        _string_output_alphabet,
        _string_registers,
        _empty_input_alphabet,
    ],
    ids=[
        "no-initial",
        "string-colors",
        "not-an-object",
        "bare-register-token",
        "backward-register-state",
        "repeated-register",
        "undeclared-out",
        "writes-unknown-register",
        "reads-unknown-register",
        "foreign-output-symbol",
        "out-in-other-image",
        "repeated-state-name",
        "fractional-k",
        "string-k",
        "boolean-k",
        "fractional-ell",
        "zero-k-and-ell",
        "negative-ell",
        "negative-k",
        "worded-polarity",
        "integer-state-name",
        "integer-input-letter",
        "integer-output-letter",
        "string-output",
        "string-input-alphabet",
        "string-output-alphabet",
        "string-registers",
        "empty-input-alphabet",
    ],
)
def test_malformed_documents_raise_document_error(tmp_path, mcr_rbt, mcr_sst, malform, capsys):
    doc = malform(
        json.loads(dumps_machine(mcr_rbt)), json.loads(dumps_machine(mcr_sst))
    )
    with pytest.raises(DocumentError) as caught:
        document_to_machine(doc)
    if malform in _MESSAGES:
        assert _MESSAGES[malform](doc) in str(caught.value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for command in (["validate", str(path)], ["eval", str(path), "(a)"], ["dot", str(path)]):
        assert main(command) == 3
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("output", 5, "malformed transition"),
        ("output", None, "malformed transition"),
        ("colors", 0, "malformed transition"),
        ("colors", [None], "colors must be integers"),
        ("to", "nowhere", "unknown target state"),
        ("colors", [1.5], "colors must be integers"),
        ("colors", [True], "colors must be integers"),
    ],
)
def test_malformed_transition_is_located(mcr_rbt, field, value, message):
    doc = json.loads(dumps_machine(mcr_rbt))
    doc["transitions"][2][field] = value
    with pytest.raises(DocumentError) as caught:
        document_to_machine(doc)
    third = doc["transitions"][2]
    located = ("transition #2", f"({third['from']}, {third['letter']!r})")
    assert any(where in str(caught.value) for where in located)
    assert message in str(caught.value)


def test_loader_locates_missing_transition_field(mcr_sst):
    doc = json.loads(dumps_machine(mcr_sst))
    del doc["transitions"][1]["update"]
    with pytest.raises(DocumentError, match=r"transition #1 .*missing field 'update'"):
        document_to_machine(doc)


def test_loader_locates_a_bad_token_tag(mcr_sst):
    doc = json.loads(dumps_machine(mcr_sst))
    doc["transitions"][1]["update"]["X"] = [{"bad": "a"}]
    with pytest.raises(DocumentError, match=r"transition #1 .*token tag must be reg or sym"):
        document_to_machine(doc)


@pytest.mark.parametrize("field", ["k", "ell"])
def test_loader_rejects_infinite_counts(mcr_rbt, field, tmp_path, capsys):
    text = dumps_machine(mcr_rbt).replace(f'"{field}": ', f'"{field}": Infinity, "x": ', 1)
    with pytest.raises(DocumentError):
        loads_machine(text)
    path = tmp_path / "infinite.json"
    path.write_text(text)
    assert main(["eval", str(path), "(a)"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_loader_lets_a_repeated_key_with_the_same_target_replace_the_record(mcr_rbt):
    doc = json.loads(dumps_machine(mcr_rbt))
    first = doc["transitions"][0]
    doc["transitions"].append(dict(first, colors=[1 - first["colors"][0]]))
    machine = document_to_machine(doc)
    (key, tr), = [
        (key, tr) for key, tr in machine.transitions.items()
        if (key[0].name, key[1]) == (first["from"], first["letter"])
    ]
    assert tr.colors == (1 - first["colors"][0],)
    assert machine.transitions.keys() == mcr_rbt.transitions.keys()


def _unknown_last_target(rbt_doc, sst_doc):
    rbt_doc["transitions"][-1]["to"] = "nowhere"
    return rbt_doc


@pytest.mark.parametrize(
    "make",
    [
        lambda rbt_doc, sst_doc: rbt_doc,
        lambda rbt_doc, sst_doc: sst_doc,
        _string_colors,
        _unknown_last_target,
    ],
    ids=["2dpt", "cpsst", "string-colors", "unknown-last-target"],
)
def test_document_to_machine_leaves_its_document_unchanged(mcr_rbt, mcr_sst, make):
    doc = make(json.loads(dumps_machine(mcr_rbt)), json.loads(dumps_machine(mcr_sst)))
    before = copy.deepcopy(doc)
    try:
        document_to_machine(doc)
    except DocumentError:
        pass
    assert doc == before


def test_lasso_syntax():
    assert parse_lasso("ab(ba)") == LassoWord.make("ab", "ba")
    assert parse_lasso("(ab)") == LassoWord.make("", "ab")
    assert format_lasso(LassoWord.make("a", "b#")) == "a(b#)"
    with pytest.raises(DocumentError):
        parse_lasso("ab")
    with pytest.raises(DocumentError):
        parse_lasso("ab()")
    with pytest.raises(DocumentError):
        parse_lasso("(xy)", alphabet={"a", "b"})


def test_dot_export(mcr_rbt, mcr_sst):
    dot = machine_to_dot(mcr_rbt)
    assert "shape=box" in dot  # backward state
    assert "shape=circle" in dot
    assert "a|a : 0" in dot
    assert "⊢|ε : 1" in dot
    sst_dot = machine_to_dot(mcr_sst)
    assert "out:=<out>a" in sst_dot


def test_gen_reproducible():
    a = dumps_machine(generate_machine("2dpt", 7, 3))
    b = dumps_machine(generate_machine("2dpt", 7, 3))
    assert a == b
    assert a != dumps_machine(generate_machine("2dpt", 8, 3))


def test_generated_machines_are_pinned():
    """The generator's random streams: the same seeds and parameters give
    the same bytes across refactors of the drawing code."""
    digest = hashlib.sha256()
    for kind, seed, (n, k, ell, size, density) in itertools.product(
        ("1dpt", "2dpt", "cpsst"),
        range(8),
        [(1, 0, 1, 1, 0.5), (3, 1, 2, 2, 0.9), (5, 2, 3, 3, 1.0), (7, 1, 2, 4, 0.7)],
    ):
        machine = generate_machine(kind, seed, n, k, ell, alphabet_size=size, density=density)
        digest.update(dumps_machine(machine).encode())
    assert digest.hexdigest() == "b8f975280ee83cf03495b705d1b4c1f264374803088c35ad366f6991ebebb05a"


# --- CLI --------------------------------------------------------------------


@pytest.fixture()
def mcr_path(tmp_path, mcr_rbt):
    path = tmp_path / "mcr.json"
    path.write_text(dumps_machine(mcr_rbt))
    return str(path)


@pytest.fixture()
def mcr_sst_path(tmp_path, mcr_sst):
    path = tmp_path / "mcr_sst.json"
    path.write_text(dumps_machine(mcr_sst))
    return str(path)


def test_cli_validate(mcr_path, capsys):
    assert main(["validate", mcr_path]) == 0
    out = capsys.readouterr().out
    assert "reversible: True" in out and "summary: ok" in out


def test_cli_eval(mcr_path, capsys):
    assert main(["eval", mcr_path, "(ab#)"]) == 0
    out = capsys.readouterr().out
    assert "Accepted output=(ab#ba#)" in out


def test_cli_eval_bad_lasso(mcr_path, capsys):
    assert main(["eval", mcr_path, "(xy)"]) == 3


def test_cli_eval_budget(mcr_path, capsys):
    assert main(["eval", mcr_path, "(ab#)", "--max-steps", "2"]) == 2


@pytest.mark.parametrize("flag", ["--max-steps", "--max-output"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_cli_non_positive_budget_is_a_usage_error(mcr_path, flag, value, capsys):
    assert main(["eval", mcr_path, "(ab#)", flag, value]) == 3
    assert "budgets must be positive" in capsys.readouterr().err


def test_cli_equiv(mcr_path, mcr_sst_path, capsys):
    assert main(["equiv", mcr_path, mcr_sst_path, "--exhaustive", "2", "2"]) == 0
    out = capsys.readouterr().out
    assert "disagreements=0" in out


def test_cli_equiv_detects_difference(tmp_path, mcr_path, capsys):
    other = finitely_many_a_identity()
    other_path = tmp_path / "other.json"
    other_path.write_text(dumps_machine(other))
    # different alphabets would be a usage error; use a same-alphabet machine
    from builtin import identity_transducer

    ident = tmp_path / "ident.json"
    ident.write_text(dumps_machine(identity_transducer("ab#")))
    assert main(["equiv", mcr_path, str(ident), "--exhaustive", "1", "2"]) == 1


def test_cli_runs_a_register_machine_whose_update_leaves_out_a_register(tmp_path, capsys):
    """A register left out of the a-update has the empty image: eval and
    equiv run such a document instead of failing with a traceback."""
    doc = json.loads((MACHINES / "mcr_sst.json").read_text())
    (a_move,) = (t for t in doc["transitions"] if t["letter"] == "a")
    del a_move["update"]["X"]
    path, rev = tmp_path / "no_x.json", tmp_path / "no_x_rev.json"
    path.write_text(json.dumps(doc))
    assert main(["eval", str(path), "a(b#)"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "Accepted output=a(b#)"
    assert main(["equiv", str(path), str(MACHINES / "mcr_sst.json"), "--exhaustive", "1", "2"]) == 1
    assert "disagreements=9 " in capsys.readouterr().out
    assert main(["sst2rev", str(path), str(rev)]) == 0
    assert main(["equiv", str(path), str(rev), "--exhaustive", "3", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "summary: checked=2835 passed=2835 disagreements=0 inconclusive=0"
    )


@pytest.mark.parametrize(
    "batch",
    [["--exhaustive", "0", "0"], ["--exhaustive", "-2", "-1"], ["--random", "0", "1"],
     ["--random", "-5", "1"]],
)
def test_cli_equiv_rejects_an_empty_lasso_batch(mcr_path, mcr_sst_path, batch, capsys):
    """A batch that checks nothing is a usage error, never a pass."""
    assert main(["equiv", mcr_path, mcr_sst_path, *batch]) == 3
    captured = capsys.readouterr()
    assert "summary:" not in captured.out
    assert captured.err.startswith("error: need ")


@pytest.mark.parametrize("batch", [["--exhaustive", "2", "3"], ["--random", "5", "1"]])
def test_cli_equiv_rejects_an_empty_alphabet(tmp_path, batch, capsys):
    """No lasso exists over an empty alphabet, so the batch is empty."""
    doc = {
        "kind": "cpsst", "input_alphabet": [], "output_alphabet": [], "registers": ["out"],
        "out": "out", "states": [{"name": "q", "polarity": "+"}], "initial": "q",
        "transitions": [], "k": 1, "ell": 1,
    }
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(doc))
    assert main(["validate", str(empty)]) == 0
    capsys.readouterr()
    assert main(["equiv", str(empty), str(empty), *batch]) == 3
    captured = capsys.readouterr()
    assert "summary:" not in captured.out
    assert captured.err == "error: need a nonempty alphabet: every lasso repeats a letter\n"


def test_cli_equiv_rejects_a_random_batch_it_cannot_fill(tmp_path, capsys):
    """Fewer distinct lassos than asked is a usage error, not a smaller check."""
    from builtin import identity_transducer

    ident = tmp_path / "ident.json"
    ident.write_text(dumps_machine(identity_transducer("ab")))
    assert main(["equiv", str(ident), str(ident), "--random", "1000", "1"]) == 3
    captured = capsys.readouterr()
    assert "summary:" not in captured.out
    assert captured.err.startswith("error: found 827 distinct lassos")


@pytest.mark.parametrize("kind", ["2dpt", "1dpt", "cpsst"])
def test_cli_gen_kinds_validate(tmp_path, kind, capsys):
    out = tmp_path / "m.json"
    assert main(["gen", "--seed", "11", "--n", "3", "--kind", kind, str(out)]) == 0
    assert main(["validate", str(out)]) == 0


def test_cli_pipeline_chain(tmp_path, capsys):
    gen_out = tmp_path / "random.json"
    assert main(["gen", "--seed", "7", "--n", "3", "--kind", "2dpt", str(gen_out)]) == 0
    rev_out = tmp_path / "rev.json"
    assert main(["det2rev", str(gen_out), str(rev_out)]) == 0
    assert main(["validate", str(rev_out)]) == 0
    out = capsys.readouterr().out
    assert "reversible: True" in out


def test_cli_constructions_emit_loadable_machines(tmp_path, mcr_path, mcr_sst_path, capsys):
    for cmd, src in [
        ("2w2sst", mcr_path),
        ("sst2rev", mcr_sst_path),
        ("dropacc", mcr_path),
        ("buchi2rt", mcr_path),
    ]:
        out_path = tmp_path / f"{cmd}.json"
        assert main([cmd, src, str(out_path)]) == 0, cmd
        loads_machine(out_path.read_text())


@pytest.mark.parametrize(
    "args",
    [
        ["det2rev", "sst"],
        ["2w2sst", "sst"],
        ["compose", "sst", "rbt"],
        ["buchi2rt", "sst"],
        ["1w2rev", "sst"],
        ["sst2rev", "rbt"],
    ],
)
def test_cli_rejects_wrong_machine_kind(tmp_path, mcr_path, mcr_sst_path, capsys, args):
    paths = {"rbt": mcr_path, "sst": mcr_sst_path}
    cmd, *machines = args
    out_path = tmp_path / "out.json"
    assert main([cmd, *(paths[m] for m in machines), str(out_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "expected a" in err
    assert not out_path.exists()


@pytest.mark.parametrize("cmd", ["2w2sst", "det2rev"])
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_cli_non_positive_cap_is_a_usage_error(tmp_path, mcr_path, capsys, cmd, cap):
    out_path = tmp_path / "out.json"
    assert main([cmd, mcr_path, str(out_path), "--cap", cap]) == 3
    assert "state_cap must be positive" in capsys.readouterr().err
    assert not out_path.exists()


def test_cli_compose(tmp_path, mcr_path, capsys):
    out_path = tmp_path / "twice.json"
    assert main(["compose", mcr_path, mcr_path, str(out_path)]) == 0
    twice = loads_machine(out_path.read_text())
    assert len(twice.states) == 9


def _cli_compose(tmp_path, first, second):
    paths = [tmp_path / "first.json", tmp_path / "second.json", tmp_path / "out.json"]
    paths[0].write_text(dumps_machine(first))
    paths[1].write_text(dumps_machine(second))
    assert main(["compose"] + [str(p) for p in paths]) == 0
    return loads_machine(paths[2].read_text())


def test_cli_compose_builds_the_reachable_product(tmp_path):
    mcr = load_machine(str(MACHINES / "mcr_rbt.json"))
    first = one_way_to_reversible(generate_one_way(4, n=3, k=1, ell=2))
    second = one_way_to_reversible(generate_one_way(5, n=3, k=1, ell=2))
    for pair in [(mcr, mcr), (first, second)]:
        composed = _cli_compose(tmp_path, *pair)
        reference = walked_composition(*pair)
        assert set(composed.states) == set(reference.states)
        assert composed.transitions == reference.transitions
    assert len(composed.states) < composition_pairs(len(first.states), len(second.states))


def test_cli_dot(tmp_path, mcr_path):
    out_path = tmp_path / "m.dot"
    assert main(["dot", mcr_path, str(out_path)]) == 0
    assert out_path.read_text().startswith("digraph")


# Each build row, with the library call it must match byte for byte.
BUILD_ROW_CASES = [
    (["compose", "rbt", "rbt"], lambda a, b: dumps_machine(compose_reachable(a, b))),
    (["1w2rev", "one-way"], lambda m: dumps_machine(one_way_to_reversible(m))),
    (["2w2sst", "rbt"], lambda m: dumps_machine(two_way_to_sst(m))),
    (["2w2sst", "rbt", "--cap", "3"], lambda m: dumps_machine(two_way_to_sst(m, state_cap=3))),
    (["sst2rev", "sst"], lambda m: dumps_machine(sst_to_reversible(m))),
    (["det2rev", "rbt"], lambda m: dumps_machine(dbt_to_rbt(m))),
    (["det2rev", "rbt", "--cap", "3"], lambda m: dumps_machine(dbt_to_rbt(m, state_cap=3))),
    (["buchi2rt", "rbt"], lambda m: dumps_machine(buchi_to_noacc(m, marking_from_colors(m)))),
    (
        ["buchi2rt", "rbt", "--marking", "color0"],
        lambda m: dumps_machine(buchi_to_noacc(m, marking_from_colors(m))),
    ),
    (
        ["buchi2rt", "rbt", "--marking", "all"],
        lambda m: dumps_machine(buchi_to_noacc(m, frozenset(m.transitions))),
    ),
    (["buchi2rt", "rbt", "--marking", "none"], lambda m: dumps_machine(buchi_to_noacc(m, frozenset()))),
    (["dropacc", "rbt"], lambda m: dumps_machine(drop_acceptance(m))),
    (["dropacc", "sst"], lambda m: dumps_machine(drop_acceptance(m))),
    (["dot", "rbt"], machine_to_dot),
    (["dot", "sst"], machine_to_dot),
]


def test_every_build_row_has_a_byte_check():
    assert {args[0] for args, _ in BUILD_ROW_CASES} == {row[0] for row in BUILD_COMMANDS}


@pytest.mark.parametrize("args, expected", BUILD_ROW_CASES)
def test_cli_build_row_writes_its_library_output(tmp_path, args, expected):
    one_way = tmp_path / "one_way.json"
    one_way.write_text(dumps_machine(generate_one_way(4, n=3, k=1, ell=2)))
    paths = {"rbt": MACHINES / "mcr_rbt.json", "sst": MACHINES / "mcr_sst.json", "one-way": one_way}
    cmd, *rest = args
    inputs = [paths[a] for a in rest if a in paths]
    flags = [a for a in rest if a not in paths]
    out_path = tmp_path / "out.txt"
    assert main([cmd, *map(str, inputs), str(out_path), *flags]) == 0
    assert out_path.read_text() == expected(*(load_machine(str(p)) for p in inputs))


@pytest.mark.parametrize("cmd", ["2w2sst", "det2rev"])
def test_cli_state_cap_is_a_violation(tmp_path, capsys, cmd):
    gen_out = tmp_path / "random.json"
    gen = ["gen", "--seed", "7", "--n", "5", "--alphabet-size", "3", "--density", "1"]
    assert main([*gen, str(gen_out)]) == 0
    out_path = tmp_path / "out.json"
    assert main([cmd, str(gen_out), str(out_path), "--cap", "2"]) == 1
    assert capsys.readouterr().err == "error: more than 2 summaries reachable\n"
    assert not out_path.exists()


def test_cli_build_reads_stdin_and_writes_stdout(monkeypatch, capsys):
    text = (MACHINES / "mcr_rbt.json").read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["det2rev", "-", "-"]) == 0
    assert capsys.readouterr().out == dumps_machine(dbt_to_rbt(loads_machine(text)))


@pytest.mark.parametrize(
    "cmd", ["validate", "eval", *(row[0] for row in BUILD_COMMANDS), "gen", "equiv"]
)
def test_cli_subcommand_help(cmd, capsys):
    assert main([cmd, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: omegatrans {cmd} ")


@pytest.mark.parametrize(
    "params",
    [
        ["--kind", "1dpt", "--n", "0"],
        ["--kind", "cpsst", "--n", "0"],
        ["--kind", "2dpt", "--n", "0"],
        ["--n", "2", "--alphabet-size", "9"],
        ["--n", "2", "--alphabet-size", "0"],
        ["--n", "2", "--k", "-1"],
        ["--n", "2", "--k", "0", "--ell", "0"],
        ["--kind", "1dpt", "--n", "3", "--density", "nan"],
        ["--kind", "cpsst", "--n", "3", "--density", "-1"],
        ["--kind", "2dpt", "--n", "3", "--density", "2"],
    ],
)
def test_cli_gen_rejects_out_of_range_parameters(tmp_path, capsys, params):
    out_path = tmp_path / "m.json"
    assert main(["gen", "--seed", "1", *params, str(out_path)]) == 3
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith("error: need n >= 1, k >= 0, ell >= 1")
    assert not out_path.exists()


@pytest.mark.parametrize("kind", ["2dpt", "1dpt", "cpsst"])
def test_generate_machine_rejects_a_density_outside_0_to_1(kind):
    for density in (float("nan"), -1.0, 2.0):
        with pytest.raises(ValueError, match="0 <= density <= 1"):
            generate_machine(kind, 1, 3, density=density)


@pytest.mark.parametrize("kind", ["2dpt", "1dpt", "cpsst"])
def test_cli_gen_accepts_the_parameter_bounds(tmp_path, capsys, kind):
    out_path = tmp_path / "m.json"
    params = ["--n", "1", "--alphabet-size", "8", "--k", "0", "--ell", "1", "--kind", kind]
    for density in ("0", "1"):
        assert main(["gen", "--seed", "1", *params, "--density", density, str(out_path)]) == 0
        assert main(["validate", str(out_path)]) == 0


def test_cli_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # A document nested past the parser's recursion limit is no JSON either.
    for text in ("{not json", "[" * 100_000):
        bad.write_text(text)
        assert main(["validate", str(bad)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: not valid JSON") and err.count("error:") == 1


def test_cli_usage_error():
    assert main(["equiv", "a", "b"]) == 3  # missing lasso selection


def test_bundled_machine_files(mcr_rbt):
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "machines"
    bundled = loads_machine((root / "mcr_rbt.json").read_text())
    assert bundled == mcr_rbt
    for path in sorted(root.glob("*.json")):
        loads_machine(path.read_text())


@pytest.mark.parametrize("token", [{"reg": [1]}, {"sym": 5}, {"reg": None}])
def test_non_string_token_value_is_located(token):
    doc = json.loads(BUNDLED[0].with_name("mcr_sst.json").read_text())
    doc["transitions"][0]["update"]["out"].append(token)
    with pytest.raises(DocumentError) as caught:
        document_to_machine(doc)
    assert "transition #0 ('q' on '#'): malformed transition:" in str(caught.value)
    assert "must be a string" in str(caught.value)
