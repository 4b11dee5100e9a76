"""Mutated machine documents either load or raise DocumentError.

Each example starts from one of the bundled ``machines/*.json`` documents
and applies a few mutations: a field dropped, retyped or renamed, state
names swapped, or a register-update token edited.  The loader must return
a machine or raise DocumentError, and ``omegatrans eval`` must exit with
one of its documented codes without a traceback.
"""

import contextlib
import copy
import io
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegatrans.cli import main
from omegatrans.io import DocumentError, document_to_machine

MACHINES = pathlib.Path(__file__).resolve().parent.parent / "machines"
BUNDLED = {path.name: path.read_text() for path in sorted(MACHINES.glob("*.json"))}

FIELDS = [
    "kind", "input_alphabet", "output_alphabet", "states", "initial", "k", "ell",
    "transitions", "registers", "out", "name", "polarity", "from", "letter", "to",
    "output", "colors", "update", "reg", "sym",
]

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.sampled_from(["a", "b", "#", "$lend", "q", "out", "X", "+", "-", "cpsst", "1dpt"]),
    st.lists(st.one_of(st.integers(-1, 2), st.text(max_size=1)), max_size=2),
    st.dictionaries(st.sampled_from(["reg", "sym", "x"]), st.text(max_size=2), max_size=2),
)

TOKENS = st.one_of(
    st.fixed_dictionaries({"reg": st.sampled_from(["out", "X", "Y", ""])}),
    st.fixed_dictionaries({"sym": st.sampled_from(["a", "#", "z", "$lend"])}),
    st.just({"bad": "a"}),
    st.just({"reg": "out", "sym": "a"}),
    st.just({}),
    st.just("out"),
    st.just(["reg", "out"]),
    st.just(None),
)


def _slots(node):
    """(container, key) for every value nested inside ``node``."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    found = []
    for key, child in items:
        found.append((node, key))
        found.extend(_slots(child))
    return found


def _pick(data, options):
    return options[data.draw(st.integers(0, len(options) - 1))] if options else None


def _drop(doc, data):
    slot = _pick(data, _slots(doc))
    if slot:
        parent, key = slot
        del parent[key]


def _retype(doc, data):
    slot = _pick(data, _slots(doc))
    if slot:
        parent, key = slot
        parent[key] = data.draw(JUNK)


def _rename(doc, data):
    slot = _pick(data, [(p, k) for p, k in _slots(doc) if isinstance(p, dict)])
    if slot:
        parent, key = slot
        parent[data.draw(st.sampled_from(FIELDS) | st.text(max_size=3))] = parent.pop(key)


def _records(doc, field):
    """The object entries of the list ``doc[field]``, if it still is one."""
    value = doc.get(field)
    return [entry for entry in value if isinstance(entry, dict)] if isinstance(value, list) else []


def _swap_state_names(doc, data):
    states = [s for s in _records(doc, "states") if "name" in s]
    records = _records(doc, "transitions")
    if len(states) >= 2 and data.draw(st.booleans()):
        first, second = _pick(data, states), _pick(data, states)
        first["name"], second["name"] = second["name"], first["name"]
    elif records:
        record = _pick(data, records)
        record["from"], record["to"] = record.get("to"), record.get("from")


def _edit_token(doc, data):
    images = [
        image
        for t in _records(doc, "transitions")
        if isinstance(t.get("update"), dict)
        for image in t["update"].values()
        if isinstance(image, list)
    ]
    image = _pick(data, images)
    if image is None:
        return
    # ``st.just`` hands out the same object every time; a later mutation of
    # this document must not edit it.
    token = copy.deepcopy(data.draw(TOKENS))
    if image and data.draw(st.booleans()):
        image[data.draw(st.integers(0, len(image) - 1))] = token
    else:
        image.append(token)


MUTATIONS = [_drop, _retype, _rename, _swap_state_names, _edit_token]


def _mutated(data):
    doc = json.loads(BUNDLED[data.draw(st.sampled_from(sorted(BUNDLED)))])
    for _ in range(data.draw(st.integers(1, 3))):
        data.draw(st.sampled_from(MUTATIONS))(doc, data)
    return doc


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_documents_load_or_raise_document_error(data):
    doc = _mutated(data)
    try:
        document_to_machine(doc)
    except DocumentError:
        pass


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_eval_on_mutated_documents_exits_cleanly(scratch_dir, data):
    path = scratch_dir / "mutated.json"
    path.write_text(json.dumps(_mutated(data)))
    lasso = data.draw(st.sampled_from(["(a)", "ab(b)", "(a#)", "#(ba)"]))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["eval", str(path), lasso])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
