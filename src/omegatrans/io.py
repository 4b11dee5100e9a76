"""JSON machine documents and the textual lasso syntax.

A document declares its kind (2dpt, 1dpt, or cpsst), alphabets, states with
polarity, the initial state, and a transition list; register machines add
the register set, the out register, and per-transition updates as lists of
reg/sym-tagged tokens.  The endmarker is spelled "$lend" in the letter
field and is never a declarable alphabet letter.  Lassos are written
``u(v)``, one character per letter, e.g. ``ab(ba)`` with empty prefixes
allowed as ``(ab)``.
"""

from __future__ import annotations

import json
import re
from operator import itemgetter
from typing import Union

from .lasso import LassoWord
from .machines import (
    CopylessParitySST,
    SstTransition,
    State,
    Substitution,
    Transition,
    TwoWayParityTransducer,
    collector_paused,
    validate_machine,
    validate_one_way,
    validate_sst_machine,
)

Machine = Union[TwoWayParityTransducer, CopylessParitySST]


class DocumentError(ValueError):
    """Malformed machine document; carries transition-level locations."""


def document_to_machine(doc: dict) -> Machine:
    """Machine described by a parsed JSON document; ``doc`` is left as it is.

    Every malformed document raises DocumentError: a missing field, or a
    value of the wrong type wherever it is first used, is reported here
    rather than checked field by field.  A failure inside a transition
    record names that record (``transition #i``), and the validators name
    a bad transition by its (state, letter) key.
    """
    if not isinstance(doc, dict):
        raise DocumentError(f"a machine document is a JSON object, not a {type(doc).__name__}")
    try:
        return _build_machine(doc)
    except DocumentError:
        raise
    except KeyError as exc:
        raise DocumentError(f"missing field {exc}") from exc
    except (TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise DocumentError(f"malformed document: {exc}") from exc


def _build_machine(doc: dict) -> Machine:
    kind = doc.get("kind")
    if kind not in ("2dpt", "1dpt", "cpsst"):
        raise DocumentError(f"unknown machine kind {kind!r}")
    states = []
    for s in doc["states"]:
        if type(s["name"]) is not str:
            raise DocumentError(f"state {s['name']!r}: name must be a string")
        if s["polarity"] not in ("+", "-"):
            raise DocumentError(f"state {s['name']!r}: polarity must be '+' or '-', got {s['polarity']!r}")
        states.append(State(s["name"], s["polarity"] == "+"))
    states = tuple(states)
    by_name = {s.name: s for s in states}
    if doc["initial"] not in by_name:
        raise DocumentError(f"initial state {doc['initial']!r} not declared")
    alphabet = _listed(doc, "input_alphabet")
    out_alphabet = _listed(doc, "output_alphabet")
    for field, letters in (("input_alphabet", alphabet), ("output_alphabet", out_alphabet)):
        for letter in letters:
            if type(letter) is not str:
                raise DocumentError(f"{field}: letter {letter!r} must be a string")
    k, ell = doc["k"], doc["ell"]
    if type(k) is not int or type(ell) is not int:
        raise DocumentError(f"k and ell must be integers, got k={k!r}, ell={ell!r}")
    transitions = _build_transitions(
        doc["transitions"], by_name, _sst_transition if kind == "cpsst" else _two_way_transition
    )
    if kind == "cpsst":
        machine = CopylessParitySST(
            input_alphabet=alphabet,
            output_alphabet=out_alphabet,
            states=states,
            initial=by_name[doc["initial"]],
            transitions=transitions,
            registers=_listed(doc, "registers"),
            out=doc["out"],
            k=k,
            ell=ell,
        )
        problems = validate_sst_machine(machine)
    else:
        machine = TwoWayParityTransducer(
            input_alphabet=alphabet,
            output_alphabet=out_alphabet,
            states=states,
            initial=by_name[doc["initial"]],
            transitions=transitions,
            k=k,
            ell=ell,
        )
        problems = validate_machine(machine)
        if not alphabet:
            problems.append("input alphabet is empty")
        if kind == "1dpt" and not validate_one_way(machine):
            problems.append("declared one-way but has backward states or endmarker transitions")
    if problems:
        raise DocumentError("; ".join(problems))
    return machine


def _listed(record: dict, field: str) -> tuple:
    """``record[field]`` as a tuple; it must be a JSON list, not a string."""
    if type(record[field]) is not list:
        raise ValueError(f"{field} must be a JSON list, got {record[field]!r}")
    return tuple(record[field])


def _build_transitions(records, by_name: dict, build) -> dict:
    """The transition map of ``records``, in one pass.

    ``build(record, target)`` makes one transition.  A record whose source
    or target is undeclared, or whose (state, letter) key repeats with a
    different target, raises DocumentError; a repeat with the same target
    replaces the earlier record.  Any other failure inside a record is
    caught once around the loop and reported with that record's location.
    """
    transitions: dict = {}
    numbered = enumerate(records)  # a non-iterable fails here, unlocated
    i, t = 0, None
    try:
        for i, t in numbered:
            src = by_name.get(t["from"])
            if src is None:
                raise DocumentError(f"{_record_where(i, t)}: unknown source state")
            target = by_name.get(t["to"])
            if target is None:
                raise DocumentError(f"{_record_where(i, t)}: unknown target state")
            tr = build(t, target)
            key = (src, t["letter"])
            earlier = transitions.setdefault(key, tr)
            if earlier is not tr:
                if earlier.target != target:
                    raise DocumentError(
                        f"{_record_where(i, t)}: duplicate (state, letter) transition keys"
                    )
                transitions[key] = tr
    except DocumentError:
        raise
    except KeyError as exc:
        raise DocumentError(f"{_record_where(i, t)}: missing field {exc}") from exc
    except (TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise DocumentError(f"{_record_where(i, t)}: malformed transition: {exc}") from exc
    return transitions


def _record_where(i: int, record) -> str:
    if isinstance(record, dict):
        return f"transition #{i} ({record.get('from')!r} on {record.get('letter')!r})"
    return f"transition #{i}"


def _two_way_transition(t: dict, target: State) -> Transition:
    return Transition(target, _listed(t, "output"), tuple(t["colors"]))


def _sst_transition(t: dict, target: State) -> SstTransition:
    images = {}
    for r, toks in t["update"].items():
        img = []
        for tok in toks:
            (tag, value), = tok.items()
            if tag not in ("reg", "sym"):
                raise ValueError(f"token tag must be reg or sym, got {tag!r}")
            if not isinstance(value, str):
                raise ValueError(f"{tag} token value must be a string, got {value!r}")
            img.append((tag, value))
        images[r] = tuple(img)
    return SstTransition(target, Substitution.from_dict(images), tuple(t["colors"]))


# ---------------------------------------------------------------------------
# Writer
#
# dumps_machine writes the text json.dumps(doc, indent=2, sort_keys=True)
# gives for the machine's document, without building the document or
# running json's pure-Python indenting encoder, whose nested closures leave
# reference cycles behind.  Each state and transition record is a fixed
# template; the values inside a record (names, letters, output words,
# colour vectors, register updates) repeat across records, so each distinct
# value is encoded once and reused.  Colour vectors are memoized under their
# element types too: (1,) and (True,) compare equal but print as [1] and
# [true].  The other values are strings or made of strings in every
# machine a document can describe, and equal strings print alike.


def _json_text(value, level: int) -> str:
    """``value`` as it appears ``level`` deep in a document written with
    ``indent=2, sort_keys=True``: lists and dicts are laid out here, and
    json writes the scalars."""
    if type(value) is str:
        return _quote(value)
    if isinstance(value, (list, tuple)):
        opening, closing = "[", "]"
        items = [_json_text(item, level + 1) for item in value]
    elif isinstance(value, dict):
        opening, closing = "{", "}"
        items = [
            f"{_quote(key)}: {_json_text(item, level + 1)}" for key, item in sorted(value.items())
        ]
    else:
        return json.dumps(value)
    if not items:
        return opening + closing
    inner = "\n" + "  " * (level + 1)
    return opening + inner + ("," + inner).join(items) + "\n" + "  " * level + closing


_quote = json.encoder.encode_basestring_ascii  # as json.dumps with ensure_ascii


class _Texts(dict):
    """Memo of ``_json_text(plain(value), level)`` for each value seen."""

    def __init__(self, level: int, plain=lambda value: value):
        super().__init__()
        self.level = level
        self.plain = plain

    def __missing__(self, value) -> str:
        text = self[value] = _json_text(self.plain(value), self.level)
        return text


def _update_document(update: Substitution) -> dict:
    return {r: [{kind: value} for kind, value in img] for r, img in update.images}


def dumps_machine(machine: Machine) -> str:
    """The machine's JSON document, pretty-printed with sorted keys.

    Transitions are listed in state order, then by ``str(letter)``.
    """
    sst = isinstance(machine, CopylessParitySST)
    quoted, colors = _Texts(3), _Texts(3, itemgetter(0))
    state_records = [
        f'    {{\n      "name": {quoted[s.name]},\n      "polarity": "{"+" if s.forward else "-"}"\n    }}'
        for s in machine.states
    ]
    # One int sort key per transition, the source's position and then the
    # letter's rank by str, and the sort moves the existing keys: it leaves
    # no new tuples per transition for the cyclic collector to trace.
    transitions = machine.transitions
    letters = {letter for _, letter in transitions}
    rank = {text: i for i, text in enumerate(sorted({str(a) for a in letters}))}
    rank_of = {a: rank[str(a)] for a in letters}
    row = {s: i * len(rank) for i, s in enumerate(machine.states)}
    keys = sorted(transitions, key=lambda key: row[key[0]] + rank_of[key[1]])
    entries = zip(keys, map(transitions.__getitem__, keys))
    if sst:
        updates = _Texts(3, _update_document)
        records = [
            f'    {{\n      "colors": {colors[(c, *map(type, c))]},\n      "from": {quoted[src.name]},'
            f'\n      "letter": {quoted[letter]},\n      "to": {quoted[target.name]},'
            f'\n      "update": {updates[update]}\n    }}'
            for (src, letter), (target, update, c) in entries
        ]
    else:
        outputs = _Texts(3)
        records = [
            f'    {{\n      "colors": {colors[(c, *map(type, c))]},\n      "from": {quoted[src.name]},'
            f'\n      "letter": {quoted[letter]},\n      "output": {outputs[output]},'
            f'\n      "to": {quoted[target.name]}\n    }}'
            for (src, letter), (target, output, c) in entries
        ]
    fields = {
        "ell": machine.ell,
        "initial": machine.initial.name,
        "input_alphabet": machine.input_alphabet,
        "k": machine.k,
        "kind": "cpsst" if sst else ("1dpt" if machine.is_one_way() else "2dpt"),
        "output_alphabet": machine.output_alphabet,
    }
    if sst:
        fields["out"] = machine.out
        fields["registers"] = machine.registers
    # The text is joined once, from the fields, the separators and the
    # records themselves; "states" and "transitions" sort after every
    # other field.
    parts = ["{\n"]
    for key in sorted(fields):
        parts += (f'  "{key}": ', _json_text(fields[key], 1), ",\n")
    for key, listed in (("states", state_records), ("transitions", records)):
        parts.append(f'  "{key}": ')
        if listed:
            parts.append("[\n")
            for record in listed:
                parts += (record, ",\n")
            parts[-1] = "\n  ]"
        else:
            parts.append("[]")
        parts.append(",\n")
    parts[-1] = "\n}\n"
    return "".join(parts)


@collector_paused
def loads_machine(text: str) -> Machine:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError("not valid JSON: nested too deeply to parse") from exc
    if isinstance(doc, dict):
        # The parse is this function's own, so its record lists are handed
        # over as generators that drop each record once it is read: a built
        # record can be freed before the next one is.  Any other value is
        # left to fail as it would in document_to_machine, which reads each
        # of these fields once.
        for field in ("states", "transitions"):
            if type(doc.get(field)) is list:
                doc[field] = _draining(doc[field])
    return document_to_machine(doc)


def _draining(records: list):
    for i in range(len(records)):
        record = records[i]
        records[i] = None
        yield record


# ---------------------------------------------------------------------------
# Lasso syntax

_LASSO = re.compile(r"^([^()]*)\(([^()]+)\)$")


def parse_lasso(text: str, alphabet=None) -> LassoWord:
    """Parse ``u(v)`` with one character per letter."""
    m = _LASSO.match(text.strip())
    if not m:
        raise DocumentError(f"bad lasso syntax {text!r}; expected u(v) with nonempty v")
    prefix, period = tuple(m.group(1)), tuple(m.group(2))
    if alphabet is not None:
        extra = [c for c in prefix + period if c not in alphabet]
        if extra:
            raise DocumentError(f"letters {sorted(set(extra))} not in the machine's alphabet")
    return LassoWord(prefix, period)


def format_lasso(w: LassoWord) -> str:
    return "".join(w.prefix) + "(" + "".join(w.period) + ")"
