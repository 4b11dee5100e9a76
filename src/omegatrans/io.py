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
from typing import Union

from .lasso import LassoWord
from .machines import (
    CopylessParitySST,
    SstTransition,
    State,
    Substitution,
    Transition,
    TwoWayParityTransducer,
    validate_deterministic,
    validate_machine,
    validate_one_way,
    validate_sst_machine,
)

Machine = Union[TwoWayParityTransducer, CopylessParitySST]


class DocumentError(ValueError):
    """Malformed machine document; carries transition-level locations."""


def machine_to_document(machine: Machine) -> dict:
    doc = {
        "kind": "cpsst" if isinstance(machine, CopylessParitySST) else
        ("1dpt" if machine.is_one_way() else "2dpt"),
        "input_alphabet": list(machine.input_alphabet),
        "output_alphabet": list(machine.output_alphabet),
        "states": [
            {"name": s.name, "polarity": "+" if s.forward else "-"} for s in machine.states
        ],
        "initial": machine.initial.name,
        "k": machine.k,
        "ell": machine.ell,
    }
    order = {s: i for i, s in enumerate(machine.states)}
    entries = sorted(
        machine.transitions.items(), key=lambda kv: (order[kv[0][0]], str(kv[0][1]))
    )
    if isinstance(machine, CopylessParitySST):
        doc["registers"] = list(machine.registers)
        doc["out"] = machine.out
        doc["transitions"] = [
            {
                "from": src.name,
                "letter": letter,
                "to": tr.target.name,
                "update": {
                    r: [{kind: value} for kind, value in img]
                    for r, img in tr.update.images
                },
                "colors": list(tr.colors),
            }
            for (src, letter), tr in entries
        ]
    else:
        doc["transitions"] = [
            {
                "from": src.name,
                "letter": letter,
                "to": tr.target.name,
                "output": list(tr.output),
                "colors": list(tr.colors),
            }
            for (src, letter), tr in entries
        ]
    return doc


def document_to_machine(doc: dict) -> Machine:
    """Machine described by a parsed JSON document.

    Every malformed document raises DocumentError: a missing field, or a
    value of the wrong type wherever it is first used, is reported here
    rather than checked field by field.
    """
    if not isinstance(doc, dict):
        raise DocumentError(f"a machine document is a JSON object, not a {type(doc).__name__}")
    try:
        return _build_machine(doc)
    except DocumentError:
        raise
    except KeyError as exc:
        raise DocumentError(f"missing field {exc}") from exc
    except (TypeError, AttributeError, ValueError) as exc:
        raise DocumentError(f"malformed document: {exc}") from exc


def _build_machine(doc: dict) -> Machine:
    kind = doc.get("kind")
    if kind not in ("2dpt", "1dpt", "cpsst"):
        raise DocumentError(f"unknown machine kind {kind!r}")
    states = tuple(State(s["name"], s["polarity"] == "+") for s in doc["states"])
    by_name = {s.name: s for s in states}
    if doc["initial"] not in by_name:
        raise DocumentError(f"initial state {doc['initial']!r} not declared")
    alphabet = tuple(doc["input_alphabet"])
    out_alphabet = tuple(doc["output_alphabet"])
    k, ell = int(doc["k"]), int(doc["ell"])

    triples = []
    for i, t in enumerate(doc["transitions"]):
        where = f"transition #{i} ({t.get('from')!r} on {t.get('letter')!r})"
        if t["from"] not in by_name:
            raise DocumentError(f"{where}: unknown source state")
        if t["to"] not in by_name:
            raise DocumentError(f"{where}: unknown target state")
        triples.append((t["from"], t["letter"], t["to"]))
    if not validate_deterministic(triples):
        raise DocumentError("duplicate (state, letter) transition keys")

    if kind == "cpsst":
        registers = tuple(doc["registers"])
        transitions = {}
        for i, t in enumerate(doc["transitions"]):
            images = {}
            for r, toks in t["update"].items():
                img = []
                for tok in toks:
                    (tag, value), = tok.items()
                    if tag not in ("reg", "sym"):
                        raise DocumentError(
                            f"transition #{i}: token tag must be reg or sym, got {tag!r}"
                        )
                    img.append((tag, value))
                images[r] = tuple(img)
            transitions[(by_name[t["from"]], t["letter"])] = SstTransition(
                by_name[t["to"]], Substitution.from_dict(images), tuple(t["colors"])
            )
        machine = CopylessParitySST(
            input_alphabet=alphabet,
            output_alphabet=out_alphabet,
            states=states,
            initial=by_name[doc["initial"]],
            transitions=transitions,
            registers=registers,
            out=doc["out"],
            k=k,
            ell=ell,
        )
        problems = validate_sst_machine(machine)
    else:
        transitions = {}
        for t in doc["transitions"]:
            transitions[(by_name[t["from"]], t["letter"])] = Transition(
                by_name[t["to"]], tuple(t["output"]), tuple(t["colors"])
            )
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
        if kind == "1dpt" and not validate_one_way(machine):
            problems.append("declared one-way but has backward states or endmarker transitions")
    if problems:
        raise DocumentError("; ".join(problems))
    return machine


def dumps_machine(machine: Machine) -> str:
    return json.dumps(machine_to_document(machine), indent=2, sort_keys=True) + "\n"


def loads_machine(text: str) -> Machine:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    return document_to_machine(doc)


def save_machine(machine: Machine, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_machine(machine))


def load_machine(path: str) -> Machine:
    with open(path) as fh:
        return loads_machine(fh.read())


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
