"""Command-line front end.

Exit codes: 0 success (or machines equivalent), 1 violation or disagreement
found, 2 inconclusive within budget, 3 usage or parse error.  Machine
arguments accept "-" for stdin, outputs "-" for stdout, so commands chain:

    omegatrans gen --seed 7 --n 3 --kind 2dpt | omegatrans det2rev - - | omegatrans validate -
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from .buchi import buchi_to_noacc, dbt_to_rbt, drop_acceptance, marking_from_colors
from .compose import compose_reachable
from .dot import machine_to_dot
from .evaluate import (
    ACCEPTED,
    BUDGET_EXCEEDED,
    EvalBudget,
    equiv_on_lassos,
    eval_machine,
)
from .forests import STATE_CAP, StateExplosion, two_way_to_sst
from .generate import generate_machine
from .io import (
    DocumentError,
    dumps_machine,
    format_lasso,
    loads_machine,
    parse_lasso,
)
from .lasso import enumerate_lassos, random_lassos
from .machines import validate_reversible
from .oneway import one_way_to_reversible
from .sst2rev import sst_to_reversible
from random import Random

USAGE_ERROR = 3
INCONCLUSIVE = 2
VIOLATION = 1
OK = 0


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load(path: str):
    return loads_machine(_read(path))


def _budget(args) -> EvalBudget:
    return EvalBudget(args.max_steps, args.max_output)


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    default = EvalBudget()
    p.add_argument(
        "--max-steps", type=int, default=default.max_steps, help="simulation step budget"
    )
    p.add_argument(
        "--max-output", type=int, default=default.max_output,
        help="letter bound on register machines' register contents during the repeat search",
    )


def cmd_validate(args) -> int:
    # The loader rejects every malformed machine (DocumentError, exit 3).
    machine = _load(args.machine)
    # The transition map makes every machine deterministic.
    reversible = validate_reversible(machine)
    print("deterministic: True")
    print(f"co-deterministic: {reversible}")
    print(f"reversible: {reversible}")
    print("summary: ok")
    return OK


def cmd_eval(args) -> int:
    machine = _load(args.machine)
    w = parse_lasso(args.lasso, alphabet=set(machine.input_alphabet))
    outcome = eval_machine(machine, w, _budget(args))
    if outcome.verdict == ACCEPTED:
        print(f"Accepted output={format_lasso(outcome.output)}")
    else:
        extra = ""
        if outcome.min_colors is not None:
            extra = f" min-colors={list(outcome.min_colors)}"
        print(f"{outcome.verdict}{extra}")
    print(f"summary: verdict={outcome.verdict} steps={outcome.steps}")
    return INCONCLUSIVE if outcome.verdict == BUDGET_EXCEEDED else OK


_MARKINGS = {
    "color0": marking_from_colors,
    "all": lambda machine: frozenset(machine.transitions),
    "none": lambda machine: frozenset(),
}
_CAP = ("--cap", dict(type=int, default=STATE_CAP, help="explored state cap, at least 1"))
_MARKING = ("--marking", dict(
    choices=list(_MARKINGS), default="color0",
    help="marked transitions: those of color 0, all, or none",
))

# The build commands, one row each: name, help text, machine arguments,
# flags as (flag, add_argument options), and the text written to the
# optional ``out`` argument, computed from (args, *machines).
BUILD_COMMANDS = (
    ("compose", "compose two reversible transducers (first then second), reachable pairs only",
     ("first", "second"), (), lambda args, a, b: dumps_machine(compose_reachable(a, b))),
    ("1w2rev", "one-way deterministic to reversible two-way",
     ("machine",), (), lambda args, m: dumps_machine(one_way_to_reversible(m))),
    ("2w2sst", "deterministic two-way to copyless register machine",
     ("machine",), (_CAP,), lambda args, m: dumps_machine(two_way_to_sst(m, state_cap=args.cap))),
    ("sst2rev", "copyless register machine to reversible two-way",
     ("machine",), (), lambda args, m: dumps_machine(sst_to_reversible(m))),
    ("det2rev", "deterministic two-way to reversible two-way",
     ("machine",), (_CAP,), lambda args, m: dumps_machine(dbt_to_rbt(m, state_cap=args.cap))),
    ("buchi2rt", "fold a marked reversible machine into one with no condition", ("machine",),
     (_MARKING,), lambda args, m: dumps_machine(buchi_to_noacc(m, _MARKINGS[args.marking](m)))),
    ("dropacc", "drop all colorings from a machine",
     ("machine",), (), lambda args, m: dumps_machine(drop_acceptance(m))),
    ("dot", "render a machine as Graphviz DOT text",
     ("machine",), (), lambda args, m: machine_to_dot(m)),
)


def _build(inputs: tuple[str, ...], text, args) -> int:
    """Run one build command: load its machine arguments in order, then
    write the row's text (nothing is written when the build fails)."""
    _write(args.out, text(args, *[_load(getattr(args, name)) for name in inputs]))
    return OK


def cmd_gen(args) -> int:
    machine = generate_machine(
        args.kind, args.seed, args.n, args.k, args.ell,
        alphabet_size=args.alphabet_size, density=args.density,
    )
    _write(args.out, dumps_machine(machine))
    return OK


def cmd_equiv(args) -> int:
    m1, m2 = _load(args.first), _load(args.second)
    if args.exhaustive:
        u_max, v_max = args.exhaustive
        lassos = enumerate_lassos(m1.input_alphabet, u_max, v_max)
    else:
        count, seed = args.random
        lassos = random_lassos(m1.input_alphabet, count, Random(seed))
    report = equiv_on_lassos(m1, m2, lassos, _budget(args))
    for w, reason in report.disagreements:
        print(f"disagreement on {format_lasso(w)}: {reason}")
    for w, reason in report.inconclusive:
        print(f"inconclusive on {format_lasso(w)}: {reason}")
    print(f"summary: {report.summary()}")
    if report.disagreements:
        return VIOLATION
    if report.inconclusive:
        return INCONCLUSIVE
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="omegatrans", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a machine document")
    p.add_argument("machine")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("eval", help="evaluate a machine on a lasso u(v)")
    p.add_argument("machine")
    p.add_argument("lasso")
    _add_budget_flags(p)
    p.set_defaults(fn=cmd_eval)

    for name, help_text, inputs, flags, text in BUILD_COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for machine in inputs:
            p.add_argument(machine)
        p.add_argument("out", nargs="?", default="-")
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.set_defaults(fn=partial(_build, inputs, text))

    p = sub.add_parser("gen", help="generate a seeded random machine")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--kind", choices=["2dpt", "1dpt", "cpsst"], default="2dpt")
    p.add_argument("--alphabet-size", type=int, default=2)
    p.add_argument("--density", type=float, default=0.9)
    p.add_argument("out", nargs="?", default="-")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("equiv", help="compare two machines on a lasso batch")
    p.add_argument("first")
    p.add_argument("second")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--exhaustive", nargs=2, type=int, metavar=("U_MAX", "V_MAX"))
    group.add_argument("--random", nargs=2, type=int, metavar=("COUNT", "SEED"))
    _add_budget_flags(p)
    p.set_defaults(fn=cmd_equiv)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (DocumentError, ValueError, StateExplosion, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, StateExplosion):
            return VIOLATION
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
