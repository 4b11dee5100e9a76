"""Pipeline benchmark for omegatrans: det2rev, 2w2sst and equiv workloads.

    python3 perfbench/run.py --workload det2rev --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the root of a checkout; the library is imported from its
``src/`` directory and from nowhere else.  One client in a closed loop:
each job starts when the previous one ends, and nothing runs in
parallel.  A job is one generated machine pushed through the library's
public functions, with every output checked.

Each workload's corpus is a fixed set of generator seeds (0 .. jobs-1)
with fixed generator parameters, so the exact counts a run prints can be
compared across versions of the library.  Per-job cost is heavy-tailed
(the two largest det2rev jobs do a third of its work), so a corpus drawn
afresh per run would measure the draw rather than the library.

A run is a sequence of worker processes, started one after another until
``--seconds`` have gone by (at least two).  Each worker sets up, then
makes one pass over the corpus (and, with ``--trace 1``, one traced
pass).  ``--seed`` draws each worker's job order and its PYTHONHASHSEED:
string hashing decides dict and set layout, which moves single jobs by up
to a fifth, so a run averages over several hash seeds instead of sitting
on one.  Throughput, median and tail latency are computed per pass and
reported as their median over passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics: self times of
spans recorded around the library functions where their callers look them
up (see ``TRACED``), counts read from their arguments and results, and the
tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from random import Random
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

from spans import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = (
    "buchi", "compose", "evaluate", "forests", "generate",
    "io", "lasso", "machines", "oneway", "sst2rev",
)
SETUP_REPEATS = 3  # per worker process
MIN_PASSES = 2
HASH_SEEDS = 2**32  # PYTHONHASHSEED takes 0 .. 2**32 - 1
WORKER_TIMEOUT = 170  # seconds


# ---------------------------------------------------------------------------
# Jobs


class JobResult(NamedTuple):
    states: int  # of the emitted machine
    transitions: int
    checked: int  # lassos, over every oracle check of the job
    inconclusive: int
    problems: list[str]  # empty when every check passed

    def counts(self) -> tuple[int, int, int, int]:
        return self.states, self.transitions, self.checked, self.inconclusive


def _result(output, reports, problems: list[str]) -> JobResult:
    for report in reports:
        problems += [f"disagrees on {w}: {why}" for w, why in report.disagreements]
    return JobResult(
        len(output.states),
        len(output.transitions),
        sum(r.checked for r in reports),
        sum(len(r.inconclusive) for r in reports),
        problems,
    )


def _oracle(ot, source, output, lassos):
    return ot.evaluate.equiv_on_lassos(source, output, lassos, ot.evaluate.EvalBudget())


def _reversible(ot, machine) -> list[str]:
    return [] if ot.machines.validate_reversible(machine) else ["output is not reversible"]


def _registers(source, sst) -> list[str]:
    bound = 2 * len(source.states) - 1
    if len(sst.registers) != bound:
        return [f"register machine has {len(sst.registers)} registers, not 2n-1 = {bound}"]
    return []


def job_det2rev(ot, doc: str, lassos) -> JobResult:
    """What ``omegatrans det2rev`` does, then the oracle on its output."""
    source = ot.io.loads_machine(doc)
    output = ot.buchi.dbt_to_rbt(source)
    problems = _reversible(ot, output)
    if ot.io.loads_machine(ot.io.dumps_machine(output)) != output:
        problems.append("document round trip changed the machine")
    return _result(output, [_oracle(ot, source, output, lassos)], problems)


def job_2w2sst(ot, source, lassos) -> JobResult:
    """What ``omegatrans 2w2sst`` does, then the oracle on its output."""
    sst = ot.forests.two_way_to_sst(source)
    return _result(sst, [_oracle(ot, source, sst, lassos)], _registers(source, sst))


def job_equiv(ot, source, lassos) -> JobResult:
    """Both conversions, each checked against the source by the oracle."""
    sst = ot.forests.two_way_to_sst(source)
    rev = ot.buchi.dbt_to_rbt(source)
    problems = _registers(source, sst) + _reversible(ot, rev)
    reports = [_oracle(ot, source, sst, lassos), _oracle(ot, source, rev, lassos)]
    return _result(rev, reports, problems)


class Workload(NamedTuple):
    n: int
    alphabet_size: int
    jobs: int
    lassos: tuple[int, int]  # enumerate_lassos(alphabet, max_prefix, max_period)
    run: Callable
    documents: bool = False  # jobs read JSON documents, as the CLI does


# All corpora: generate_two_way(seed, n, k=1, ell=2, alphabet_size, density=1.0).
# det2rev: construction and serialisation dominate; per-job cost is very
#   uneven (one 68,718-pair product on seed 1).
# 2w2sst: larger machines, merging-forest exploration dominates; never
#   reaches compose, oneway or io.
# equiv: small machines, long lassos; the oracle dominates, running the
#   reversible outputs that dbt_to_rbt builds.
WORKLOADS = {
    "det2rev": Workload(7, 3, 30, (1, 2), job_det2rev, documents=True),
    "2w2sst": Workload(22, 4, 40, (1, 2), job_2w2sst),
    "equiv": Workload(4, 2, 30, (3, 5), job_equiv),
}
COLORINGS, ELL, DENSITY = 1, 2, 1.0


def run_job(ot, workload: Workload, item, lassos) -> JobResult:
    try:
        return workload.run(ot, item, lassos)
    except Exception as exc:  # a failing job is counted, never dropped
        return JobResult(0, 0, 0, 0, [traceback.format_exception_only(exc)[-1].strip()])


# ---------------------------------------------------------------------------
# Set-up


class Corpus(NamedTuple):
    ot: SimpleNamespace
    items: list
    lassos: list


def import_library() -> SimpleNamespace:
    """Fresh import of the checkout's omegatrans, dropping any earlier one."""
    for name in [m for m in sys.modules if m == "omegatrans" or m.startswith("omegatrans.")]:
        del sys.modules[name]
    ot = SimpleNamespace(**{m: importlib.import_module(f"omegatrans.{m}") for m in MODULES})
    found = Path(sys.modules["omegatrans"].__file__).resolve().parent
    if found != SRC / "omegatrans":
        raise ImportError(f"omegatrans imported from {found}, not from {SRC}")
    return ot


def generate(ot, workload: Workload, jobs: int) -> list:
    return [
        ot.generate.generate_two_way(
            seed, workload.n, COLORINGS, ELL, alphabet_size=workload.alphabet_size, density=DENSITY
        )
        for seed in range(jobs)
    ]


def enumerate_lassos(ot, workload: Workload, machine) -> list:
    return ot.lasso.enumerate_lassos(machine.input_alphabet, *workload.lassos)


def set_up(workload: Workload, jobs: int) -> Corpus:
    """Import, corpus generation and lasso enumeration."""
    ot = import_library()
    machines = generate(ot, workload, jobs)
    items = [ot.io.dumps_machine(m) for m in machines] if workload.documents else machines
    return Corpus(ot, items, enumerate_lassos(ot, workload, machines[0]))


# ---------------------------------------------------------------------------
# Passes


class Pass(NamedTuple):
    wall: float
    latencies: list[float]  # seconds, indexed by job
    results: list[JobResult]  # indexed by job
    layer_times: Optional[dict] = None  # traced: self seconds per span name
    layer_counts: Optional[dict] = None  # traced: per-layer counts

    @classmethod
    def from_json(cls, fields: dict) -> "Pass":
        fields["results"] = [JobResult(*r) for r in fields["results"]]
        return cls(**fields)


def run_pass(workload: Workload, corpus: Corpus, order: list[int], tracer=None) -> Pass:
    jobs = len(corpus.items)
    latencies = [0.0] * jobs
    results: list = [None] * jobs
    start = time.perf_counter()
    for i in order:
        if tracer is not None:
            tracer.job = i
            tracer.problems = []
        with tracer.span("job") if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            result = run_job(corpus.ot, workload, corpus.items[i], corpus.lassos)
            latencies[i] = time.perf_counter() - t0
        if tracer is not None:
            result.problems.extend(tracer.problems)
        results[i] = result
    wall = time.perf_counter() - start
    if tracer is None:
        return Pass(wall, latencies, results)
    return Pass(wall, latencies, results, self_times(tracer.spans), dict(tracer.counts))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _observe_forests(args, kwargs, sst, tr: Tracer) -> None:
    n = len(_arg(args, kwargs, 0, "machine").states)
    details = kwargs.get("details") or {}
    tr.counts["forests.summaries"] += details.get("summary_count", 0)
    for key in ("max_forest_nodes", "max_forest_edges"):
        name = f"forests.{key}"
        tr.counts[name] = max(tr.counts[name], details.get(key, 0))
    if len(sst.registers) != 2 * n - 1:
        tr.problems.append(
            f"two_way_to_sst used {len(sst.registers)} registers, not 2n-1 = {2 * n - 1}"
        )
    if details.get("max_forest_edges", 0) > 2 * n - 2:
        tr.problems.append(f"a merging forest has more than 2n-2 = {2 * n - 2} edges")


def _observe_oneway(args, kwargs, out, tr: Tracer) -> None:
    n = len(_arg(args, kwargs, 0, "machine").states)
    tr.counts["oneway.states"] += len(out.states)
    tr.counts["oneway.bound"] += 4 * n * n
    if len(out.states) > 4 * n * n:
        tr.problems.append(
            f"one_way_to_reversible built {len(out.states)} states, over 4n^2 = {4 * n * n}"
        )


def _observe_compose(args, kwargs, out, tr: Tracer) -> None:
    first, second = _arg(args, kwargs, 0, "first"), _arg(args, kwargs, 1, "second")
    product = len(first.states) * len(second.states)
    tr.counts["compose.product_states"] += len(out.states)
    tr.counts["compose.transitions"] += len(out.transitions)
    if len(out.states) != product:
        tr.problems.append(f"compose built {len(out.states)} states, not |Q|*|P| = {product}")


def _count_states(key: str):
    def observe(args, kwargs, out, tr: Tracer) -> None:
        tr.counts[key] += len(out.states)

    return observe


def _observe_dumps(args, kwargs, text, tr: Tracer) -> None:
    tr.counts["io.doc_bytes"] += len(text.encode())


def _observe_eval(args, kwargs, outcome, tr: Tracer) -> None:
    tr.counts["evaluate.steps"] += outcome.steps


def _observe_equiv(args, kwargs, report, tr: Tracer) -> None:
    tr.counts["evaluate.lassos_checked"] += report.checked
    tr.counts["evaluate.inconclusive"] += len(report.inconclusive)


# (module, attribute, span name, observer).  Each function is wrapped in the
# module its callers look it up in: the benchmark's own jobs call through
# the module that defines it, the library's stages through the module that
# imported the name.
_sst2rev_states = _count_states("sst2rev.output_states")
_walker_states = _count_states("sst2rev.walker_states")
_kept_states = _count_states("machines.kept_states")

TRACED = (
    ("buchi", "dbt_to_rbt", "buchi.dbt_to_rbt", None),
    ("buchi", "two_way_to_sst", "forests.two_way_to_sst", _observe_forests),
    ("forests", "two_way_to_sst", "forests.two_way_to_sst", _observe_forests),
    ("buchi", "sst_to_reversible", "sst2rev.sst_to_reversible", _sst2rev_states),
    ("sst2rev", "sst_to_substitution_stream", "sst2rev.substitution_stream", None),
    ("sst2rev", "build_register_walker", "sst2rev.register_walker", _walker_states),
    ("sst2rev", "one_way_to_reversible", "oneway.one_way_to_reversible", _observe_oneway),
    ("sst2rev", "compose", "compose.compose", _observe_compose),
    ("sst2rev", "prune_unreachable", "machines.prune_unreachable", _kept_states),
    ("compose", "validate_reversible", "machines.validate_reversible", None),
    ("machines", "validate_reversible", "machines.validate_reversible", None),
    ("io", "loads_machine", "io.loads", None),
    ("io", "dumps_machine", "io.dumps", _observe_dumps),
    ("evaluate", "equiv_on_lassos", "evaluate.equiv_on_lassos", _observe_equiv),
    ("evaluate", "eval_two_way", "evaluate.eval_two_way", _observe_eval),
    ("evaluate", "eval_one_way", "evaluate.eval_one_way", _observe_eval),
    ("evaluate", "eval_sst", "evaluate.eval_sst", _observe_eval),
    ("lasso", "enumerate_lassos", "lasso.enumerate_lassos", None),
)
CALL_COUNTED = (("compose", "run_on_finite", "compose.run_on_finite_calls"),)
CORPUS_SPAN = "generate.corpus"


def install(ot, tracer: Tracer) -> None:
    for module, attr, name, observe in TRACED:
        tracer.wrap(getattr(ot, module), attr, name, observe, details=attr == "two_way_to_sst")
    for module, attr, name in CALL_COUNTED:
        tracer.count_calls(getattr(ot, module), attr, name)


def traced_pass(workload: Workload, corpus: Corpus, order: list[int]) -> Pass:
    """One pass with every wrapper installed, preceded by a traced corpus
    generation and lasso enumeration; the wrappers are removed on return."""
    tracer = Tracer()
    install(corpus.ot, tracer)
    try:
        with tracer.span(CORPUS_SPAN):
            machines = generate(corpus.ot, workload, len(corpus.items))
        enumerate_lassos(corpus.ot, workload, machines[0])
        return run_pass(workload, corpus, order, tracer)
    finally:
        tracer.remove()


# ---------------------------------------------------------------------------
# Metrics

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "output_states": "count",
    "output_transitions": "count",
    "peak_rss_mb": "MB",
    "pass_share": "ratio",
    "conclusive_share": "ratio",
    "setup_s": "s",
}
TIMED_SPANS = sorted({name for _, _, name, _ in TRACED} | {CORPUS_SPAN})
LAYER_COUNTS = (
    "compose.product_states",
    "compose.transitions",
    "compose.run_on_finite_calls",
    "machines.kept_states",
    "oneway.states",
    "sst2rev.walker_states",
    "forests.summaries",
    "forests.max_forest_nodes",
    "forests.max_forest_edges",
    "io.doc_bytes",
    "evaluate.steps",
    "evaluate.lassos_checked",
    "evaluate.inconclusive",
)
LAYER_RATIOS = ("compose.useful_ratio", "oneway.bound_ratio", "trace.overhead_share")
PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in TIMED_SPANS},
    **{name: "count" for name in LAYER_COUNTS},
    **{name: "ratio" for name in LAYER_RATIOS},
}


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the highest percentile
    that has at least ten samples beyond it; with ten samples or fewer,
    the maximum with none beyond."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0, 0
    rank = len(ordered) - 10
    return ordered[rank - 1], 100.0 * rank / len(ordered), 10


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(
    passes: list[Pass], setup_times: list[float], peak_rss_mb: float
) -> tuple[dict, list[str]]:
    """Timings are per-pass statistics over the corpus, each reported as
    the median over passes; counts come from one pass."""
    jobs = len(passes[0].latencies)
    tails = [tail(p.latencies) for p in passes]
    _, pct, beyond = tails[0]
    results = [r for p in passes for r in p.results]
    failed = sum(1 for r in results if r.problems)
    checked = sum(r.checked for r in results)
    inconclusive = sum(r.inconclusive for r in results)
    first = passes[0].results
    metrics = {
        "jobs_per_s": jobs / statistics.median(p.wall for p in passes),
        "job_p50_ms": 1000 * statistics.median(statistics.median(p.latencies) for p in passes),
        "job_tail_ms": 1000 * statistics.median(value for value, _, _ in tails),
        "output_states": sum(r.states for r in first),
        "output_transitions": sum(r.transitions for r in first),
        "peak_rss_mb": peak_rss_mb,
        "pass_share": 1 - _ratio(failed, len(results)),
        "conclusive_share": 1 - _ratio(inconclusive, checked) if checked else 0.0,
        "setup_s": statistics.median(setup_times),
    }
    notes = [
        f"job_tail_ms is p{pct:.1f} of the {jobs} jobs of a pass ({beyond} beyond it), "
        f"median of {len(passes)} passes",
        f"fail_share {_ratio(failed, len(results)):.4f} ({failed} of {len(results)} jobs failed)",
        f"inconclusive_share {_ratio(inconclusive, checked):.4f} "
        f"({inconclusive} of {checked} lassos inconclusive)",
    ]
    return metrics, notes


def per_layer(traced: list[Pass], untraced: list[Pass]) -> dict:
    counts = traced[0].layer_counts
    metrics = {
        f"{name}_s": statistics.median(p.layer_times.get(name, 0.0) for p in traced)
        for name in TIMED_SPANS
    }
    metrics.update({name: counts.get(name, 0) for name in LAYER_COUNTS})
    metrics["compose.useful_ratio"] = _ratio(
        counts.get("sst2rev.output_states", 0), counts.get("compose.product_states", 0)
    )
    metrics["oneway.bound_ratio"] = _ratio(
        counts.get("oneway.states", 0), counts.get("oneway.bound", 0)
    )
    metrics["trace.overhead_share"] = (
        statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in untraced) - 1
    )
    return metrics


def determinism_problems(untraced: list[Pass], traced: list[Pass]) -> list[str]:
    """The exact counts must repeat: per job across every pass, and the
    per-layer counts across traced passes."""
    problems = []
    reference = [r.counts() for r in untraced[0].results]
    for kind, group in (("untraced", untraced), ("traced", traced)):
        for index, p in enumerate(group):
            if [r.counts() for r in p.results] != reference:
                problems.append(f"output counts of {kind} pass {index} differ from untraced pass 0")
    for index, p in enumerate(traced[1:], 1):
        if p.layer_counts != traced[0].layer_counts:
            problems.append(f"per-layer counts of traced pass {index} differ from traced pass 0")
    return problems


# ---------------------------------------------------------------------------
# Driver


def print_failures(name: str, passes: list[Pass], shown: int = 3) -> None:
    for p in passes:
        kind = "untraced" if p.layer_counts is None else "traced"
        for i, r in enumerate(p.results):
            for problem in r.problems[:shown]:
                print(f"FAIL {name} job {i} ({kind}): {problem}")
            if len(r.problems) > shown:
                print(f"FAIL {name} job {i} ({kind}): {len(r.problems) - shown} more problems")


def worker(name: str, order_seed: int, jobs: int, trace: bool) -> dict:
    """One worker process's share of a run: set-up, one untraced pass and,
    with ``trace``, one traced pass."""
    workload = WORKLOADS[name]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        corpus = set_up(workload, jobs)
        setup_times.append(time.perf_counter() - t0)
    rng = Random(order_seed)
    passes = [run_pass(workload, corpus, rng.sample(range(jobs), jobs))]
    if trace:
        passes.append(traced_pass(workload, corpus, rng.sample(range(jobs), jobs)))
    return {
        "setup_times": setup_times,
        "passes": [p._asdict() for p in passes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "lassos": len(corpus.lassos),
    }


def spawn(name: str, hash_seed: int, order_seed: int, jobs: int, trace: bool) -> dict:
    command = [
        sys.executable, __file__, "--workload", name, "--seed", str(order_seed),
        "--seconds", "0", "--trace", str(int(trace)), "--jobs", str(jobs), "--worker",
    ]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def measure(name: str, seed: int, seconds: float, trace: bool, jobs: int) -> int:
    """Run worker processes one after another until ``seconds`` have gone
    by (at least MIN_PASSES), then report over all their passes."""
    rng = Random(seed)
    untraced: list[Pass] = []
    traced: list[Pass] = []
    setup_times: list[float] = []
    peak_rss: list[float] = []
    start = time.perf_counter()
    while len(untraced) < MIN_PASSES or time.perf_counter() - start < seconds:
        share = spawn(name, rng.randrange(HASH_SEEDS), rng.randrange(HASH_SEEDS), jobs, trace)
        setup_times += share["setup_times"]
        peak_rss.append(share["peak_rss_mb"])
        first, *rest = [Pass.from_json(p) for p in share["passes"]]
        untraced.append(first)
        traced += rest
    workload = WORKLOADS[name]
    print(
        f"# {name}: generate_two_way(seed 0..{jobs - 1}, n={workload.n}, k={COLORINGS}, ell={ELL}, "
        f"|alphabet|={workload.alphabet_size}, density={DENSITY}); "
        f"{share['lassos']} lassos per check; seed {seed}; closed loop, 1 client; "
        f"{len(untraced)} worker processes"
    )
    for kind, group in (("untraced", untraced), ("traced", traced)):
        if group:
            print(f"# {kind} pass seconds: " + " ".join(f"{p.wall:.3f}" for p in group))

    print_failures(name, untraced + traced)
    mismatches = determinism_problems(untraced, traced)
    for problem in mismatches:
        print(f"NONDETERMINISTIC {name}: {problem}")

    if trace:
        metrics, units, notes = per_layer(traced, untraced), PER_LAYER_UNITS, []
    else:
        metrics, notes = end_to_end(untraced, setup_times, max(peak_rss))
        units = END_TO_END_UNITS
    for key in units:
        print(f"{name:8} {key:36} {metrics[key]:>16.6g} {units[key]}")
    for note in notes:
        print(f"# {note}")

    results = [r for p in untraced + traced for r in p.results]
    failed = sum(1 for r in results if r.problems)
    print(json.dumps({
        "correct": failed == 0 and not mismatches,
        "attempted": len(results),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }))
    return 1 if mismatches else 0


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak memory."""
    status, combined = 0, {}
    for name in WORKLOADS:
        command = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--jobs", str(args.jobs)] if args.jobs else [])
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or child.returncode
        if child.returncode == 0:
            combined[name] = json.loads(lines[-1])
    if status == 0:
        print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True, help="draws the job order")
    parser.add_argument("--seconds", type=float, required=True, help="measure at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=None, help="corpus size (default per workload)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    try:
        import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import omegatrans from {SRC}: {exc}", file=sys.stderr)
        return 2
    jobs = args.jobs or WORKLOADS[args.workload].jobs
    if args.worker:
        print(json.dumps(worker(args.workload, args.seed, jobs, bool(args.trace))))
        return 0
    return measure(args.workload, args.seed, args.seconds, bool(args.trace), jobs)


if __name__ == "__main__":
    sys.exit(main())
