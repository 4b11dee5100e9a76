"""Tests of the benchmark itself: span arithmetic, the tail rule, wrapper
installation and removal, and smoke runs of the command line.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
from spans import Span, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_children_but_not_grandchildren():
    spans = [
        Span("stage", 0.0, 10.0, -1, 0),
        Span("inner", 1.0, 4.0, 0, 0),
        Span("inner", 5.0, 9.0, 0, 0),
        Span("leaf", 2.0, 3.0, 1, 0),
        Span("stage", 20.0, 21.0, -1, 1),
    ]
    times = self_times(spans)
    assert times["stage"] == pytest.approx((10 - 3 - 4) + 1)
    assert times["inner"] == pytest.approx((3 - 1) + 4)
    assert times["leaf"] == pytest.approx(1)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("outer", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 5.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),
        Span("c", 9.0, 12.0, 0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans)["outer"] == pytest.approx(10 - 5 - 1)


def test_tracer_records_nesting_and_job():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.job = 3
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (-1, 0)
    assert (outer.start, inner.start, inner.end, outer.end) == (0, 1, 2, 3)
    assert outer.job == inner.job == 3


def test_wrap_records_observes_and_removes():
    def double(x):
        return 2 * x

    module = SimpleNamespace(double=double)
    seen = []
    tracer = Tracer()
    tracer.wrap(module, "double", "m.double", lambda a, k, r, t: seen.append((a, r)))
    tracer.count_calls(module, "double", "m.calls")
    assert module.double(4) == 8
    assert seen == [((4,), 8)]
    assert tracer.counts["m.calls"] == 1
    assert [s.name for s in tracer.spans] == ["m.double"]
    tracer.remove()
    assert module.double is double


def test_wrap_skips_a_function_that_is_gone():
    module = SimpleNamespace()
    tracer = Tracer()
    tracer.wrap(module, "prune_unreachable", "machines.prune_unreachable")
    tracer.count_calls(module, "run_on_finite", "compose.run_on_finite_calls")
    tracer.remove()
    assert vars(module) == {}


def test_absent_spans_and_counts_read_zero():
    empty = run.Pass(1.0, [0.1], [run.JobResult(1, 1, 1, 0, [])], {}, {})
    metrics = run.per_layer([empty], [empty])
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert metrics["machines.prune_unreachable_s"] == 0
    assert metrics["compose.useful_ratio"] == 0
    assert metrics["trace.overhead_share"] == 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct, beyond = run.tail([float(v) for v in range(30, 0, -1)])
    assert (value, beyond) == (20.0, 10)
    assert pct == pytest.approx(200 / 3)
    assert run.tail([float(v) for v in range(11)]) == (0.0, 100 / 11, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_traced_pass_restores_every_wrapped_function():
    sys.path.insert(0, str(run.SRC))
    workload = run.WORKLOADS["equiv"]
    corpus = run.set_up(workload, 2)
    targets = [(m, a) for m, a, _, _ in run.TRACED] + [(m, a) for m, a, _ in run.CALL_COUNTED]
    before = {(m, a): getattr(getattr(corpus.ot, m), a) for m, a in targets}
    traced = run.traced_pass(workload, corpus, [1, 0])
    assert {(m, a): getattr(getattr(corpus.ot, m), a) for m, a in targets} == before
    untraced = run.run_pass(workload, corpus, [0, 1])
    assert run.determinism_problems([untraced], [traced]) == []
    assert traced.layer_counts["compose.product_states"] > 0
    assert run.Pass.from_json(json.loads(json.dumps(traced._asdict()))) == traced
    assert not any(r.problems for r in traced.results + untraced.results)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_metric_in_the_spec(trace, section):
    done = _run(
        "--workload", "equiv", "--seed", "5", "--seconds", "0", "--trace", trace, "--jobs", "2"
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    spec = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    rows = {tuple(line.split()[1::2]) for line in lines[:-1] if not line.startswith("#")}
    assert rows == {(name, unit) for name, unit in spec.items()}


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    done = _run(
        "--workload", "equiv", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
