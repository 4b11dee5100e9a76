import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("script", ["size_report.py", "fuzz_pipeline.py", "stage_times.py"])
def test_script_runs(script):
    _run_script(script, "--seeds", "4")


def test_stage_times_on_the_det2rev_corpus():
    report = json.loads(_run_script("stage_times.py", "--seeds", "3"))
    assert report["corpus"] == (
        "generate_two_way(seed, 7, 1, 2, alphabet_size=3, density=1.0), seeds 0-2"
    )
    (column,) = report["columns"].values()
    assert list(column["seconds"]) == [
        "load source", "two_way_to_sst", "sst_to_reversible", "validate_reversible",
        "dumps_machine", "load output", "==", "oracle", "total",
    ]
    counts = column["counts"]
    assert list(counts) == [
        "output_states", "output_transitions", "register_states", "reduced_register_states",
        "outline_states", "outline_state_bound", "oracle_steps", "oracle_step_bound",
        "summaries", "max_forest_edges", "max_forest_edges_bound", "distinct_transitions",
    ]
    # No step re-enters the start summary of seeds 0-2, so ``ini`` stands in
    # for it and each register machine has one state per summary: 4 + 25 + 9.
    assert counts["register_states"] == counts["summaries"] == 38
    assert (counts["max_forest_edges"], counts["max_forest_edges_bound"]) == (5, 12)
    assert counts["output_states"] == 36 + 2597 + 44
    # The reduced machines, and so the streams, of seeds 0-2 have 3, 15 and
    # 5 states (3, 18 and 5 without naming registers by use).
    assert counts["reduced_register_states"] == 3 + 15 + 5
    assert counts["outline_states"] == 922
    assert counts["outline_state_bound"] == 4 * (3**2 + 15**2 + 5**2)
    assert 0 < counts["oracle_steps"] <= counts["oracle_step_bound"]


def test_stage_times_on_the_2w2sst_corpus():
    report = json.loads(
        _run_script("stage_times.py", "--corpus", "2w2sst", "--seeds", "3", "--repeats", "2")
    )
    assert report["corpus"] == (
        "generate_two_way(seed, 22, 1, 2, alphabet_size=4, density=1.0), seeds 0-2"
    )
    (column,) = report["columns"].values()
    assert list(column) == ["seconds", "peak_rss_mb", "counts"]
    assert list(column["seconds"]) == ["two_way_to_sst", "oracle", "total"]
    peak = column["peak_rss_mb"]
    assert 0 < peak["q1"] <= peak["median"] <= peak["q3"] < 4096
    counts = column["counts"]
    assert list(counts) == [
        "output_states", "output_transitions", "oracle_steps", "oracle_step_bound",
        "summaries", "max_forest_edges", "max_forest_edges_bound",
    ]
    assert counts["output_states"] > 3
    # The summary counts and forest maxima of seeds 0-2 in PINNED_CONVERSIONS.
    assert counts["summaries"] == 38 + 104 + 85
    assert (counts["max_forest_edges"], counts["max_forest_edges_bound"]) == (15, 42)
    assert 0 < counts["oracle_steps"] <= counts["oracle_step_bound"]


def test_stage_times_on_the_equiv_corpus():
    report = json.loads(_run_script("stage_times.py", "--corpus", "equiv", "--seeds", "3"))
    assert report["corpus"] == (
        "generate_two_way(seed, 4, 1, 2, alphabet_size=2, density=1.0), seeds 0-2"
    )
    assert report["lassos"] == "enumerate_lassos(alphabet, 3, 5)"
    (column,) = report["columns"].values()
    assert list(column["seconds"]) == [
        "two_way_to_sst",
        "dbt_to_rbt",
        "validate_reversible",
        "oracle vs register machine",
        "oracle vs reversible output",
        "total",
    ]
    counts = column["counts"]
    assert list(counts) == [
        "output_states", "output_transitions", "register_states", "reduced_register_states",
        "outline_states", "outline_state_bound", "oracle_steps", "oracle_step_bound",
        "summaries", "max_forest_edges", "max_forest_edges_bound",
    ]
    assert counts["output_states"] > 3
    assert 0 < counts["reduced_register_states"] <= counts["register_states"]
    assert counts["register_states"] > 3
    assert 0 < counts["outline_states"] <= counts["outline_state_bound"]
    assert 0 < counts["summaries"]
    assert 0 <= counts["max_forest_edges"] <= counts["max_forest_edges_bound"] == 6
    assert 0 < counts["oracle_steps"] <= counts["oracle_step_bound"]


def test_stage_times_on_the_compose_corpus():
    report = json.loads(_run_script("stage_times.py", "--corpus", "compose", "--seeds", "3"))
    assert report["corpus"] == (
        "ordered pairs of distinct dbt_to_rbt(generate_two_way(seed, 7, 1, 2,"
        " alphabet_size=3, density=1.0)), seeds (0, 2, 3)"
    )
    assert "lassos" not in report
    (column,) = report["columns"].values()
    assert list(column["seconds"]) == ["compose_reachable", "total"]
    counts = column["counts"]
    assert list(counts) == [
        "reached_pairs", "product_bound", "output_transitions", "distinct_transitions",
    ]
    assert counts["product_bound"] == 2 * (36 * 44 + 36 * 35 + 44 * 35)
    assert 0 < counts["reached_pairs"] <= counts["product_bound"]
    assert 0 < counts["distinct_transitions"] <= counts["output_transitions"]


@pytest.mark.parametrize(
    "args,complaint",
    [
        (["--seeds", "0"], "argument --seeds: must be at least 1, got 0"),
        (["--corpus", "compose", "--seeds", "0"], "argument --seeds: must be at least 1, got 0"),
        (["--repeats", "0"], "argument --repeats: must be at least 1, got 0"),
        (["--seeds", "x"], "argument --seeds: invalid count value: 'x'"),
        (["--src", "nodir"], "argument --src: expected NAME=DIR, got 'nodir'"),
        (["--src", "=src"], "argument --src: expected NAME=DIR, got '=src'"),
    ],
)
def test_stage_times_rejects_bad_arguments(args, complaint):
    """A usage error, before any worker starts: exit 2 and one error line
    after the usage, never a traceback or an empty report."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "stage_times.py"), *args],
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage: stage_times.py")
    assert done.stderr.splitlines()[-1] == f"stage_times.py: error: {complaint}"
    assert "Traceback" not in done.stderr
