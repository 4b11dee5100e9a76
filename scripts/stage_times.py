#!/usr/bin/env python3
"""Seconds per stage of the det2rev, 2w2sst, equiv or compose pipeline over
a seeded corpus.

With ``--corpus det2rev`` (the default), a job is what ``omegatrans
det2rev`` does plus the checks the benchmark's det2rev workload makes:
load the source document, ``two_way_to_sst``, ``sst_to_reversible``,
``validate_reversible``, ``dumps_machine``, load the output, compare it
with the built machine (``==``), and run the oracle on lassos (1,2).  The
corpus is ``generate_two_way(seed, 7, 1, 2, alphabet_size=3,
density=1.0)`` for seeds 0 .. N-1 (N = 30 by default).

With ``--corpus 2w2sst``, a job is the benchmark's 2w2sst workload:
``two_way_to_sst`` and the oracle on lassos (1,2), over
``generate_two_way(seed, 22, 1, 2, alphabet_size=4, density=1.0)`` for
seeds 0 .. N-1 (N = 40 by default).  The cyclic collector is left as the
pipeline leaves it.

With ``--corpus equiv``, a job is the benchmark's equiv workload:
``two_way_to_sst``, ``dbt_to_rbt`` and ``validate_reversible``, then the
oracle on lassos (3,5) against the register machine and against the
reversible output, over ``generate_two_way(seed, 4, 1, 2, alphabet_size=2,
density=1.0)`` for seeds 0 .. N-1 (N = 30 by default).  Both oracle stages
run the source too, so the oracle's share is their sum.

With ``--corpus compose``, a job is ``compose_reachable`` over every
ordered pair of distinct ``dbt_to_rbt`` outputs of the det2rev corpus's
seeds 0, 2, 3, 4, 7 and 11 (the first N of them, N = 6 by default).  The
outputs are built before timing starts.  The counts are the reached pairs
next to their bound, the sum of ``bounds.composition_pairs``, the output
transitions, and the distinct transition objects.

``CORPORA`` holds one row per corpus: the generator's n and alphabet size,
the default seed count, the lasso bounds and the stage names in report
order.  The det2rev, 2w2sst and equiv corpora share one loop over their
sources; each adds only its timed stages, and the loop makes the same
checks and counts for all three.

Each column is a library source directory, ``--src NAME=DIR`` (default:
this checkout's ``src``).  A repeat runs one fresh process per column, in
alternating order, all with the same PYTHONHASHSEED.  The report gives
each stage's total seconds over the corpus and the process's peak resident
memory (``ru_maxrss``, in MB, corpus generation included) as median and
quartiles over the repeats, next to the counts, which must repeat
exactly: output states and transitions, (det2rev and equiv) the states of
``two_way_to_sst``'s register machine and, as ``reduced_register_states``,
of the machine ``sst_to_reversible`` builds its stages from, and (det2rev)
distinct transition objects of the built output.  For the det2rev and
equiv corpora, ``outline_states`` sums the states of
``one_way_to_reversible`` of the substitution stream that
``sst_to_reversible`` makes reversible, next to ``outline_state_bound``,
the sum of ``bounds.outline_states`` over those streams.  The reduced
machine and the stream come from an untimed rebuild of the chain's
passes; a library without ``name_registers_by_use`` (older columns) is
rebuilt without it, as its ``sst_to_reversible`` runs.  For the det2rev,
2w2sst and equiv corpora, ``oracle_steps`` sums ``RunOutcome.steps`` over
both machines of every checked lasso, next to ``oracle_step_bound``, the
sum of the run bound ``bounds.oracle_steps`` over the same runs; the
helper that times an oracle stage counts its runs, outside the timed
stage, so the counted runs are the checked ones.  For the same corpora,
``summaries`` sums the summary count of every ``two_way_to_sst`` run,
next to ``summary_bound``, the sum of the paper's single-exponential
bound ``bounds.summaries(n, k, ell)`` over the sources, and
``max_forest_edges`` is the largest forest any of them kept, next to its
bound ``max_forest_edges_bound``, ``bounds.forest_edges(n)``; both counts
come from an untimed ``two_way_to_sst(source, details=...)`` call.  Every
bound comes from this checkout's ``src/omegatrans/bounds.py``, whichever
library a column runs.  A ``--seeds`` or
``--repeats`` below 1, or a ``--src`` that is not NAME=DIR, is a usage
error (exit 2).

    python scripts/stage_times.py --seeds 30 --repeats 7 \\
        --src parent=../parent/src --src change=src --out BENCH_records.json
    python scripts/stage_times.py --corpus 2w2sst --repeats 7 \\
        --src parent=../parent/src --src change=src --out BENCH_forests.json
    python scripts/stage_times.py --corpus 2w2sst --repeats 7 \\
        --src parent=../parent/src --src change=src --out BENCH_step.json
    python scripts/stage_times.py --corpus equiv --repeats 7 \\
        --src parent=../parent/src --src change=src --out BENCH_oracle.json
    python scripts/stage_times.py --corpus compose --repeats 7 \\
        --src parent=../parent/src --src change=src --out BENCH_compose.json
    python scripts/stage_times.py --corpus det2rev --repeats 7 \\
        --src parent=../parent/src --src change=src --out BENCH_walk.json
    python scripts/stage_times.py --corpus 2w2sst --repeats 7 \\
        --src parent=../parent/src --src change=src --out BENCH_walk_2w2sst.json
    python scripts/stage_times.py --corpus det2rev --repeats 7 \\
        --src parent=../parent/src --src change=src --out BENCH_order.json
    python scripts/stage_times.py --corpus det2rev --repeats 7 \\
        --src parent=../parent/src --src change=src --out BENCH_names.json
"""

import argparse
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_bounds():
    """This checkout's ``omegatrans.bounds``, loaded by path: a column's
    library may predate the module."""
    spec = importlib.util.spec_from_file_location(
        "omegatrans_bounds", ROOT / "src" / "omegatrans" / "bounds.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bounds = _load_bounds()

# Per corpus: n and alphabet size of generate_two_way, the default seed
# count, the lassos (max prefix, max period) or None, and the timed stages in
# report order.
CORPORA = {
    "det2rev": (7, 3, 30, (1, 2), (
        "load source", "two_way_to_sst", "sst_to_reversible", "validate_reversible",
        "dumps_machine", "load output", "==", "oracle",
    )),
    "2w2sst": (22, 4, 40, (1, 2), ("two_way_to_sst", "oracle")),
    "equiv": (4, 2, 30, (3, 5), (
        "two_way_to_sst", "dbt_to_rbt", "validate_reversible",
        "oracle vs register machine", "oracle vs reversible output",
    )),
    "compose": (7, 3, 6, None, ("compose_reachable",)),
}
# det2rev seeds whose outputs the compose corpus pairs: 5 to 182 states.
COMPOSE_SEEDS = (0, 2, 3, 4, 7, 11)


def one_pass(corpus: str, seeds: int) -> dict:
    """Seconds per stage and counts of one pass over the corpus."""
    from omegatrans import sst2rev
    from omegatrans.buchi import dbt_to_rbt
    from omegatrans.compose import compose_reachable
    from omegatrans.evaluate import EvalBudget, equiv_on_lassos, eval_machine
    from omegatrans.forests import two_way_to_sst
    from omegatrans.generate import generate_two_way
    from omegatrans.io import dumps_machine, loads_machine
    from omegatrans.lasso import enumerate_lassos
    from omegatrans.machines import validate_reversible
    from omegatrans.oneway import one_way_to_reversible
    from omegatrans.sst2rev import (
        drop_dead_registers,
        merge_equal_states,
        sst_to_reversible,
        sst_to_substitution_stream,
    )

    # A library from before the renaming pass builds its stages without it.
    name_registers_by_use = getattr(sst2rev, "name_registers_by_use", lambda sst: sst)
    n, size, _, lengths, stages = CORPORA[corpus]
    picked = COMPOSE_SEEDS[:seeds] if corpus == "compose" else range(seeds)
    sources = [
        generate_two_way(seed, n, 1, 2, alphabet_size=size, density=1.0) for seed in picked
    ]
    seconds = dict.fromkeys(stages, 0.0)

    def timed(stage, build, *args):
        start = time.perf_counter()
        result = build(*args)
        seconds[stage] += time.perf_counter() - start
        return result

    if corpus == "compose":
        outputs = [dbt_to_rbt(source) for source in sources]
        counts = dict.fromkeys(
            ("reached_pairs", "product_bound", "output_transitions", "distinct_transitions"), 0
        )
        for first in outputs:
            for second in outputs:
                if first is second:
                    continue
                composed = timed("compose_reachable", compose_reachable, first, second)
                counts["reached_pairs"] += len(composed.states)
                counts["product_bound"] += bounds.composition_pairs(
                    len(first.states), len(second.states)
                )
                counts["output_transitions"] += len(composed.transitions)
                counts["distinct_transitions"] += len(
                    {id(tr) for tr in composed.transitions.values()}
                )
        return {"seconds": seconds, "counts": counts}

    # det2rev jobs load their sources, so the documents are written before
    # the pass.
    jobs = [dumps_machine(source) for source in sources] if corpus == "det2rev" else sources
    lassos = enumerate_lassos(sources[0].input_alphabet, *lengths)
    counts = dict.fromkeys(("output_states", "output_transitions"), 0)
    if corpus != "2w2sst":
        counts.update(
            register_states=0, reduced_register_states=0, outline_states=0, outline_state_bound=0
        )
    counts.update(
        dict.fromkeys(
            ("oracle_steps", "oracle_step_bound", "summaries", "summary_bound", "max_forest_edges"),
            0,
        ),
        max_forest_edges_bound=bounds.forest_edges(n),
    )
    if corpus == "det2rev":
        counts["distinct_transitions"] = 0

    def check(stage, source, machine) -> bool:
        """Time the oracle on ``source`` against ``machine``, then count the
        steps of both machines' runs and their bound ``oracle_steps`` outside
        the timed stage."""
        report = timed(stage, equiv_on_lassos, source, machine, lassos, EvalBudget())
        for run in (source, machine):
            for w in lassos:
                counts["oracle_steps"] += eval_machine(run, w, EvalBudget()).steps
                counts["oracle_step_bound"] += bounds.oracle_steps(
                    len(run.states), len(w.prefix), len(w.period)
                )
        return not (report.disagreements or report.inconclusive)

    for seed, job in enumerate(jobs):
        if corpus == "det2rev":
            source = timed("load source", loads_machine, job)
            sst = timed("two_way_to_sst", two_way_to_sst, source)
            built = timed("sst_to_reversible", sst_to_reversible, sst)
            reversible = timed("validate_reversible", validate_reversible, built)
            text = timed("dumps_machine", dumps_machine, built)
            loaded = timed("load output", loads_machine, text)
            passed = [reversible, timed("==", loaded.__eq__, built), check("oracle", source, built)]
        elif corpus == "2w2sst":
            source = job
            sst = built = timed("two_way_to_sst", two_way_to_sst, source)
            passed = [check("oracle", source, sst)]
        else:
            source = job
            sst = timed("two_way_to_sst", two_way_to_sst, source)
            built = timed("dbt_to_rbt", dbt_to_rbt, source)
            passed = [
                timed("validate_reversible", validate_reversible, built),
                check("oracle vs register machine", source, sst),
                check("oracle vs reversible output", source, built),
            ]
        if not all(passed):
            raise SystemExit(f"seed {seed}: the {corpus} output failed a check")
        # Summaries and forest edges come from an untimed conversion.
        details: dict = {}
        two_way_to_sst(source, details=details)
        counts["summaries"] += details["summary_count"]
        counts["summary_bound"] += bounds.summaries(len(source.states), source.k, source.ell)
        counts["max_forest_edges"] = max(counts["max_forest_edges"], details["max_forest_edges"])
        if "register_states" in counts:
            counts["register_states"] += len(sst.states)
            # The reduced machine and the outline sst_to_reversible builds,
            # from an untimed rebuild.
            reduced = merge_equal_states(name_registers_by_use(drop_dead_registers(sst)))
            counts["reduced_register_states"] += len(reduced.states)
            stream = sst_to_substitution_stream(reduced)
            counts["outline_states"] += len(one_way_to_reversible(stream).states)
            counts["outline_state_bound"] += bounds.outline_states(len(stream.states))
        counts["output_states"] += len(built.states)
        counts["output_transitions"] += len(built.transitions)
        if "distinct_transitions" in counts:
            counts["distinct_transitions"] += len({id(tr) for tr in built.transitions.values()})
    return {"seconds": seconds, "counts": counts}


def run_worker(src: str, corpus: str, seeds: int, hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run(
        [sys.executable, __file__, "--corpus", corpus, "--seeds", str(seeds), "--worker", src],
        env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"worker on {src} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: list) -> dict:
    """Median and quartiles (the median alone for one value)."""
    if len(values) < 2:
        return {"median": round(values[0], 4)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def column(spec: str) -> tuple[str, str]:
    name, _, src = spec.partition("=")
    if not (name and src):
        raise argparse.ArgumentTypeError(f"expected NAME=DIR, got {spec!r}")
    return name, src


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--corpus", choices=sorted(CORPORA), default="det2rev")
    parser.add_argument(
        "--seeds", type=count,
        help="corpus size (default: 30 det2rev, 40 2w2sst, 30 equiv, 6 compose)",
    )
    parser.add_argument("--repeats", type=count, default=1, help="fresh processes per column")
    parser.add_argument(
        "--src", type=column, action="append", metavar="NAME=DIR", help="a column to measure"
    )
    parser.add_argument("--out", help="write the report here instead of printing it")
    parser.add_argument("--worker", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()
    n, size, default_seeds, lengths, stages = CORPORA[args.corpus]
    seeds = default_seeds if args.seeds is None else args.seeds
    if args.corpus == "compose" and seeds > len(COMPOSE_SEEDS):
        parser.error(f"the compose corpus has {len(COMPOSE_SEEDS)} seeds")

    if args.worker:
        sys.path.insert(0, args.worker)
        import omegatrans

        found = Path(omegatrans.__file__).resolve().parent.parent
        if found != Path(args.worker).resolve():
            raise SystemExit(f"omegatrans imported from {found}, not from {args.worker}")
        measured = one_pass(args.corpus, seeds)
        # ru_maxrss is in KiB on Linux and in bytes on macOS.
        scale = 2**20 if sys.platform == "darwin" else 2**10
        measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale
        print(json.dumps(measured))
        return

    columns = dict(args.src or [("change", str(ROOT / "src"))])
    passes: dict = {name: [] for name in columns}
    for repeat in range(args.repeats):
        names = list(columns) if repeat % 2 == 0 else list(reversed(columns))
        for name in names:
            passes[name].append(run_worker(columns[name], args.corpus, seeds, repeat))
    machine = f"generate_two_way(seed, {n}, 1, 2, alphabet_size={size}, density=1.0)"
    report = {
        "corpus": f"ordered pairs of distinct dbt_to_rbt({machine}), seeds {COMPOSE_SEEDS[:seeds]}"
        if args.corpus == "compose"
        else f"{machine}, seeds 0-{seeds - 1}",
        "lassos": lengths and f"enumerate_lassos(alphabet, {lengths[0]}, {lengths[1]})",
        "repeats": args.repeats,
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "columns": {},
    }
    if lengths is None:
        del report["lassos"]
    for name, runs in passes.items():
        counts = runs[0]["counts"]
        if any(run["counts"] != counts for run in runs):
            raise SystemExit(f"{name}: counts differ between repeats")
        seconds = {stage: spread([run["seconds"][stage] for run in runs]) for stage in stages}
        seconds["total"] = spread([sum(run["seconds"].values()) for run in runs])
        report["columns"][name] = {
            "seconds": seconds,
            "peak_rss_mb": spread([run["peak_rss_mb"] for run in runs]),
            "counts": counts,
        }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")


if __name__ == "__main__":
    main()
