#!/usr/bin/env python3
"""Observed size statistics for the constructions over a seeded corpus.

Reports, per machine size, the largest reachable summary counts and forest
sizes of the two-way-to-register-machine conversion, and the state counts
along the full deterministic-to-reversible pipeline, next to their proven
bounds from ``omegatrans.bounds``.  The asymptotic formulas are not
reproducible as equalities at desk scale; this script logs the observed
maxima instead, for machine sizes n = 2 .. --max-n, and exits 1 naming the
first maximum over its bound.  A ``--seeds`` below 1, a ``--max-n`` below
2, a ``--k`` below 0 or an ``--ell`` below 1 is a usage error (exit 2).
"""

import argparse
from collections import defaultdict

from omegatrans.bounds import forest_edges, outline_states, summaries
from omegatrans.buchi import dbt_to_rbt
from omegatrans.forests import two_way_to_sst
from omegatrans.generate import generate_one_way, generate_two_way
from omegatrans.oneway import one_way_to_reversible


def within(count: int, bound: int, what: str) -> None:
    if count > bound:
        raise SystemExit(f"{what} {count} is over its bound {bound}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--max-n", type=int, default=3)
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--ell", type=int, default=2)
    args = parser.parse_args()
    for flag, value, low in (
        ("--seeds", args.seeds, 1), ("--max-n", args.max_n, 2), ("--k", args.k, 0),
        ("--ell", args.ell, 1),
    ):
        if value < low:
            parser.error(f"argument {flag}: must be at least {low}, got {value}")

    print("== one-way to reversible ==")
    by_n = defaultdict(int)
    for seed in range(args.seeds):
        n = 2 + seed % (args.max_n - 1)
        machine = generate_one_way(seed, n=n, k=args.k, ell=args.ell)
        rev = one_way_to_reversible(machine)
        by_n[n] = max(by_n[n], len(rev.states))
    for n in sorted(by_n):
        print(f"  n={n}: max reachable states {by_n[n]}  (bound 4n^2 = {outline_states(n)})")
        within(by_n[n], outline_states(n), f"n={n}: max reachable states")

    print("== two-way to register machine ==")
    stats = defaultdict(lambda: [0, 0, 0])
    for seed in range(args.seeds):
        n = 2 + seed % (args.max_n - 1)
        machine = generate_two_way(seed, n=n, k=args.k, ell=args.ell)
        details = {}
        two_way_to_sst(machine, details=details)
        entry = stats[n]
        entry[0] = max(entry[0], details["summary_count"])
        entry[1] = max(entry[1], details["max_forest_nodes"])
        entry[2] = max(entry[2], details["max_forest_edges"])
    for n in sorted(stats):
        count, nodes, edges = stats[n]
        bound = summaries(n, args.k, args.ell)
        print(
            f"  n={n}: max summaries {count} (bound {bound}), "
            f"max forest nodes {nodes}, edges {edges} (bound {forest_edges(n)})"
        )
        within(count, bound, f"n={n}: max summaries")
        within(nodes, forest_edges(n), f"n={n}: max forest nodes")
        within(edges, forest_edges(n), f"n={n}: max forest edges")

    print("== full pipeline ==")
    by_n = defaultdict(int)
    for seed in range(args.seeds):
        n = 2 + seed % (args.max_n - 1)
        machine = generate_two_way(seed, n=n, k=args.k, ell=args.ell)
        rev = dbt_to_rbt(machine)
        by_n[n] = max(by_n[n], len(rev.states))
    for n in sorted(by_n):
        print(f"  n={n}: max reversible states {by_n[n]}")


if __name__ == "__main__":
    main()
