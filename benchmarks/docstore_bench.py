"""Docstore benchmark: planned reads vs forced full scans.

Builds a synthetic cluster store, creates the indexes the generator would
create, then runs four read workloads two ways:

* ``planned``   — through :class:`repro.docstore.Collection`, whose reads
  go through the query planner (:mod:`repro.docstore.planner`);
* ``full_scan`` — through the naive oracles in
  :mod:`repro.docstore._reference`, which ignore every index and deep-copy
  every match.

Workloads: indexed point ``find`` (hash lookup), indexed range ``find``
(sorted-index range), sorted window ``find`` (index-ordered streaming with
a lazily-copied window) and a pushdown ``aggregate`` (leading
``$match``/``$sort``/``$limit`` absorbed into the planner).

Every workload's planned results must be bit-identical to the full-scan
results — the benchmark aborts otherwise.  Results are written as
machine-readable JSON (timings in seconds, speedups vs full scan,
environment info) for CI artifact upload and regression tracking.

Usage::

    PYTHONPATH=src python benchmarks/docstore_bench.py --quick --out BENCH_docstore.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.docstore import Collection
from repro.docstore._reference import aggregate_full_scan, find_full_scan

from bench_utils import timed

CITIES = ["asheville", "boone", "cary", "durham", "elkin", "fuquay", "garner"]


def build_collection(documents: int, seed: int = 20210323) -> Collection:
    """A clusters-like collection with the generator's index layout."""
    rng = random.Random(seed)
    collection = Collection("clusters")
    collection.create_index("ncid", "hash")
    collection.create_index("meta.first_version", "sorted")
    collection.create_index("meta.size", "sorted")
    collection.insert_many(
        {
            "ncid": f"NC{n:07d}",
            "city": rng.choice(CITIES),
            "meta": {
                "first_version": rng.randint(1, 40),
                "size": rng.randint(1, 12),
            },
        }
        for n in range(documents)
    )
    return collection


def run_benchmark(documents: int, queries: int, repeats: int) -> Dict:
    collection = build_collection(documents)
    rng = random.Random(97)
    point_ids = [f"NC{rng.randrange(documents):07d}" for _ in range(queries)]
    range_bounds = [
        (low, low + 1) for low in (rng.randint(1, 38) for _ in range(queries))
    ]
    pipeline = [
        {"$match": {"meta.first_version": {"$lte": 3}}},
        {"$sort": {"meta.size": -1}},
        {"$limit": 25},
        {"$group": {"_id": "$city", "n": {"$sum": 1}}},
    ]

    workloads: Dict[str, Tuple[Callable[[], object], Callable[[], object]]] = {
        "point_find": (
            lambda: [collection.find({"ncid": ncid}) for ncid in point_ids],
            lambda: [find_full_scan(collection, {"ncid": ncid}) for ncid in point_ids],
        ),
        "range_find": (
            lambda: [
                collection.find({"meta.first_version": {"$gte": lo, "$lte": hi}})
                for lo, hi in range_bounds
            ],
            lambda: [
                find_full_scan(
                    collection, {"meta.first_version": {"$gte": lo, "$lte": hi}}
                )
                for lo, hi in range_bounds
            ],
        ),
        "sorted_window": (
            lambda: [
                collection.find(sort=[("meta.size", 1)], skip=lo * 10, limit=20)
                for lo, _ in range_bounds
            ],
            lambda: [
                find_full_scan(
                    collection, sort=[("meta.size", 1)], skip=lo * 10, limit=20
                )
                for lo, _ in range_bounds
            ],
        ),
        "pushdown_aggregate": (
            lambda: [collection.aggregate(pipeline) for _ in range(queries)],
            lambda: [aggregate_full_scan(collection, pipeline) for _ in range(queries)],
        ),
    }

    timings: Dict[str, Dict] = {}
    for name, (planned_fn, naive_fn) in workloads.items():
        planned_seconds, planned_result = timed(planned_fn, repeats)
        naive_seconds, naive_result = timed(naive_fn, repeats)
        if planned_result != naive_result:
            raise SystemExit(f"FATAL: {name} planned results differ from full scan")
        timings[name] = {
            "planned_seconds": planned_seconds,
            "full_scan_seconds": naive_seconds,
            "speedup": naive_seconds / planned_seconds if planned_seconds else None,
            "plan": collection.explain(
                pipeline=pipeline
            )["plan"]
            if name == "pushdown_aggregate"
            else None,
        }

    timings["point_find"]["plan"] = collection.explain({"ncid": "NC0000000"})["plan"]
    timings["range_find"]["plan"] = collection.explain(
        {"meta.first_version": {"$gte": 1, "$lte": 3}}
    )["plan"]
    timings["sorted_window"]["plan"] = collection.explain(
        sort=[("meta.size", 1)]
    )["plan"]

    return {
        "benchmark": "docstore_planner",
        "verified_bit_identical": True,
        "workload": {
            "documents": documents,
            "queries_per_workload": queries,
            "indexes": collection.index_specs(),
        },
        "environment": {
            "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(),
        },
        "timings": timings,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small workload (CI smoke test)"
    )
    parser.add_argument(
        "--out", type=str, default="BENCH_docstore.json", help="output JSON path"
    )
    parser.add_argument(
        "--repeats", type=int, default=2, help="best-of-N timing repeats"
    )
    args = parser.parse_args(argv)

    documents = 2000 if args.quick else 10000
    queries = 25 if args.quick else 50
    report = run_benchmark(documents, queries, args.repeats)

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(
        f"workload: {report['workload']['documents']} documents, "
        f"{report['workload']['queries_per_workload']} queries per workload"
    )
    for name, row in report["timings"].items():
        print(
            f"{name:>20}: planned {row['planned_seconds']:.3f}s vs "
            f"full scan {row['full_scan_seconds']:.3f}s  "
            f"({row['speedup']:.1f}x, plan={row['plan']})"
        )
    print(f"wrote {args.out}")

    failed = False
    for gated in ("range_find", "pushdown_aggregate"):
        speedup = report["timings"][gated]["speedup"]
        if speedup is not None and speedup < 5.0:
            print(f"WARNING: {gated} speedup {speedup:.2f}x is below 5x")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
