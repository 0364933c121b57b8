"""Hot-path benchmark: plan cache, lazy materialization, batched commits.

Measures the three layers of the docstore's hot-path engine (see
``docs/performance.md``, "Layer 6") against their own escape hatches, so
every speedup is an apples-to-apples comparison on identical data:

* ``plan_cache``      — repeated ``ncid`` point ``find``\\ s with the
  per-collection plan cache on (warm: bound-plan replay) vs off (cold:
  compile + price every query).  Gate: warm ≥3x cold.
* ``materialization`` — a scan-heavy range ``find`` under the default
  ``copy_mode="lazy"`` (copy-on-read ``DocumentView`` results) vs
  ``copy_mode="eager"`` (a full deep copy per returned document).
  Gate: lazy ≥2x eager.
* ``batched_commit``  — loading a :class:`repro.docstore.DurableDatabase`
  under ``fsync_batch=1`` (the strictest durability setting) via bulk
  ``insert_many`` (one group-commit WAL append + fsync per batch) vs one
  ``insert_one`` per document (one append + fsync per op).
  Gate: batched ≥5x per-op.

Every read workload is verified bit-identical against the
``docstore/_reference.py`` full-scan oracles and across its own two
configurations — the benchmark aborts on any mismatch.  The durable
stores are re-opened (WAL replay) and compared document-for-document.
Per-query p50/p95 latencies accompany each timing.

Usage::

    PYTHONPATH=src python benchmarks/hotpath_bench.py --quick --out BENCH_hotpath.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.docstore import Collection, DurableDatabase
from repro.docstore._reference import find_full_scan

CITIES = ["asheville", "boone", "cary", "durham", "elkin", "fuquay", "garner"]


def make_documents(count: int, seed: int = 20210323) -> List[dict]:
    """Deterministic clusters-like documents (nested metadata included)."""
    rng = random.Random(seed)
    return [
        {
            "ncid": f"NC{n:07d}",
            "city": rng.choice(CITIES),
            "meta": {
                "first_version": rng.randint(1, 40),
                "size": rng.randint(1, 12),
                "sources": [rng.randint(1, 9) for _ in range(3)],
            },
        }
        for n in range(count)
    ]


def build_collection(documents: List[dict]) -> Collection:
    collection = Collection("clusters")
    collection.create_index("ncid", "hash")
    collection.create_index("meta.first_version", "sorted")
    collection.insert_many(dict(document) for document in documents)
    return collection


def _percentiles(samples: List[float]) -> Dict[str, float]:
    """p50/p95 of per-query latencies (nearest-rank, seconds)."""
    ordered = sorted(samples)
    rank = lambda q: ordered[min(len(ordered) - 1, int(q * len(ordered)))]
    return {"p50_seconds": rank(0.50), "p95_seconds": rank(0.95)}


def _timed_best(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall time with the cyclic GC parked."""
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
    return best


def _latencies(queries: List[Callable[[], object]]) -> List[float]:
    """One wall-time sample per query (for percentiles, not for gates)."""
    samples = []
    for query in queries:
        start = time.perf_counter()
        query()
        samples.append(time.perf_counter() - start)
    return samples


# ------------------------------------------------------------- plan cache


def bench_plan_cache(
    documents: List[dict], hot_keys: int, passes: int, repeats: int
) -> Dict:
    """Cold vs warm planning on a repeated hot-key point-read working set."""
    collection = build_collection(documents)
    rng = random.Random(97)
    keys = [f"NC{rng.randrange(len(documents)):07d}" for _ in range(hot_keys)]
    filters = [{"ncid": key} for key in keys]

    def run() -> List[List[dict]]:
        return [collection.find(f) for _ in range(passes) for f in filters]

    # Oracle check once per hot key, against the planned read.
    for filter_doc in filters:
        if collection.find(filter_doc) != find_full_scan(collection, filter_doc):
            raise SystemExit(f"FATAL: plan_cache results diverge for {filter_doc}")

    collection.plan_cache_enabled = False
    cold_result = run()
    cold_seconds = _timed_best(run, repeats)
    cold_latency = _latencies([lambda f=f: collection.find(f) for f in filters])

    collection.plan_cache_enabled = True
    warm_result = run()  # priming pass fills the template/plan memos
    if warm_result != cold_result:
        raise SystemExit("FATAL: warm plan-cache results diverge from cold")
    warm_seconds = _timed_best(run, repeats)
    warm_latency = _latencies([lambda f=f: collection.find(f) for f in filters])

    stats = collection.explain(filters[0])["plan_cache"]
    return {
        "queries_per_run": len(filters) * passes,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds if warm_seconds else None,
        "cold_latency": _percentiles(cold_latency),
        "warm_latency": _percentiles(warm_latency),
        "plan_cache": stats,
    }


# -------------------------------------------------------- materialization


def bench_materialization(documents: List[dict], passes: int, repeats: int) -> Dict:
    """Eager deep copies vs lazy views on a scan-heavy range read."""
    collection = build_collection(documents)
    filter_doc = {"meta.first_version": {"$lte": 20}}

    def run() -> List[List[dict]]:
        return [collection.find(filter_doc) for _ in range(passes)]

    oracle = find_full_scan(collection, filter_doc)
    collection.copy_mode = "eager"
    if collection.find(filter_doc) != oracle:
        raise SystemExit("FATAL: eager materialization diverges from oracle")
    eager_seconds = _timed_best(run, repeats)
    eager_latency = _latencies([lambda: collection.find(filter_doc)] * passes)

    collection.copy_mode = "lazy"
    if collection.find(filter_doc) != oracle:
        raise SystemExit("FATAL: lazy materialization diverges from oracle")
    lazy_seconds = _timed_best(run, repeats)
    lazy_latency = _latencies([lambda: collection.find(filter_doc)] * passes)

    return {
        "documents_matched": len(oracle),
        "scans_per_run": passes,
        "eager_seconds": eager_seconds,
        "lazy_seconds": lazy_seconds,
        "speedup": eager_seconds / lazy_seconds if lazy_seconds else None,
        "eager_latency": _percentiles(eager_latency),
        "lazy_latency": _percentiles(lazy_latency),
    }


# -------------------------------------------------------- batched commit


def bench_batched_commit(documents: List[dict], directory: Path) -> Dict:
    """Per-op inserts vs one bulk ``insert_many`` under fsync-every-record."""

    def load(target: Path, batched: bool) -> Tuple[float, List[float]]:
        database = DurableDatabase(target, fsync_batch=1)
        collection = database.create_collection("clusters")
        latencies: List[float] = []
        start = time.perf_counter()
        if batched:
            collection.insert_many(dict(document) for document in documents)
        else:
            for document in documents:
                op_start = time.perf_counter()
                collection.insert_one(dict(document))
                latencies.append(time.perf_counter() - op_start)
        database.commit()
        elapsed = time.perf_counter() - start
        database.close()
        return elapsed, latencies

    perop_seconds, perop_latencies = load(directory / "per-op", batched=False)
    batched_seconds, _ = load(directory / "batched", batched=True)

    # Crash-recovery equivalence: replaying either WAL must rebuild the
    # same documents, and both loads must agree with each other.
    contents = {}
    for mode in ("per-op", "batched"):
        replayed = DurableDatabase(directory / mode)
        contents[mode] = sorted(
            replayed.get_collection("clusters").all(), key=lambda d: d["ncid"]
        )
        replayed.close()
    if contents["per-op"] != contents["batched"]:
        raise SystemExit("FATAL: batched WAL replay diverges from per-op replay")
    if len(contents["batched"]) != len(documents):
        raise SystemExit("FATAL: WAL replay lost documents")

    return {
        "documents": len(documents),
        "fsync_batch": 1,
        "per_op_seconds": perop_seconds,
        "batched_seconds": batched_seconds,
        "speedup": perop_seconds / batched_seconds if batched_seconds else None,
        "per_op_latency": _percentiles(perop_latencies),
        "replay_verified": True,
    }


# ------------------------------------------------------------------ main


def run_benchmark(documents_count: int, passes: int, repeats: int) -> Dict:
    documents = make_documents(documents_count)
    directory = Path(tempfile.mkdtemp(prefix="hotpath-bench-"))
    try:
        plan_cache = bench_plan_cache(
            documents, hot_keys=50, passes=passes, repeats=repeats
        )
        materialization = bench_materialization(
            documents, passes=max(passes // 4, 3), repeats=repeats
        )
        batched = bench_batched_commit(
            documents[: min(len(documents), 2000)], directory
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    return {
        "benchmark": "docstore_hotpath",
        "verified_bit_identical": True,
        "workload": {
            "documents": documents_count,
            "indexes": [["ncid", "hash"], ["meta.first_version", "sorted"]],
        },
        "environment": {
            "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(),
        },
        "timings": {
            "plan_cache": plan_cache,
            "materialization": materialization,
            "batched_commit": batched,
        },
    }


GATES = {"plan_cache": 3.0, "materialization": 2.0, "batched_commit": 5.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller workload")
    parser.add_argument("--documents", type=int, default=None)
    parser.add_argument(
        "--repeats", type=int, default=5, help="best-of-N timing rounds"
    )
    parser.add_argument("--out", default="BENCH_hotpath.json")
    args = parser.parse_args(argv)

    documents = args.documents or (5000 if args.quick else 20000)
    passes = 8 if args.quick else 12
    report = run_benchmark(documents, passes=passes, repeats=args.repeats)

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    for name, row in report["timings"].items():
        print(f"{name:>16}: {row['speedup']:.2f}x (gate ≥{GATES[name]:.0f}x)")
    print(f"wrote {args.out}")

    failed = False
    for name, floor in GATES.items():
        speedup = report["timings"][name]["speedup"]
        if speedup is None or speedup < floor:
            print(f"WARNING: {name} speedup {speedup:.2f}x below the {floor:.0f}x gate")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
