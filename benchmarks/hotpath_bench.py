"""Hot-path benchmark: lazy materialization and batched commits.

Measures two layers of the docstore's hot-path engine (see
``docs/performance.md``, "Layer 6") against their naive baselines, on
identical data:

* ``materialization`` — a scan-heavy range ``find`` (planned through the
  sorted index, copy-on-read ``DocumentView`` results) vs the
  ``docstore/_reference.py`` full-scan oracle (every document matched,
  a full deep copy per returned document).  Gate: lazy ≥2x the oracle.
* ``batched_commit``  — loading a :class:`repro.docstore.DurableDatabase`
  under ``fsync_batch=1`` (the strictest durability setting) via bulk
  ``insert_many`` (one group-commit WAL append + fsync per batch) vs one
  ``insert_one`` per document (one append + fsync per op).
  Gate: batched ≥5x per-op.

The read is verified bit-identical against the full-scan oracle — the
benchmark aborts on any mismatch.  The durable stores are re-opened (WAL
replay) and compared document-for-document.  Per-query p50/p95 latencies
accompany each timing.

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


# -------------------------------------------------------- materialization


def bench_materialization(documents: List[dict], passes: int, repeats: int) -> Dict:
    """Full-scan deep copies vs planned lazy views on a scan-heavy range read."""
    collection = build_collection(documents)
    filter_doc = {"meta.first_version": {"$lte": 20}}

    def full_scan() -> List[dict]:
        return find_full_scan(collection, filter_doc)

    def planned() -> List[dict]:
        return collection.find(filter_doc)

    oracle = full_scan()
    if planned() != oracle:
        raise SystemExit("FATAL: lazy materialization diverges from oracle")
    oracle_seconds = _timed_best(lambda: [full_scan() for _ in range(passes)], repeats)
    oracle_latency = _latencies([full_scan] * passes)
    lazy_seconds = _timed_best(lambda: [planned() for _ in range(passes)], repeats)
    lazy_latency = _latencies([planned] * passes)

    return {
        "documents_matched": len(oracle),
        "scans_per_run": passes,
        "oracle_seconds": oracle_seconds,
        "lazy_seconds": lazy_seconds,
        "speedup": oracle_seconds / lazy_seconds if lazy_seconds else None,
        "oracle_latency": _percentiles(oracle_latency),
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


def run_benchmark(documents_count: int, repeats: int) -> Dict:
    documents = make_documents(documents_count)
    directory = Path(tempfile.mkdtemp(prefix="hotpath-bench-"))
    try:
        materialization = bench_materialization(
            documents, passes=3, repeats=repeats
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
            "materialization": materialization,
            "batched_commit": batched,
        },
    }


GATES = {"materialization": 2.0, "batched_commit": 5.0}


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
    report = run_benchmark(documents, repeats=args.repeats)

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
