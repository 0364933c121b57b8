"""Sharded docstore benchmark: routing, scatter-gather, concurrent readers.

Builds the same clusters-like store twice — unsharded and hash-partitioned
on ``ncid`` — and measures the three properties the partitioned layout is
for:

* ``point_routing``     — shard-key point ``find``: the planner routes to a
  single partition and (warm) replays a cached bound plan, so the cost
  must reach parity with the unsharded indexed lookup (gate: ≥1.0x minus
  a small timer-noise allowance — the two warm paths execute the same
  instructions, so any real regression shows up as a clear gap);
* ``scatter_gather``    — non-shard-key range ``find`` and a partial-group
  ``aggregate`` scan every partition on the calling thread and k-way
  merge.  With 2+ effective CPUs the gate asks for >1.5x over the
  unsharded scan; with one CPU the gate is *parity* (within
  ``--parity-tolerance`` of unsharded) and the report records
  ``single_cpu_parity: true``.  The 1.5x gate assumed a parallel
  speedup that single-threaded pure-Python scans do not give, so both
  reads miss it on multi-CPU hosts (see ``docs/performance.md``,
  Layer 5);
* ``concurrent_readers`` — 1/2/4 snapshot readers against a committing
  writer: copy-on-write epochs mean readers never block and never observe
  a torn commit (every read sees a whole batch with one version stamp).

Every measured read is verified bit-identical against the unsharded
baseline — the benchmark aborts otherwise.  Results are written as
machine-readable JSON for CI artifact upload and regression tracking.

Usage::

    PYTHONPATH=src python benchmarks/shards_bench.py --quick --out BENCH_shards.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys
import threading
import time
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.parallel import effective_worker_count
from repro.docstore import Collection, Database

CITIES = ["asheville", "boone", "cary", "durham", "elkin", "fuquay", "garner"]

#: Routed and unsharded point reads execute the same warm instructions
#: (plan-cache hit, cached candidate ids, lazy materialization), so the
#: gate is parity; this is the wall-clock jitter allowance below 1.0x at
#: which a measured ratio stops being explainable by timer noise.
POINT_NOISE_TOLERANCE = 0.05


def build_collection(documents: int, shards: int, seed: int = 20210323) -> Collection:
    """A clusters-like collection, optionally hash-partitioned on ncid."""
    rng = random.Random(seed)
    collection = Collection("clusters", shards=shards)
    collection.create_index("ncid", "hash")
    collection.create_index("meta.first_version", "sorted")
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


def _timed_once(fn: Callable[[], object]) -> float:
    """One wall-time sample with the cyclic GC parked.

    A fresh ``gc.collect()`` plus ``gc.disable()`` keeps generation-0
    collections from landing inside one side of a paired measurement —
    at a few microseconds per query they are the dominant noise source.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
    finally:
        gc.enable()


def _timed_pair(
    sharded_fn: Callable[[], object],
    baseline_fn: Callable[[], object],
    repeats: int,
) -> Tuple[float, float, object, object]:
    """Interleaved best-of-``repeats`` wall times for both sides of a workload.

    The first (untimed) call of each side warms caches — plan cache, hash
    buckets, allocator arenas — and supplies the results for bit-identical
    verification.  Timed rounds then alternate sharded/unsharded so slow
    scheduler windows hit both sides alike, and each side's minimum is the
    reported time (the standard best-of-N noise floor).
    """
    sharded_result = sharded_fn()
    baseline_result = baseline_fn()
    sharded_best = float("inf")
    baseline_best = float("inf")
    for _ in range(repeats):
        sharded_best = min(sharded_best, _timed_once(sharded_fn))
        baseline_best = min(baseline_best, _timed_once(baseline_fn))
    return sharded_best, baseline_best, sharded_result, baseline_result


def _concurrent_readers(
    documents: int, shards: int, reader_counts: Sequence[int], batches: int
) -> Dict:
    """Snapshot-reader throughput while a writer commits batch after batch.

    Returns per-reader-count reads completed, reads that overlapped writer
    activity, and the torn-read count (must be 0: every snapshot read must
    see whole batches, all carrying one version stamp).
    """
    batch = 50
    results: Dict[str, Dict] = {}
    for readers in reader_counts:
        database = Database("db", shards=shards)
        collection = database.create_collection("clusters")
        for i in range(documents):
            collection.insert_one(
                {"_id": i, "ncid": f"NC{i:07d}", "v": 0}
            )
        database.commit()

        stop = threading.Event()
        writer_active = threading.Event()
        counts = [0] * readers
        overlapped = [0] * readers
        torn: list = []

        def read_loop(slot: int) -> None:
            while not stop.is_set():
                snap = collection.snapshot()
                docs = list(snap.all())
                extra = len(docs) - documents
                versions = {doc["v"] for doc in docs}
                if extra % batch or len(versions) != 1:
                    torn.append((len(docs), sorted(versions)[:3]))
                    return
                counts[slot] += 1
                if writer_active.is_set():
                    overlapped[slot] += 1

        threads = [
            threading.Thread(target=read_loop, args=(slot,))
            for slot in range(readers)
        ]
        for thread in threads:
            thread.start()
        start = time.perf_counter()
        writer_active.set()
        for version in range(1, batches + 1):
            base = documents + (version - 1) * batch
            for i in range(batch):
                collection.insert_one(
                    {"_id": base + i, "ncid": f"XX{base + i:07d}", "v": version}
                )
            collection.update_many({}, {"$set": {"v": version}})
            database.commit()
        writer_active.clear()
        writer_seconds = time.perf_counter() - start
        stop.set()
        for thread in threads:
            thread.join()

        if torn:
            raise SystemExit(
                f"FATAL: torn snapshot reads with {readers} reader(s): {torn[:3]}"
            )
        results[str(readers)] = {
            "reads_completed": sum(counts),
            "reads_during_commits": sum(overlapped),
            "writer_seconds": writer_seconds,
            "torn_reads": 0,
        }
    return results


def run_benchmark(
    documents: int, queries: int, shards: int, repeats: int, parity_tolerance: float
) -> Dict:
    unsharded = build_collection(documents, shards=1)
    sharded = build_collection(documents, shards=shards)
    effective = effective_worker_count(shards, warn=False)

    rng = random.Random(97)
    point_ids = [f"NC{rng.randrange(documents):07d}" for _ in range(queries)]
    range_bounds = [
        (low, low + 2) for low in (rng.randint(1, 36) for _ in range(queries))
    ]
    group_pipeline = [
        {"$group": {"_id": "$city", "n": {"$sum": 1}, "hi": {"$max": "$meta.size"}}}
    ]

    # Warm point reads cost single-digit microseconds, so one pass over the
    # query list is far below timer resolution; loop it until each sample is
    # a few milliseconds, and give the parity gate a deeper best-of-N floor.
    point_passes = max(1, 4000 // max(queries, 1))
    point_repeats = max(repeats, 10)

    workloads: Dict[str, Tuple[Callable[[], object], Callable[[], object]]] = {
        "point_find": (
            lambda: [
                sharded.find({"ncid": ncid})
                for _ in range(point_passes)
                for ncid in point_ids
            ],
            lambda: [
                unsharded.find({"ncid": ncid})
                for _ in range(point_passes)
                for ncid in point_ids
            ],
        ),
        "scatter_range_find": (
            lambda: [
                sharded.find({"meta.first_version": {"$gte": lo, "$lte": hi}})
                for lo, hi in range_bounds
            ],
            lambda: [
                unsharded.find({"meta.first_version": {"$gte": lo, "$lte": hi}})
                for lo, hi in range_bounds
            ],
        ),
        "partial_group_aggregate": (
            lambda: [sharded.aggregate(group_pipeline) for _ in range(queries)],
            lambda: [unsharded.aggregate(group_pipeline) for _ in range(queries)],
        ),
    }

    timings: Dict[str, Dict] = {}
    for name, (sharded_fn, baseline_fn) in workloads.items():
        rounds = point_repeats if name == "point_find" else repeats
        sharded_seconds, baseline_seconds, sharded_result, baseline_result = (
            _timed_pair(sharded_fn, baseline_fn, rounds)
        )
        if sharded_result != baseline_result:
            raise SystemExit(f"FATAL: {name} sharded results differ from unsharded")
        timings[name] = {
            "sharded_seconds": sharded_seconds,
            "unsharded_seconds": baseline_seconds,
            "speedup": baseline_seconds / sharded_seconds if sharded_seconds else None,
        }
    timings["point_find"]["passes"] = point_passes
    timings["point_find"]["repeats"] = point_repeats

    point_explained = sharded.explain({"ncid": point_ids[0]})
    timings["point_find"]["routing"] = point_explained["routing"]
    timings["point_find"]["shards_touched"] = point_explained["shards_touched"]
    scatter_explained = sharded.explain(
        {"meta.first_version": {"$gte": 1, "$lte": 3}}
    )
    timings["scatter_range_find"]["routing"] = scatter_explained["routing"]
    timings["scatter_range_find"]["shards_touched"] = scatter_explained[
        "shards_touched"
    ]

    reader_counts = (1, 2, 4)
    concurrent = _concurrent_readers(
        documents=min(documents, 500),
        shards=shards,
        reader_counts=reader_counts,
        batches=10,
    )

    single_cpu = effective < 2
    return {
        "benchmark": "docstore_shards",
        "verified_bit_identical": True,
        "single_cpu_parity": single_cpu,
        "parity_tolerance": parity_tolerance,
        "workload": {
            "documents": documents,
            "queries_per_workload": queries,
            "shards": shards,
            "shard_key": sharded.shard_key,
            "indexes": sharded.index_specs(),
        },
        "environment": {
            "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(),
            "requested_read_workers": shards,
            "effective_workers": effective,
        },
        "timings": timings,
        "concurrent_readers": concurrent,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small workload (CI smoke test)"
    )
    parser.add_argument(
        "--out", type=str, default="BENCH_shards.json", help="output JSON path"
    )
    parser.add_argument(
        "--repeats", type=int, default=2, help="best-of-N timing repeats"
    )
    parser.add_argument(
        "--shards", type=int, default=4, help="partition count for the sharded store"
    )
    parser.add_argument(
        "--parity-tolerance",
        type=float,
        default=0.5,
        help="single-CPU gate: scatter-gather may be at most this fraction "
        "slower than unsharded (0.5 = within 1.5x)",
    )
    args = parser.parse_args(argv)

    documents = 2000 if args.quick else 10000
    queries = 25 if args.quick else 50
    report = run_benchmark(
        documents, queries, args.shards, args.repeats, args.parity_tolerance
    )

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    environment = report["environment"]
    print(
        f"workload: {report['workload']['documents']} documents, "
        f"{report['workload']['shards']} shards, "
        f"effective workers {environment['effective_workers']} "
        f"(requested {environment['requested_read_workers']}, "
        f"{environment['cpu_count']} CPU(s))"
    )
    for name, row in report["timings"].items():
        extra = f", routing={row['routing']}" if "routing" in row else ""
        print(
            f"{name:>24}: sharded {row['sharded_seconds']:.3f}s vs "
            f"unsharded {row['unsharded_seconds']:.3f}s  "
            f"({row['speedup']:.2f}x{extra})"
        )
    for readers, row in report["concurrent_readers"].items():
        print(
            f"  {readers} reader(s): {row['reads_completed']} reads "
            f"({row['reads_during_commits']} during commits), "
            f"0 torn, writer {row['writer_seconds']:.3f}s"
        )
    print(f"wrote {args.out}")

    failed = False
    point = report["timings"]["point_find"]
    if point["routing"] != "single":
        print("WARNING: point find did not route to a single shard")
        failed = True
    point_floor = 1.0 - POINT_NOISE_TOLERANCE
    if point["speedup"] is not None and point["speedup"] < point_floor:
        print(
            f"WARNING: routed point find reached only {point['speedup']:.2f}x "
            f"of unsharded (gate: parity, ≥{point_floor:.2f}x after timer noise)"
        )
        failed = True
    floor = 1.5 if not report["single_cpu_parity"] else 1.0 - args.parity_tolerance
    for gated in ("scatter_range_find", "partial_group_aggregate"):
        speedup = report["timings"][gated]["speedup"]
        if speedup is not None and speedup < floor:
            print(
                f"WARNING: {gated} speedup {speedup:.2f}x is below the "
                f"{floor:.2f}x gate "
                f"({'single-CPU parity' if report['single_cpu_parity'] else '2+ CPUs'})"
            )
            failed = True
    for readers, row in report["concurrent_readers"].items():
        if row["reads_during_commits"] < 1:
            print(
                f"WARNING: {readers} reader(s) made no progress during commits"
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
