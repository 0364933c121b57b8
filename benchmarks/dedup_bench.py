"""Duplicate-detection benchmark: naive oracle vs streaming vs parallel.

Simulates a register, imports it, flattens a labeled dataset, then runs
the paper's Section 6.5 detection three ways:

* ``naive``     — the historical path preserved in
  :mod:`repro.dedup._reference`: eager tuple-set candidate union, the
  per-pair record matcher re-deriving everything per call, and the
  uncached naive Monge-Elkan kernel;
* ``streaming`` — :mod:`repro.dedup.pipeline` in one process: packed
  64-bit candidate keys, value-id columns, and one scoring batch that
  sends each distinct value pair through the bit-parallel lane kernels
  once;
* ``parallel``  — the same pipeline with pair scoring sharded over a
  process pool, at each requested worker count.

The distinct-pair scores live for one scoring call and the kernel caches
are cleared before every repetition, so each timed repetition starts
cold, in-process and parallel alike.

All paths must produce bit-identical similarity maps, threshold sweeps
and best-F1 thresholds — the benchmark aborts otherwise.  Besides wall
times it reports candidate-generation and scoring throughput and the
peak candidate-set memory (eager tuple set vs packed int set).  Results
are written as machine-readable JSON for CI artifact upload.

Usage::

    PYTHONPATH=src python benchmarks/dedup_bench.py --quick --out BENCH_dedup.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Optional, Sequence, Set, Tuple

from repro.core import RemovalLevel, TestDataGenerator, customize
from repro.core.parallel import effective_worker_count
from repro.dedup import (
    DetectionPipeline,
    RecordMatcher,
    best_f1,
    evaluate_thresholds,
    pack_pairs,
    pick_blocking_keys,
)
from repro.dedup import _reference as dedupref
from repro.textsim import MongeElkan, fast
from repro.textsim import _reference as textref
from repro.votersim import SimulationConfig, VoterRegisterSimulator
from repro.votersim.schema import PERSON_ATTRIBUTES

from bench_utils import timed

QUICK_CONFIG = SimulationConfig(
    initial_voters=220,
    years=5,
    snapshots_per_year=2,
    seed=20210323,
    ncid_reuse_rate=0.02,
    removal_rate=0.03,
)

FULL_CONFIG = SimulationConfig(
    initial_voters=700,
    years=8,
    snapshots_per_year=2,
    seed=20210323,
    ncid_reuse_rate=0.02,
    removal_rate=0.03,
)

THRESHOLDS = tuple(t / 20 for t in range(4, 20))
NAME_ATTRIBUTES = ("first_name", "midl_name", "last_name")


def _build_dataset(config: SimulationConfig, target_clusters: int):
    simulator = VoterRegisterSimulator(config)
    generator = TestDataGenerator(removal=RemovalLevel.TRIMMED)
    generator.import_snapshots(list(simulator.run()))
    return customize(
        generator, 0.0, 1.0, target_clusters=target_clusters, name="bench"
    )


def _tuple_set_bytes(pairs: Set[Tuple[int, int]]) -> int:
    """Deep size of the eager candidate set: set + tuples + their ints."""
    total = sys.getsizeof(pairs)
    for pair in pairs:
        total += sys.getsizeof(pair)
        total += sys.getsizeof(pair[0]) + sys.getsizeof(pair[1])
    return total


def _packed_set_bytes(keys: Set[int]) -> int:
    """Deep size of the packed candidate set: set + its ints."""
    return sys.getsizeof(keys) + sum(sys.getsizeof(key) for key in keys)


def run_benchmark(
    config: SimulationConfig,
    target_clusters: int,
    worker_counts: Sequence[int],
    repeats: int,
) -> Dict:
    dataset = _build_dataset(config, target_clusters)
    records, gold = dataset.records, dataset.gold_pairs
    attributes = [a for a in PERSON_ATTRIBUTES if a != "ncid"]
    keys = pick_blocking_keys(records, attributes, 5)
    window = 20
    matcher = RecordMatcher.from_records(
        records, attributes, MongeElkan(), NAME_ATTRIBUTES
    )

    # -- naive: eager tuple sets + per-pair historical matcher -------------
    def naive():
        pairs = dedupref.multipass_pairs_reference(records, keys, window)
        scores = dedupref.score_candidates_reference(
            records,
            pairs,
            textref.symmetric_monge_elkan,
            matcher.weights,
            NAME_ATTRIBUTES,
        )
        points = evaluate_thresholds(scores, gold, THRESHOLDS)
        return pairs, scores, points

    naive_candidates_seconds, naive_pairs = timed(
        lambda: dedupref.multipass_pairs_reference(records, keys, window),
        repeats,
    )
    naive_seconds, (naive_pairs, naive_scores, naive_points) = timed(
        naive, repeats
    )

    # -- streaming: packed keys + value-id columns, one process ------------
    def streaming(workers: int = 0):
        def run():
            fast.clear_caches()
            pipeline = DetectionPipeline(
                window=window,
                key_attributes=keys,
                thresholds=THRESHOLDS,
                workers=workers,
                shards=max(workers, 1),
            )
            return pipeline.detect(records, attributes, matcher, gold)

        return run

    pipeline_candidates = DetectionPipeline(window=window, key_attributes=keys)
    streaming_candidates_seconds, (packed, _stats) = timed(
        lambda: pipeline_candidates.candidates(records, attributes), repeats
    )
    streaming_seconds, streaming_result = timed(streaming(0), repeats)

    def check(label: str, result) -> None:
        if result.candidate_keys != pack_pairs(naive_pairs, len(records)):
            raise SystemExit(f"FATAL: {label} candidate set differs from naive")
        if result.similarities != naive_scores:
            raise SystemExit(f"FATAL: {label} similarities differ from naive")
        if result.points != naive_points:
            raise SystemExit(f"FATAL: {label} threshold sweep differs from naive")
        if result.best != best_f1(naive_points):
            raise SystemExit(f"FATAL: {label} best-F1 point differs from naive")

    check("streaming", streaming_result)

    pair_count = len(naive_pairs)
    timings: Dict[str, Dict] = {
        "naive": {
            "seconds": naive_seconds,
            "speedup": 1.0,
            "candidate_seconds": naive_candidates_seconds,
            "candidate_pairs_per_second": (
                pair_count / naive_candidates_seconds
                if naive_candidates_seconds
                else None
            ),
            "scoring_pairs_per_second": (
                pair_count / (naive_seconds - naive_candidates_seconds)
                if naive_seconds > naive_candidates_seconds
                else None
            ),
        },
        "streaming": {
            "seconds": streaming_seconds,
            "speedup": naive_seconds / streaming_seconds
            if streaming_seconds
            else None,
            "candidate_seconds": streaming_candidates_seconds,
            "candidate_pairs_per_second": (
                pair_count / streaming_candidates_seconds
                if streaming_candidates_seconds
                else None
            ),
            "scoring_pairs_per_second": (
                pair_count / (streaming_seconds - streaming_candidates_seconds)
                if streaming_seconds > streaming_candidates_seconds
                else None
            ),
        },
    }

    for workers in worker_counts:
        label = f"parallel_workers_{workers}"
        seconds, result = timed(streaming(workers), repeats)
        check(label, result)
        timings[label] = {
            "seconds": seconds,
            "speedup": naive_seconds / seconds if seconds else None,
            "scoring_pairs_per_second": (
                pair_count / (seconds - streaming_candidates_seconds)
                if seconds > streaming_candidates_seconds
                else None
            ),
        }

    best = best_f1(naive_points)
    return {
        "benchmark": "duplicate_detection",
        "verified_bit_identical": True,
        "workload": {
            "initial_voters": config.initial_voters,
            "years": config.years,
            "snapshots_per_year": config.snapshots_per_year,
            "records": len(records),
            "gold_pairs": len(gold),
            "candidate_pairs": pair_count,
            "window": window,
            "passes": len(keys),
            "best_f1": best.f1,
            "best_threshold": best.threshold,
        },
        "memory": {
            "tuple_set_bytes": _tuple_set_bytes(naive_pairs),
            "packed_set_bytes": _packed_set_bytes(packed),
        },
        "environment": {
            "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(),
            # Requested worker counts clamp to the CPU budget; the clamped
            # values are what the parallel runs actually used.
            "effective_workers": {
                str(workers): effective_worker_count(workers, warn=False)
                for workers in worker_counts
            },
        },
        "timings": timings,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small workload (CI smoke test)"
    )
    parser.add_argument(
        "--out", type=str, default="BENCH_dedup.json", help="output JSON path"
    )
    parser.add_argument(
        "--workers",
        type=int,
        nargs="*",
        default=[2, 4],
        help="process-pool worker counts to benchmark",
    )
    parser.add_argument(
        "--clusters", type=int, default=None, help="target cluster count"
    )
    parser.add_argument(
        "--repeats", type=int, default=1, help="best-of-N timing repeats"
    )
    args = parser.parse_args(argv)

    config = QUICK_CONFIG if args.quick else FULL_CONFIG
    clusters = args.clusters or (90 if args.quick else 260)
    report = run_benchmark(config, clusters, args.workers, args.repeats)

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    workload = report["workload"]
    print(
        f"workload: {workload['records']} records, "
        f"{workload['candidate_pairs']} candidate pairs, "
        f"{workload['gold_pairs']} gold pairs"
    )
    memory = report["memory"]
    print(
        f"candidate-set memory: tuple set {memory['tuple_set_bytes']} B, "
        f"packed set {memory['packed_set_bytes']} B "
        f"({memory['tuple_set_bytes'] / memory['packed_set_bytes']:.1f}x smaller)"
    )
    for name, row in report["timings"].items():
        print(f"{name:>22}: {row['seconds']:.3f}s  ({row['speedup']:.2f}x)")
    print(f"wrote {args.out}")

    best_parallel = max(
        row["speedup"]
        for name, row in report["timings"].items()
        if name.startswith("parallel_") and row["speedup"] is not None
    )
    if best_parallel < 5.0:
        print(f"WARNING: best parallel speedup {best_parallel:.2f}x is below 5x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
