"""Scoring benchmark: naive reference vs fast sequential vs parallel.

Simulates a register, imports it, then scores every cluster three ways:

* ``naive``    — the uncached oracle in :mod:`repro.core._reference`
  (per-pair recomputation through the naive string kernels);
* ``fast``     — the batched pair-dedup paths (``score_clusters`` +
  ``HeterogeneityScorer.score_clusters``) run sequentially in-process;
* ``parallel`` — :func:`repro.core.parallel.score_clusters_parallel`
  with a process pool, at each requested worker count.

All three must produce bit-identical score maps — the benchmark aborts
otherwise.  Results are written as machine-readable JSON (timings in
seconds, speedups vs the naive reference, environment info) for CI
artifact upload and regression tracking.

Usage::

    PYTHONPATH=src python benchmarks/scoring_bench.py --quick --out BENCH_scoring.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

from repro.core import RemovalLevel, TestDataGenerator
from repro.core import _reference as coreref
from repro.core.heterogeneity import HeterogeneityScorer
from repro.core.parallel import score_clusters_parallel
from repro.core.plausibility import score_clusters
from repro.textsim import fast
from repro.votersim import SimulationConfig, VoterRegisterSimulator

from bench_utils import timed

QUICK_CONFIG = SimulationConfig(
    initial_voters=250,
    years=5,
    snapshots_per_year=2,
    seed=20210323,
    ncid_reuse_rate=0.3,
    removal_rate=0.04,
)

FULL_CONFIG = SimulationConfig(
    initial_voters=800,
    years=8,
    snapshots_per_year=2,
    seed=20210323,
    ncid_reuse_rate=0.3,
    removal_rate=0.04,
)


def _build_clusters(config: SimulationConfig) -> List[dict]:
    simulator = VoterRegisterSimulator(config)
    generator = TestDataGenerator(removal=RemovalLevel.TRIMMED)
    generator.import_snapshots(list(simulator.run()))
    return list(generator.clusters())


def run_benchmark(
    config: SimulationConfig, worker_counts: Sequence[int], repeats: int
) -> Dict:
    clusters = _build_clusters(config)
    scorer = HeterogeneityScorer.from_clusters(clusters, ("person",))
    pair_count = sum(
        len(c["records"]) * (len(c["records"]) - 1) // 2 for c in clusters
    )

    naive_seconds, naive_result = timed(
        lambda: (
            coreref.score_plausibility_reference(clusters),
            coreref.score_heterogeneity_reference(
                scorer.weights, clusters, ("person",)
            ),
        ),
        repeats,
    )

    def fast_sequential():
        fast.clear_caches()
        return (
            score_clusters(clusters),
            scorer.score_clusters(clusters, ("person",)),
        )

    fast_seconds, fast_result = timed(fast_sequential, repeats)

    if fast_result != naive_result:
        raise SystemExit("FATAL: fast batch scores differ from naive reference")

    timings: Dict[str, Dict] = {
        "naive_reference": {"seconds": naive_seconds, "speedup": 1.0},
        "fast_sequential": {
            "seconds": fast_seconds,
            "speedup": naive_seconds / fast_seconds if fast_seconds else None,
        },
    }

    for workers in worker_counts:
        label = f"parallel_workers_{workers}"
        seconds, result = timed(
            lambda workers=workers: score_clusters_parallel(
                clusters,
                heterogeneity_all=scorer,
                shards=max(workers, 1),
                max_workers=workers,
            ),
            repeats,
        )
        expected_plausibility, expected_heterogeneity = naive_result
        for cluster in clusters:
            maps = result[cluster["ncid"]]
            if maps["plausibility"] != expected_plausibility[cluster["ncid"]]:
                raise SystemExit(f"FATAL: {label} plausibility differs from naive")
            if maps["heterogeneity"] != expected_heterogeneity[cluster["ncid"]]:
                raise SystemExit(f"FATAL: {label} heterogeneity differs from naive")
        timings[label] = {
            "seconds": seconds,
            "speedup": naive_seconds / seconds if seconds else None,
        }

    return {
        "benchmark": "cluster_scoring",
        "verified_bit_identical": True,
        "workload": {
            "initial_voters": config.initial_voters,
            "years": config.years,
            "snapshots_per_year": config.snapshots_per_year,
            "clusters": len(clusters),
            "record_pairs": pair_count,
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
        "--out", type=str, default="BENCH_scoring.json", help="output JSON path"
    )
    parser.add_argument(
        "--workers",
        type=int,
        nargs="*",
        default=[1, 2],
        help="process-pool worker counts to benchmark",
    )
    parser.add_argument(
        "--repeats", type=int, default=1, help="best-of-N timing repeats"
    )
    args = parser.parse_args(argv)

    config = QUICK_CONFIG if args.quick else FULL_CONFIG
    report = run_benchmark(config, args.workers, args.repeats)

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(f"workload: {report['workload']['clusters']} clusters, "
          f"{report['workload']['record_pairs']} record pairs")
    for name, row in report["timings"].items():
        print(f"{name:>22}: {row['seconds']:.3f}s  ({row['speedup']:.2f}x)")
    print(f"wrote {args.out}")

    fast_speedup = report["timings"]["fast_sequential"]["speedup"]
    if fast_speedup is not None and fast_speedup < 3.0:
        print(f"WARNING: fast sequential speedup {fast_speedup:.2f}x is below 3x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
