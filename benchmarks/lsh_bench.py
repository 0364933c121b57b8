"""LSH blocking benchmark: sub-quadratic candidates vs Sorted Neighborhood.

Builds a *typo-heavy* labeled workload at two or three register sizes —
one snapshot (no temporal duplicates), then half of all clusters get one
synthetic duplicate with ~1.5 typo/OCR/phonetic corruptions via the
pollution Augmenter — and runs candidate generation both ways:

* ``snm`` — the paper's multi-pass Sorted Neighborhood (5 entropy-ranked
  keys, window 20), the Section 6.5 baseline;
* ``lsh`` — the MinHash–LSH pass (:mod:`repro.dedup.lsh`) at the
  library's default geometry.

For every size the report records candidate-pair counts, gold-pair
recall and wall-clock; across sizes it fits log–log growth exponents.
Two gates (exit code 1 when either fails):

* **sub-quadratic**: the LSH candidate-pair exponent between the
  smallest and largest register stays below 2.0 (SNM's window union is
  ~linear but recall-blind; naive all-pairs is the quadratic ceiling);
* **recall at budget**: at the largest size LSH reaches at least 0.90 of
  SNM's gold-pair recall while emitting at most 0.5x SNM's candidates.

Usage::

    PYTHONPATH=src python benchmarks/lsh_bench.py --quick --out BENCH_lsh.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Dict, List, Optional, Sequence, Set

from repro.core import RemovalLevel, TestDataGenerator, customize
from repro.core.augment import AugmentationPlan, Augmenter
from repro.dedup import (
    lsh_candidates,
    pick_blocking_keys,
    sorted_neighborhood_candidates,
)
from repro.votersim import SimulationConfig, VoterRegisterSimulator
from repro.votersim.schema import PERSON_ATTRIBUTES

from bench_utils import timed

SEED = 20210323

#: Initial register sizes (voters simulated; records come out smaller
#: after trimming, larger after augmentation).
QUICK_SIZES = (300, 600, 1200)
FULL_SIZES = (600, 1200, 2400)

#: SNM baseline: the Section 6.5 configuration.
SNM_PASSES = 5
SNM_WINDOW = 20

#: LSH configuration under test (the library defaults; see
#: docs/performance.md Layer 7 for the tuning table).
LSH_BANDS = 16
LSH_ROWS = 4
LSH_NGRAM = 3

#: Gates.
MAX_GROWTH_EXPONENT = 2.0
MIN_RECALL_RATIO = 0.90
MAX_PAIR_BUDGET = 0.5


def _build_dataset(initial_voters: int):
    """One-snapshot register + typo-heavy synthetic duplicates, labeled."""
    config = SimulationConfig(
        initial_voters=initial_voters,
        years=1,
        snapshots_per_year=1,
        seed=SEED,
    )
    simulator = VoterRegisterSimulator(config)
    generator = TestDataGenerator(removal=RemovalLevel.TRIMMED)
    generator.import_snapshots(list(simulator.run()))
    plan = AugmentationPlan(
        share_of_clusters=0.5,
        duplicates_per_cluster=1,
        errors_per_duplicate=1.5,
        corruptor_weights={"typo": 4.0, "ocr": 1.0, "phonetic": 1.0},
        seed=SEED,
    )
    Augmenter(generator, plan).augment()
    return customize(
        generator, 0.0, 1.0, target_clusters=10**9, name="lshbench"
    )


def _recall(keys: Set[int], gold, record_count: int) -> float:
    if not gold:
        return 1.0
    found = sum(
        1
        for left, right in gold
        if left * record_count + right in keys
    )
    return found / len(gold)


def _growth_exponent(sizes: List[Dict], field: str) -> Optional[float]:
    """Log–log slope of ``field`` between the smallest and largest size."""
    first, last = sizes[0], sizes[-1]
    if first["records"] == last["records"]:
        return None
    if not first[field] or not last[field]:
        return None
    return math.log(last[field] / first[field]) / math.log(
        last["records"] / first["records"]
    )


def run_benchmark(initial_sizes: Sequence[int], repeats: int) -> Dict:
    # The LSH pass imports numpy on first use; import it before any timing
    # so the smallest size does not carry that one-off cost.
    import numpy  # noqa: F401

    attributes = [a for a in PERSON_ATTRIBUTES if a != "ncid"]
    sizes: List[Dict] = []
    for initial_voters in initial_sizes:
        dataset = _build_dataset(initial_voters)
        records, gold = dataset.records, dataset.gold_pairs
        record_count = len(records)
        snm_keys = pick_blocking_keys(records, attributes, SNM_PASSES)

        snm_seconds, (snm_pairs, _snm_stats) = timed(
            lambda r=records, k=snm_keys: sorted_neighborhood_candidates(
                r, k, SNM_WINDOW
            ),
            repeats,
        )
        lsh_seconds, (lsh_pairs, lsh_stats) = timed(
            lambda r=records: lsh_candidates(
                r,
                attributes,
                bands=LSH_BANDS,
                rows=LSH_ROWS,
                ngram=LSH_NGRAM,
            ),
            repeats,
        )
        buckets = lsh_stats.passes[0].buckets
        sizes.append(
            {
                "initial_voters": initial_voters,
                "records": record_count,
                "gold_pairs": len(gold),
                "snm": {
                    "candidate_pairs": len(snm_pairs),
                    "recall": _recall(snm_pairs, gold, record_count),
                    "seconds": snm_seconds,
                },
                "lsh": {
                    "candidate_pairs": len(lsh_pairs),
                    "recall": _recall(lsh_pairs, gold, record_count),
                    "seconds": lsh_seconds,
                    "pairs_emitted": lsh_stats.passes[0].pairs_emitted,
                    "buckets_total": buckets.buckets_total,
                    "buckets_skipped": buckets.buckets_skipped,
                    "pairs_dropped": buckets.pairs_dropped,
                    "max_bucket": buckets.max_bucket,
                },
                "pair_budget_ratio": (
                    len(lsh_pairs) / len(snm_pairs) if snm_pairs else None
                ),
            }
        )

    # flatten for the exponent fit
    flat = [
        {
            "records": row["records"],
            "snm_pairs": row["snm"]["candidate_pairs"],
            "lsh_pairs": row["lsh"]["candidate_pairs"],
            "lsh_seconds": row["lsh"]["seconds"],
        }
        for row in sizes
    ]
    exponents = {
        "snm_candidate_pairs": _growth_exponent(flat, "snm_pairs"),
        "lsh_candidate_pairs": _growth_exponent(flat, "lsh_pairs"),
        "lsh_seconds": _growth_exponent(flat, "lsh_seconds"),
    }

    largest = sizes[-1]
    gates = {
        "subquadratic_candidates": {
            "exponent": exponents["lsh_candidate_pairs"],
            "limit": MAX_GROWTH_EXPONENT,
            "passed": (
                exponents["lsh_candidate_pairs"] is not None
                and exponents["lsh_candidate_pairs"] < MAX_GROWTH_EXPONENT
            ),
        },
        "recall_at_budget": {
            "recall_ratio": (
                largest["lsh"]["recall"] / largest["snm"]["recall"]
                if largest["snm"]["recall"]
                else None
            ),
            "min_recall_ratio": MIN_RECALL_RATIO,
            "pair_budget_ratio": largest["pair_budget_ratio"],
            "max_pair_budget": MAX_PAIR_BUDGET,
            "passed": (
                largest["snm"]["recall"] > 0
                and largest["lsh"]["recall"] / largest["snm"]["recall"]
                >= MIN_RECALL_RATIO
                and largest["pair_budget_ratio"] is not None
                and largest["pair_budget_ratio"] <= MAX_PAIR_BUDGET
            ),
        },
    }

    return {
        "benchmark": "lsh_blocking",
        "workload": {
            "kind": "typo_heavy",
            "seed": SEED,
            "initial_voters": list(initial_sizes),
            "augmentation": {
                "share_of_clusters": 0.5,
                "duplicates_per_cluster": 1,
                "errors_per_duplicate": 1.5,
                "corruptors": ["typo", "ocr", "phonetic"],
            },
            "snm": {"passes": SNM_PASSES, "window": SNM_WINDOW},
            "lsh": {
                "bands": LSH_BANDS,
                "rows": LSH_ROWS,
                "ngram": LSH_NGRAM,
            },
        },
        "sizes": sizes,
        "growth_exponents": exponents,
        "gates": gates,
        "environment": {
            "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(),
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small workload (CI smoke test)"
    )
    parser.add_argument(
        "--out", type=str, default="BENCH_lsh.json", help="output JSON path"
    )
    parser.add_argument(
        "--repeats", type=int, default=1, help="best-of-N timing repeats"
    )
    args = parser.parse_args(argv)

    initial_sizes = QUICK_SIZES if args.quick else FULL_SIZES
    report = run_benchmark(initial_sizes, args.repeats)

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    for row in report["sizes"]:
        print(
            f"n={row['records']:>5}  "
            f"snm {row['snm']['candidate_pairs']:>7} pairs "
            f"R={row['snm']['recall']:.3f} {row['snm']['seconds']:.3f}s | "
            f"lsh {row['lsh']['candidate_pairs']:>7} pairs "
            f"R={row['lsh']['recall']:.3f} {row['lsh']['seconds']:.3f}s | "
            f"budget {row['pair_budget_ratio']:.2f}x"
        )
    exponents = report["growth_exponents"]
    print(
        f"growth exponents: snm {exponents['snm_candidate_pairs']:.2f}, "
        f"lsh {exponents['lsh_candidate_pairs']:.2f} "
        f"(wall {exponents['lsh_seconds']:.2f})"
    )
    print(f"wrote {args.out}")

    failed = [
        name for name, gate in report["gates"].items() if not gate["passed"]
    ]
    for name in failed:
        print(f"GATE FAILED: {name}: {report['gates'][name]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
