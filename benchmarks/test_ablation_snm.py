"""Ablation: Sorted Neighborhood window size and number of passes.

The paper uses five passes (one per highly unique attribute) with window
w = 20 and reports that no true duplicate was lost.  This bench sweeps
both knobs and reports candidate counts (cost) against lost gold pairs
(quality) — the trade-off that justifies the paper's setting.
"""

import pytest

from repro.core import customize
from repro.dedup import (
    pick_blocking_keys,
    sorted_neighborhood_candidates,
    unpack_pairs,
)
from repro.votersim.schema import PERSON_ATTRIBUTES

from bench_utils import write_result

WINDOWS = (5, 10, 20, 40)
PASS_COUNTS = (1, 3, 5)


@pytest.fixture(scope="module")
def blocking_dataset(bench_generator, bench_scorer):
    return customize(
        bench_generator, 0.0, 1.0, target_clusters=150,
        scorer=bench_scorer, name="blocking-ablation",
    )


def sweep(records, gold_pairs, attributes):
    results = {}
    for passes in PASS_COUNTS:
        keys = pick_blocking_keys(records, attributes, passes)
        for window in WINDOWS:
            candidates, _stats = sorted_neighborhood_candidates(
                records, keys, window
            )
            lost = len(gold_pairs - unpack_pairs(candidates, len(records)))
            results[(passes, window)] = (len(candidates), lost)
    return results


def test_ablation_snm_window_and_passes(benchmark, blocking_dataset, results_dir):
    attributes = [a for a in PERSON_ATTRIBUTES if a != "ncid"]
    records = blocking_dataset.records
    gold = blocking_dataset.gold_pairs

    results = benchmark.pedantic(
        sweep, args=(records, gold, attributes), rounds=1, iterations=1
    )

    lines = [
        f"records: {len(records)}, gold pairs: {len(gold)}",
        f"{'passes':>7} {'window':>7} {'candidates':>11} {'lost gold':>10}",
    ]
    for (passes, window), (candidates, lost) in sorted(results.items()):
        lines.append(f"{passes:>7} {window:>7} {candidates:>11} {lost:>10}")
    write_result(results_dir, "ablation_snm", lines)

    # More passes / larger windows never lose more duplicates.
    for window in WINDOWS:
        losses = [results[(passes, window)][1] for passes in PASS_COUNTS]
        assert losses == sorted(losses, reverse=True)
    for passes in PASS_COUNTS:
        losses = [results[(passes, window)][1] for window in WINDOWS]
        assert losses == sorted(losses, reverse=True)
    # The paper's setting (5 passes, w=20) loses (almost) nothing — the
    # paper reports zero loss; our simulated register is slightly noisier,
    # so allow a few percent...
    paper_candidates, paper_lost = results[(5, 20)]
    assert paper_lost <= 0.03 * len(gold)
    # ...while scanning far fewer pairs than the quadratic baseline.
    quadratic = len(records) * (len(records) - 1) // 2
    assert paper_candidates < 0.7 * quadratic
