"""Figure 5: F1 vs similarity threshold for three measures on six datasets.

Measures (Section 6.5): Monge-Elkan/Damerau-Levenshtein (hybrid),
Jaro-Winkler (sequential) and trigram Jaccard (token-based).  Datasets:
NC1/NC2/NC3 (customised) and Cora/Census/CDDB (comparison).  Blocking is a
multi-pass Sorted Neighborhood over the five most unique attributes with
window 20, weights are entropies over all records.
"""

import pytest

from repro.dedup import (
    DetectionPipeline,
    RecordMatcher,
    best_f1,
    evaluate_thresholds,
)
from repro.textsim import JaroWinkler, MongeElkan, QgramJaccard
from repro.votersim.schema import PERSON_ATTRIBUTES

from bench_utils import write_result

MEASURES = {
    "ME/Lev": MongeElkan,
    "JaroWinkler": JaroWinkler,
    "Jaccard3": QgramJaccard,
}

THRESHOLDS = [t / 20 for t in range(4, 20)]  # 0.20 .. 0.95

NC_NAME_ATTRIBUTES = ("first_name", "midl_name", "last_name")


def run_detection(records, gold_pairs, attributes, name_attributes):
    """All three measures on one dataset -> {measure: [EvaluationPoint]}."""
    pipeline = DetectionPipeline(window=20, passes=5)
    candidates, _stats = pipeline.candidates(records, attributes)
    curves = {}
    for label, measure_cls in MEASURES.items():
        matcher = RecordMatcher.from_records(
            records, attributes, measure_cls(), name_attributes
        )
        similarities = pipeline.score(records, candidates, matcher)
        curves[label] = evaluate_thresholds(similarities, gold_pairs, THRESHOLDS)
    return curves


def curve_lines(name, curves):
    lines = [f"-- {name} --", f"{'threshold':>9} " + " ".join(f"{m:>12}" for m in curves)]
    for index, threshold in enumerate(THRESHOLDS):
        row = f"{threshold:>9.2f} "
        row += " ".join(f"{points[index].f1:>12.3f}" for points in curves.values())
        lines.append(row)
    best = {m: best_f1(points) for m, points in curves.items()}
    lines.append(
        "best F1:  " + "  ".join(f"{m}={p.f1:.3f}@{p.threshold:.2f}" for m, p in best.items())
    )
    return lines, best


def test_fig5abc_nc_datasets(benchmark, nc_datasets, results_dir):
    attributes = [a for a in PERSON_ATTRIBUTES if a != "ncid"]

    def run_all():
        return {
            name: run_detection(ds.records, ds.gold_pairs, attributes, NC_NAME_ATTRIBUTES)
            for name, ds in nc_datasets.items()
        }

    all_curves = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = []
    best_by_dataset = {}
    spread_by_dataset = {}
    for name, curves in all_curves.items():
        chunk, best = curve_lines(name, curves)
        lines += chunk + [""]
        best_scores = [point.f1 for point in best.values()]
        best_by_dataset[name] = max(best_scores)
        spread_by_dataset[name] = max(best_scores) - min(best_scores)
    write_result(results_dir, "fig5abc_nc_f1_curves", lines)

    # Paper's headline: quality degrades with heterogeneity NC1 -> NC3
    # (NC1 and NC2 may both saturate near 1.0 at bench scale, so the
    # ordering is non-strict at the top), NC1 near-perfect, NC3 clearly
    # harder, and the spread between measures grows with dirtiness
    # ("the selection of this measure was much more important").
    assert best_by_dataset["NC1"] >= best_by_dataset["NC2"] >= best_by_dataset["NC3"]
    assert best_by_dataset["NC1"] > 0.9
    assert best_by_dataset["NC3"] < best_by_dataset["NC1"] - 0.05
    assert spread_by_dataset["NC3"] > spread_by_dataset["NC1"]


def test_fig5def_comparison_datasets(benchmark, comparison_datasets, results_dir):
    def run_all():
        results = {}
        for name, dataset in comparison_datasets.items():
            if name == "Cora":
                # evaluate on a cluster-sample: the 238-record cluster alone
                # produces tens of thousands of candidate pairs
                results[name] = run_detection(
                    dataset.records, dataset.gold_pairs,
                    ("author", "title", "journal", "booktitle", "year", "pages"),
                    (),
                )
            elif name == "Census":
                results[name] = run_detection(
                    dataset.records, dataset.gold_pairs, dataset.attributes,
                    ("first_name", "last_name"),
                )
            else:
                results[name] = run_detection(
                    dataset.records, dataset.gold_pairs, dataset.attributes, ()
                )
        return results

    all_curves = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = []
    best_by_dataset = {}
    for name, curves in all_curves.items():
        chunk, best = curve_lines(name, curves)
        lines += chunk + [""]
        best_by_dataset[name] = max(point.f1 for point in best.values())
    write_result(results_dir, "fig5def_comparison_f1_curves", lines)

    # Paper: the comparison datasets pattern like NC2 — solid but imperfect
    # maximal F1 scores, well above the NC3 regime.
    for name, best in best_by_dataset.items():
        assert 0.4 < best <= 1.0, (name, best)
