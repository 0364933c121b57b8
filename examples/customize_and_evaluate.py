"""Customise NC1/NC2/NC3-style test datasets and evaluate detectors on them.

Reproduces the workflow of Section 6.5 at example scale:

1. generate the full test dataset from a simulated register;
2. derive three customised datasets with increasing heterogeneity
   (the paper's NC1 [0.06, 0.2], NC2 [0.2, 0.4] and NC3 [0.4, 1.0]);
3. run three duplicate-detection algorithms (Monge-Elkan/Damerau-
   Levenshtein, Jaro-Winkler, trigram Jaccard) with Sorted Neighborhood
   blocking on each dataset;
4. report the best F1 per measure and dataset — quality should fall from
   NC1 to NC3, exactly as in the paper's Figure 5.

Run with::

    python examples/customize_and_evaluate.py
"""

from repro.core import RemovalLevel, TestDataGenerator, customize
from repro.core.heterogeneity import HeterogeneityScorer
from repro.dedup import (
    DetectionPipeline,
    RecordMatcher,
    best_f1,
    evaluate_thresholds,
    unpack_pairs,
)
from repro.textsim import JaroWinkler, MongeElkan, QgramJaccard
from repro.votersim import SimulationConfig, VoterRegisterSimulator
from repro.votersim.schema import PERSON_ATTRIBUTES

RANGES = {"NC1": (0.06, 0.2), "NC2": (0.2, 0.4), "NC3": (0.4, 1.0)}
MEASURES = {
    "ME/Lev": MongeElkan(),
    "JaroWinkler": JaroWinkler(),
    "Jaccard-3grams": QgramJaccard(q=3),
}
THRESHOLDS = [t / 20 for t in range(4, 20)]


def main() -> None:
    config = SimulationConfig(initial_voters=800, years=6, seed=11)
    snapshots = VoterRegisterSimulator(config).run()
    generator = TestDataGenerator(removal=RemovalLevel.TRIMMED)
    generator.import_snapshots(snapshots)
    print(f"generated {generator.record_count} records in "
          f"{generator.cluster_count} clusters")

    attributes = tuple(a for a in PERSON_ATTRIBUTES if a != "ncid")
    scorer = HeterogeneityScorer.from_clusters(
        generator.clusters(), ("person",), attributes
    )

    for name, (low, high) in RANGES.items():
        dataset = customize(
            generator, low, high, target_clusters=80, scorer=scorer, name=name
        )
        avg_het, max_het = dataset.heterogeneity_stats(scorer)
        print(
            f"\n{name} (heterogeneity [{low}, {high}]): "
            f"{dataset.record_count} records, {dataset.cluster_count} clusters, "
            f"avg het {avg_het:.2f}, max het {max_het:.2f}"
        )

        # One SNM pass per five most unique attributes, window 20.
        pipeline = DetectionPipeline(window=20, passes=5)
        candidates, _stats = pipeline.candidates(dataset.records, attributes)
        lost = dataset.gold_pairs - unpack_pairs(candidates, len(dataset.records))
        print(f"  blocking: {len(candidates)} candidates, "
              f"{len(lost)} true duplicates lost")

        for label, measure in MEASURES.items():
            matcher = RecordMatcher.from_records(
                dataset.records, attributes, measure,
                name_attributes=("first_name", "midl_name", "last_name"),
            )
            similarities = pipeline.score(dataset.records, candidates, matcher)
            points = evaluate_thresholds(similarities, dataset.gold_pairs, THRESHOLDS)
            best = best_f1(points)
            print(
                f"  {label:<15} best F1 {best.f1:.3f} at threshold "
                f"{best.threshold:.2f} (P={best.precision:.2f}, R={best.recall:.2f})"
            )


if __name__ == "__main__":
    main()
