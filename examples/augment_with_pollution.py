"""Augmentation: real outdated values + injected errors (DaPo future work).

Section 8's second future-work item combines the historical approach with
a scalable data pollution tool: keep the register's organic outdated
values and error patterns, but inject *additional* synthetic errors at
will to dial the dataset's difficulty.  This example:

1. generates the organic test dataset;
2. measures detection quality (best F1 and recall) on it;
3. augments it with synthetic duplicates at two pollution intensities,
   targeted at the identifying attributes;
4. re-measures, splitting recall into organic pairs vs pairs involving a
   synthetic record: under heavy pollution the synthetic pairs become the
   hardest part of the dataset, while the gold standard stays sound and
   the organic records remain exactly recoverable via provenance.

Run with::

    python examples/augment_with_pollution.py
"""

from repro.core import RemovalLevel, TestDataGenerator
from repro.core.augment import AugmentationPlan, Augmenter, strip_synthetic
from repro.core.heterogeneity import HeterogeneityScorer
from repro.dedup import (
    DetectionPipeline,
    RecordMatcher,
    best_f1,
    evaluate_thresholds,
)
from repro.textsim import MongeElkan
from repro.votersim import SimulationConfig, VoterRegisterSimulator
from repro.votersim.schema import PERSON_ATTRIBUTES

ATTRIBUTES = tuple(a for a in PERSON_ATTRIBUTES if a != "ncid")
#: Evaluate on the identifying attributes only (names, demographics) —
#: the attributes the pollution targets, as a real customised test set
#: restricted to person identity would.
EVAL_ATTRIBUTES = (
    "first_name", "midl_name", "last_name", "name_sufx",
    "sex", "birth_place", "res_city_desc", "zip_code",
)
THRESHOLDS = [t / 20 for t in range(6, 20)]


def detection_report(generator, scorer):
    """(best F1, recall on organic pairs, recall on synthetic pairs)."""
    from repro.core.clusters import record_view

    records = []
    cluster_of = []
    is_synthetic = []
    for cluster in generator.clusters():
        if len(cluster["records"]) < 2:
            continue
        for record in cluster["records"]:
            records.append(record_view(record, ("person",)))
            cluster_of.append(cluster["ncid"])
            is_synthetic.append(bool(record.get("synthetic")))
    gold, organic_gold, synthetic_gold = set(), set(), set()
    by_cluster = {}
    for record_id, ncid in enumerate(cluster_of):
        by_cluster.setdefault(ncid, []).append(record_id)
    for members in by_cluster.values():
        for j in range(1, len(members)):
            for i in range(j):
                pair = (members[i], members[j])
                gold.add(pair)
                if is_synthetic[pair[0]] or is_synthetic[pair[1]]:
                    synthetic_gold.add(pair)
                else:
                    organic_gold.add(pair)

    matcher = RecordMatcher.from_records(
        records, EVAL_ATTRIBUTES, MongeElkan(),
        name_attributes=("first_name", "midl_name", "last_name"),
    )
    pipeline = DetectionPipeline(window=20, passes=5)
    candidates, _stats = pipeline.candidates(records, EVAL_ATTRIBUTES)
    similarities = pipeline.score(records, candidates, matcher)
    best = best_f1(evaluate_thresholds(similarities, gold, THRESHOLDS))
    predicted = {
        pair for pair, score in similarities.items() if score >= best.threshold
    }
    organic_recall = (
        len(predicted & organic_gold) / len(organic_gold) if organic_gold else 1.0
    )
    synthetic_recall = (
        len(predicted & synthetic_gold) / len(synthetic_gold)
        if synthetic_gold
        else float("nan")
    )
    return best, organic_recall, synthetic_recall


def main() -> None:
    config = SimulationConfig(initial_voters=400, years=5, seed=17)
    snapshots = list(VoterRegisterSimulator(config).run())
    generator = TestDataGenerator(removal=RemovalLevel.TRIMMED)
    generator.import_snapshots(snapshots)
    organic_records = generator.record_count
    print(f"organic dataset: {organic_records} records in "
          f"{generator.cluster_count} clusters")

    scorer = HeterogeneityScorer.from_clusters(
        generator.clusters(), ("person",), ATTRIBUTES
    )
    best, organic_recall, _ = detection_report(generator, scorer)
    print(
        f"organic data: best F1 {best.f1:.3f} @ {best.threshold:.2f} "
        f"(recall {best.recall:.2f})"
    )

    for label, plan in (
        ("mild pollution", AugmentationPlan(
            share_of_clusters=0.4, duplicates_per_cluster=1,
            errors_per_duplicate=1.5, attributes=EVAL_ATTRIBUTES, seed=1)),
        ("heavy pollution", AugmentationPlan(
            share_of_clusters=0.9, duplicates_per_cluster=2,
            errors_per_duplicate=4.0, attributes=EVAL_ATTRIBUTES, seed=2)),
    ):
        stats = Augmenter(generator, plan).augment()
        best, organic_recall, synthetic_recall = detection_report(generator, scorer)
        print(
            f"\n{label}: +{stats.records_added} synthetic records into "
            f"{stats.clusters_touched} clusters "
            f"(total now {generator.record_count})"
        )
        print(
            f"  best F1 {best.f1:.3f} @ {best.threshold:.2f}; recall on "
            f"organic pairs {organic_recall:.2f}, on synthetic pairs "
            f"{synthetic_recall:.2f}"
        )

    # The organic records remain exactly recoverable via provenance.
    recovered = sum(
        len(strip_synthetic(cluster)) for cluster in generator.clusters()
    )
    print(
        f"\nstripping synthetic records recovers the organic dataset: "
        f"{recovered} == {organic_records}"
    )
    assert recovered == organic_records


if __name__ == "__main__":
    main()
