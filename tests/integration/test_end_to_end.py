"""End-to-end integration tests across all subsystems."""

import collections

import pytest

from repro.core import RemovalLevel, TestDataGenerator, customize
from repro.core.heterogeneity import HeterogeneityScorer
from repro.core.plausibility import cluster_plausibility
from repro.core.versioning import UpdateProcess
from repro.dedup import (
    DetectionPipeline,
    RecordMatcher,
    evaluate_thresholds,
    pack_pairs,
    pick_blocking_keys,
)
from repro.dedup import _reference as dedup_reference
from repro.docstore import Database
from repro.textsim import MongeElkan
from repro.votersim import SimulationConfig, VoterRegisterSimulator
from repro.votersim.schema import PERSON_ATTRIBUTES


class TestFullPipeline:
    """Simulate -> generate -> score -> customise -> detect -> evaluate."""

    @pytest.fixture(scope="class")
    def pipeline(self, snapshots):
        generator = TestDataGenerator(removal=RemovalLevel.TRIMMED)
        UpdateProcess(generator).run(snapshots)
        scorer = HeterogeneityScorer.from_clusters(
            generator.clusters(),
            ("person",),
            tuple(a for a in PERSON_ATTRIBUTES if a != "ncid"),
        )
        dataset = customize(
            generator, 0.0, 0.3, target_clusters=50, scorer=scorer, name="NC-test"
        )
        return generator, scorer, dataset

    def test_detection_quality_on_clean_subset(self, pipeline):
        _generator, _scorer, dataset = pipeline
        records, gold = dataset.records, dataset.gold_pairs
        attributes = [a for a in PERSON_ATTRIBUTES if a != "ncid"]
        thresholds = [t / 20 for t in range(8, 20)]
        matcher = RecordMatcher.from_records(records, attributes, MongeElkan())
        result = DetectionPipeline(window=20, passes=5, thresholds=thresholds).detect(
            records, attributes, matcher, gold
        )

        # The oracle, end to end: eager tuple-set SNM and per-pair scoring.
        keys = pick_blocking_keys(records, attributes, 5)
        candidates = dedup_reference.multipass_pairs_reference(records, keys, 20)
        similarities = dedup_reference.score_candidates_reference(
            records, candidates, matcher.measure, matcher.weights
        )
        points = evaluate_thresholds(similarities, gold, thresholds)
        assert result.candidate_keys == pack_pairs(candidates, len(records))
        assert result.similarities == similarities
        assert result.points == points
        assert result.best.f1 > 0.75  # clean data: detection should be easy

    def test_dirty_subset_is_harder(self, pipeline, snapshots):
        generator, scorer, clean = pipeline
        dirty = customize(
            generator, 0.35, 1.0, target_clusters=50, scorer=scorer, name="dirty"
        )
        attributes = [a for a in PERSON_ATTRIBUTES if a != "ncid"]
        results = {}
        detector = DetectionPipeline(
            window=20, passes=5, thresholds=[t / 20 for t in range(8, 20)]
        )
        for name, dataset in (("clean", clean), ("dirty", dirty)):
            matcher = RecordMatcher.from_records(dataset.records, attributes, MongeElkan())
            result = detector.detect(
                dataset.records, attributes, matcher, dataset.gold_pairs
            )
            results[name] = result.best.f1
        assert results["dirty"] < results["clean"]


class TestUnsoundClusterDetection:
    """The plausibility score must separate the simulator's NCID reuses."""

    def test_unsound_clusters_score_lower(self, simulator, generator):
        unsound = simulator.unsound_ncids
        assert unsound  # forced by the session config
        unsound_scores = []
        sound_scores = []
        for cluster in generator.clusters():
            if len(cluster["records"]) < 2:
                continue
            score = cluster_plausibility(cluster)
            if cluster["ncid"] in unsound:
                unsound_scores.append(score)
            else:
                sound_scores.append(score)
        if unsound_scores:  # reused NCIDs present in multi-record clusters
            mean = lambda xs: sum(xs) / len(xs)
            assert mean(unsound_scores) < mean(sound_scores)

    def test_overall_plausibility_shape_matches_paper(self, generator):
        # Figure 4a: mass concentrated at 1.0, thin low tail
        scores = [
            cluster_plausibility(cluster)
            for cluster in generator.clusters()
            if len(cluster["records"]) > 1
        ]
        at_one = sum(1 for s in scores if s >= 0.999)
        assert at_one / len(scores) > 0.5
        assert sum(scores) / len(scores) > 0.9


class TestPersistenceRoundTrip:
    def test_generated_dataset_survives_save_load(self, generator, tmp_path):
        generator.database.save(tmp_path)
        loaded = Database.load(tmp_path)
        clusters = loaded["clusters"]
        assert clusters.count_documents() == generator.cluster_count
        one = clusters.find_one({"ncid": {"$exists": True}})
        assert one["records"]

    def test_aggregation_pipeline_on_persisted_data(self, generator, tmp_path):
        generator.database.save(tmp_path)
        loaded = Database.load(tmp_path)
        result = loaded["clusters"].aggregate(
            [
                {"$addFields": {"size": {"$size": "$records"}}},
                {"$group": {"_id": None, "records": {"$sum": "$size"}, "clusters": {"$sum": 1}}},
            ]
        )
        assert result[0]["records"] == generator.record_count
        assert result[0]["clusters"] == generator.cluster_count


class TestScalabilityPath:
    """The import path must scale linearly (streaming, O(cluster) state)."""

    def test_throughput_smoke(self):
        import time

        config = SimulationConfig(initial_voters=800, years=3, seed=42)
        snapshots = list(VoterRegisterSimulator(config).run())
        total = sum(len(s) for s in snapshots)
        generator = TestDataGenerator(removal=RemovalLevel.TRIMMED)
        start = time.time()
        generator.import_snapshots(snapshots)
        elapsed = time.time() - start
        rate = total / elapsed
        assert rate > 2000  # records per second, very conservative bound
