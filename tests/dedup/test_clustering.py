"""Tests for the clustering step (transitive closure + metrics)."""

import pytest

from repro.dedup.clustering import (
    closure_pair_metrics,
    cluster_metrics,
    clusters_from_labels,
    connected_components,
    pairs_of_clusters,
)


class TestConnectedComponents:
    def test_no_pairs_all_singletons(self):
        assert connected_components([], 3) == [[0], [1], [2]]

    def test_single_pair(self):
        assert connected_components([(0, 2)], 3) == [[0, 2], [1]]

    def test_transitive_chain(self):
        components = connected_components([(0, 1), (1, 2), (3, 4)], 5)
        assert components == [[0, 1, 2], [3, 4]]

    def test_duplicate_pairs_idempotent(self):
        components = connected_components([(0, 1), (0, 1), (1, 0)], 2)
        assert components == [[0, 1]]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            connected_components([(0, 5)], 3)

    def test_zero_records(self):
        assert connected_components([], 0) == []


class TestPairsOfClusters:
    def test_pairs(self):
        assert pairs_of_clusters([[0, 1, 2], [3]]) == {(0, 1), (0, 2), (1, 2)}

    def test_unsorted_members_normalised(self):
        assert pairs_of_clusters([[2, 0]]) == {(0, 2)}


class TestClosurePairMetrics:
    def test_closure_recovers_implied_pair(self):
        # predicted (0,1) and (1,2); closure implies (0,2), which is gold
        gold = {(0, 1), (1, 2), (0, 2)}
        precision, recall, f1 = closure_pair_metrics({(0, 1), (1, 2)}, gold, 3)
        assert precision == 1.0
        assert recall == 1.0
        assert f1 == 1.0

    def test_closure_propagates_errors(self):
        # one wrong bridge merges two gold clusters -> implied false pairs
        gold = {(0, 1), (2, 3)}
        predicted = {(0, 1), (2, 3), (1, 2)}  # (1,2) is wrong
        precision, recall, _ = closure_pair_metrics(predicted, gold, 4)
        assert recall == 1.0
        assert precision == pytest.approx(2 / 6)

    def test_empty_prediction(self):
        precision, recall, f1 = closure_pair_metrics(set(), {(0, 1)}, 2)
        assert precision == 1.0
        assert recall == 0.0
        assert f1 == 0.0


class TestClusterMetrics:
    def test_perfect_match(self):
        clusters = [[0, 1], [2]]
        assert cluster_metrics(clusters, clusters) == (1.0, 1.0, 1.0)

    def test_partial_match(self):
        predicted = [[0, 1], [2], [3]]
        gold = [[0, 1], [2, 3]]
        precision, recall, f1 = cluster_metrics(predicted, gold)
        assert precision == pytest.approx(1 / 3)
        assert recall == pytest.approx(1 / 2)

    def test_order_insensitive(self):
        assert cluster_metrics([[1, 0]], [[0, 1]]) == (1.0, 1.0, 1.0)

    def test_empty_both(self):
        assert cluster_metrics([], []) == (1.0, 1.0, 1.0)


class TestClustersFromLabels:
    def test_groups_by_label(self):
        assert clusters_from_labels(["a", "b", "a"]) == [[0, 2], [1]]

    def test_empty(self):
        assert clusters_from_labels([]) == []


class TestEndToEndClustering:
    def test_pipeline_on_customised_dataset(self, generator):
        from repro.core import customize
        from repro.core.heterogeneity import HeterogeneityScorer
        from repro.dedup import DetectionPipeline, RecordMatcher
        from repro.textsim import MongeElkan
        from repro.votersim.schema import PERSON_ATTRIBUTES

        attributes = tuple(a for a in PERSON_ATTRIBUTES if a != "ncid")
        scorer = HeterogeneityScorer.from_clusters(
            generator.clusters(), ("person",), attributes
        )
        dataset = customize(
            generator, 0.0, 0.25, target_clusters=30, scorer=scorer
        )
        matcher = RecordMatcher.from_records(dataset.records, attributes, MongeElkan())
        pipeline = DetectionPipeline(window=20, passes=5)
        keys, _stats = pipeline.candidates(dataset.records, attributes)
        similarities = pipeline.score(dataset.records, keys, matcher)
        predicted_pairs = {
            pair for pair, score in similarities.items() if score >= 0.6
        }
        predicted = connected_components(predicted_pairs, len(dataset.records))
        gold = clusters_from_labels(dataset.cluster_of)
        _precision, recall, f1 = cluster_metrics(predicted, gold)
        assert f1 > 0.5  # clean data: most clusters reconstructed exactly
        _p, closure_recall, _f = closure_pair_metrics(
            predicted_pairs, dataset.gold_pairs, len(dataset.records)
        )
        assert closure_recall >= 0.7
