"""Tests for threshold sweeps and P/R/F1."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dedup import (
    EvaluationPoint,
    RecordMatcher,
    best_f1,
    evaluate_thresholds,
    pack_pairs,
    score_candidates_packed,
)
from repro.dedup._reference import evaluate_thresholds_reference


class TestBasicMetrics:
    def test_empty_prediction_has_precision_one(self):
        point = EvaluationPoint(0.5, true_positives=0, false_positives=0, false_negatives=1)
        assert point.precision == 1.0
        assert point.recall == 0.0
        assert point.f1 == 0.0

    def test_precision_recall_f1(self):
        point = EvaluationPoint(0.5, true_positives=1, false_positives=1, false_negatives=0)
        assert point.precision == 0.5
        assert point.recall == 1.0
        assert point.f1 == pytest.approx(2 / 3)

    def test_evaluation_point_properties(self):
        point = EvaluationPoint(0.5, true_positives=8, false_positives=2, false_negatives=2)
        assert point.precision == 0.8
        assert point.recall == 0.8
        assert point.f1 == pytest.approx(0.8)


class TestScoreCandidates:
    def test_scores_each_pair_once(self):
        records = [{"v": "A"}, {"v": "A"}, {"v": "B"}]
        matcher = RecordMatcher(
            lambda l, r: 1.0 if l == r else 0.0, {"v": 1.0}, name_attributes=()
        )
        similarities = score_candidates_packed(
            records, pack_pairs([(0, 1), (0, 2)], len(records)), matcher
        )
        assert similarities == {(0, 1): 1.0, (0, 2): 0.0}


class TestEvaluateThresholds:
    def sweep(self):
        similarities = {
            (0, 1): 0.9,  # gold
            (0, 2): 0.8,  # not gold
            (1, 2): 0.6,  # gold
            (3, 4): 0.2,  # not gold
        }
        gold = {(0, 1), (1, 2), (5, 6)}
        return evaluate_thresholds(similarities, gold, [0.1, 0.5, 0.7, 0.95])

    def test_points_in_threshold_order(self):
        points = self.sweep()
        assert [p.threshold for p in points] == [0.1, 0.5, 0.7, 0.95]

    def test_low_threshold_high_recall(self):
        points = self.sweep()
        low = points[0]
        assert low.true_positives == 2
        assert low.false_positives == 2
        assert low.false_negatives == 1  # the never-scored gold pair (5, 6)

    def test_high_threshold_high_precision(self):
        points = self.sweep()
        high = points[-1]
        assert high.true_positives == 0
        assert high.false_positives == 0

    def test_mid_threshold(self):
        points = self.sweep()
        mid = points[1]  # 0.5
        assert mid.true_positives == 2
        assert mid.false_positives == 1

    def test_unscored_gold_pairs_count_as_false_negatives(self):
        # blocking losses are charged against recall, as in the paper
        points = evaluate_thresholds({}, {(0, 1)}, [0.5])
        assert points[0].false_negatives == 1
        assert points[0].recall == 0.0

    def test_monotone_recall_decreasing_in_threshold(self):
        points = self.sweep()
        recalls = [p.recall for p in points]
        assert recalls == sorted(recalls, reverse=True)

    def test_pair_on_threshold_boundary_included(self):
        points = evaluate_thresholds({(0, 1): 0.5}, {(0, 1)}, [0.5])
        assert points[0].true_positives == 1


pairs = st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
# Thresholds repeat and come unsorted; scores often sit exactly on one.
threshold_lists = st.lists(
    st.one_of(st.sampled_from([0.0, 0.2, 0.25, 0.5, 0.95, 1.0]), st.floats(0.0, 1.0)),
    max_size=12,
)


class TestCountingSweepMatchesSortOracle:
    @given(st.data(), threshold_lists, st.sets(pairs, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_equal_to_the_sort_based_sweep(self, data, thresholds, gold):
        scores = st.one_of(
            st.floats(-1.0, 2.0), st.sampled_from(thresholds or [0.5]), st.just(-0.0)
        )
        similarities = data.draw(st.dictionaries(pairs, scores, max_size=30))
        assert evaluate_thresholds(similarities, gold, thresholds) == (
            evaluate_thresholds_reference(similarities, gold, thresholds)
        )

    def test_scores_on_duplicate_unsorted_thresholds(self):
        similarities = {(0, 1): 0.5, (0, 2): 0.25, (1, 2): 0.5, (2, 3): 0.95}
        gold = {(0, 1), (2, 3), (4, 5)}
        thresholds = [0.5, 0.25, 0.95, 0.5, 0.0]
        points = evaluate_thresholds(similarities, gold, thresholds)
        assert points == evaluate_thresholds_reference(similarities, gold, thresholds)
        assert [(p.threshold, p.true_positives, p.false_positives) for p in points] == [
            (0.0, 2, 2), (0.25, 2, 2), (0.5, 2, 1), (0.5, 2, 1), (0.95, 1, 0),
        ]
        assert all(p.false_negatives == 3 - p.true_positives for p in points)

    def test_equal_thresholds_keep_the_sort_based_order(self):
        thresholds = [0.0, -0.0]
        points = evaluate_thresholds({(0, 1): 0.0}, set(), thresholds)
        assert [str(p.threshold) for p in points] == ["-0.0", "0.0"]
        assert points == evaluate_thresholds_reference({(0, 1): 0.0}, set(), thresholds)

    def test_empty_similarities(self):
        for gold in (set(), {(0, 1)}):
            assert evaluate_thresholds({}, gold, [0.5, 0.1]) == (
                evaluate_thresholds_reference({}, gold, [0.5, 0.1])
            )

    def test_nan_score_counts_below_every_threshold(self):
        similarities = {(0, 1): math.nan, (0, 2): 0.5, (1, 2): math.nan}
        points = evaluate_thresholds(similarities, {(0, 1), (0, 2)}, [-1.0, 0.0, 0.5])
        assert [(p.true_positives, p.false_positives, p.false_negatives) for p in points] == [
            (1, 0, 1), (1, 0, 1), (1, 0, 1),
        ]


class TestBestF1:
    def test_picks_maximum(self):
        points = [
            EvaluationPoint(0.3, 5, 5, 0),
            EvaluationPoint(0.5, 5, 1, 0),
            EvaluationPoint(0.7, 2, 0, 3),
        ]
        assert best_f1(points).threshold == 0.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            best_f1([])
