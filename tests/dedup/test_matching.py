"""Tests for the record matcher (weighted attribute average + name 1:1)."""

import pytest

from repro.dedup import RecordMatcher, pack_pairs, score_candidates_packed
from repro.textsim import MongeElkan, jaro_winkler


def exact(left, right):
    return 1.0 if left == right else 0.0


class TestRecordMatcher:
    def test_identical_records(self):
        matcher = RecordMatcher(exact, {"a": 0.5, "b": 0.5}, name_attributes=())
        record = {"a": "X", "b": "Y"}
        assert matcher.similarity(record, record) == 1.0

    def test_weighted_average(self):
        matcher = RecordMatcher(exact, {"a": 0.75, "b": 0.25}, name_attributes=())
        left = {"a": "X", "b": "Y"}
        right = {"a": "X", "b": "DIFFERENT"}
        assert matcher.similarity(left, right) == pytest.approx(0.75)

    def test_weights_normalised_internally(self):
        matcher = RecordMatcher(exact, {"a": 3.0, "b": 1.0}, name_attributes=())
        left = {"a": "X", "b": "Y"}
        right = {"a": "X", "b": "Z"}
        assert matcher.similarity(left, right) == pytest.approx(0.75)

    def test_name_confusion_fixed_by_permutation_matching(self):
        weights = {"first_name": 0.4, "midl_name": 0.2, "last_name": 0.4}
        matcher = RecordMatcher(exact, weights)
        left = {"first_name": "JOSE", "midl_name": "JUAN", "last_name": "GARCIA"}
        right = {"first_name": "JUAN", "midl_name": "JOSE", "last_name": "GARCIA"}
        assert matcher.similarity(left, right) == 1.0

    def test_permutation_disabled_penalises_confusion(self):
        weights = {"first_name": 0.4, "midl_name": 0.2, "last_name": 0.4}
        matcher = RecordMatcher(exact, weights, name_attributes=())
        left = {"first_name": "JOSE", "midl_name": "JUAN", "last_name": "GARCIA"}
        right = {"first_name": "JUAN", "midl_name": "JOSE", "last_name": "GARCIA"}
        assert matcher.similarity(left, right) == pytest.approx(0.4)

    def test_name_attributes_outside_weights_ignored(self):
        matcher = RecordMatcher(exact, {"a": 1.0}, name_attributes=("first_name",))
        assert matcher.name_attributes == ()

    def test_missing_values_compared_as_empty(self):
        matcher = RecordMatcher(exact, {"a": 1.0}, name_attributes=())
        assert matcher.similarity({}, {}) == 1.0
        assert matcher.similarity({"a": "X"}, {}) == 0.0

    def test_values_trimmed_before_comparison(self):
        matcher = RecordMatcher(exact, {"a": 1.0}, name_attributes=())
        assert matcher.similarity({"a": " X "}, {"a": "X"}) == 1.0

    def test_from_records_entropy_weighting(self):
        records = [{"id": str(i), "const": "K"} for i in range(10)]
        matcher = RecordMatcher.from_records(records, ("id", "const"), exact, ())
        # zero-entropy attribute carries no weight
        left = dict(records[0])
        right = dict(records[0], const="DIFFERENT")
        assert matcher.similarity(left, right) == 1.0

    def test_works_with_measure_objects(self):
        matcher = RecordMatcher(MongeElkan(), {"name": 1.0}, name_attributes=())
        score = matcher.similarity({"name": "JOSE JUAN"}, {"name": "JUAN JOSE"})
        assert score == 1.0

    def test_works_with_plain_functions(self):
        matcher = RecordMatcher(jaro_winkler, {"name": 1.0}, name_attributes=())
        assert matcher.similarity({"name": "MARTHA"}, {"name": "MARHTA"}) == (
            pytest.approx(0.9611, abs=1e-4)
        )

    def test_result_cached_across_calls(self):
        # Within one prepared table, a value pair reaches the measure once,
        # in canonical order, whichever side each value sits on.
        calls = []

        def counting(left, right):
            calls.append((left, right))
            return 0.5

        matcher = RecordMatcher(counting, {"a": 1.0}, name_attributes=())
        prepared = matcher.prepare([{"a": "X"}, {"a": "Y"}, {"a": "X"}])
        assert prepared.pair_similarity(0, 1) == 0.5
        assert prepared.pair_similarity(1, 2) == 0.5  # symmetric -> memoised
        assert calls == [("X", "Y")]

    def test_memo_lives_for_one_scoring_call(self):
        # Every score_candidates_packed call prepares its own table, so
        # scoring the same keys twice reaches the measure equally often.
        calls = []

        def counting(left, right):
            calls.append((left, right))
            return 0.25

        records = [{"a": "X"}, {"a": "Y"}, {"a": "Z"}]
        matcher = RecordMatcher(counting, {"a": 1.0}, name_attributes=())
        keys = pack_pairs([(0, 1), (0, 2), (1, 2)], len(records))
        first = score_candidates_packed(records, keys, matcher)
        first_calls = len(calls)
        second = score_candidates_packed(records, keys, matcher)
        assert first == second
        assert first_calls == 3
        assert len(calls) == 2 * first_calls

    def test_empty_weights_rejected(self):
        with pytest.raises(ValueError):
            RecordMatcher(exact, {})

    def test_callable_interface(self):
        matcher = RecordMatcher(exact, {"a": 1.0}, name_attributes=())
        assert matcher({"a": "X"}, {"a": "X"}) == 1.0
