"""Tests for the heterogeneity scoring (Section 6.3)."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.versioning as versioning
from repro.core import TestDataGenerator
from repro.core._reference import pair_heterogeneity_reference
from repro.core.heterogeneity import (
    HeterogeneityScorer,
    ValueCounts,
    _four_way_cached,
    entropy,
    entropy_weights,
    four_way_similarity,
)
from repro.core.parallel import import_snapshots_parallel
from repro.core.repair import apply_repair, split_cluster
from repro.core.versioning import UpdateProcess
from repro.docstore import DurableDatabase
from repro.textsim import _reference as textref
from repro.votersim.schema import empty_record
from repro.votersim.snapshots import Snapshot


class TestEntropy:
    def test_uniform_distribution(self):
        assert entropy(["a", "b", "c", "d"]) == pytest.approx(2.0)

    def test_constant_distribution(self):
        assert entropy(["x"] * 10) == 0.0

    def test_empty(self):
        assert entropy([]) == 0.0

    def test_skewed_less_than_uniform(self):
        skewed = entropy(["a"] * 9 + ["b"])
        uniform = entropy(["a"] * 5 + ["b"] * 5)
        assert skewed < uniform


class TestEntropyWeights:
    def test_normalised(self):
        records = [
            {"unique": str(i), "constant": "X"} for i in range(10)
        ]
        weights = entropy_weights(records, ("unique", "constant"))
        assert sum(weights.values()) == pytest.approx(1.0)
        assert weights["unique"] == pytest.approx(1.0)
        assert weights["constant"] == 0.0

    def test_all_constant_falls_back_to_uniform(self):
        records = [{"a": "X", "b": "Y"}] * 5
        weights = entropy_weights(records, ("a", "b"))
        assert weights == {"a": 0.5, "b": 0.5}

    def test_missing_values_counted_as_empty(self):
        records = [{"a": "X"}, {}]
        weights = entropy_weights(records, ("a",))
        assert weights["a"] == 1.0


class TestFourWaySimilarity:
    def test_identical(self):
        assert four_way_similarity("SMITH", "SMITH") == 1.0

    def test_case_difference_weighs_half(self):
        # lowercased comparisons are perfect, cased ones are not
        score = four_way_similarity("SMITH", "smith")
        assert 0.5 <= score < 1.0

    def test_token_confusion_weighs_half(self):
        # Monge-Elkan forgives the order, Damerau-Levenshtein does not
        score = four_way_similarity("JOSE JUAN", "JUAN JOSE")
        assert 0.5 < score < 1.0

    def test_unrelated_values_low(self):
        assert four_way_similarity("AAAA", "ZZZZ") < 0.3

    def test_symmetric(self):
        assert four_way_similarity("ABC", "ABD") == four_way_similarity("ABD", "ABC")


#: Cased and uncased letters, digits, punctuation and whitespace, plus
#: characters whose lowercase merges with another character ("K", the
#: Kelvin sign, lowercases to "k"), changes length ("İ") or depends on
#: context ("Σ" becomes "ς" at the end of a word).
CASE_ALPHABET = "AaBbKkIiSs09 -.'\t" + "İıßẞ\u212aΣσςﬁé"
case_values = st.text(alphabet=CASE_ALPHABET, max_size=8)


class TestFourWayOracle:
    """The four-way kernel equals the naive reference on any two values.

    Calls the kernel under its LRU, so no earlier test's cached score can
    stand in for a computation.
    """

    @given(case_values, case_values)
    @settings(max_examples=400, deadline=None)
    @example("\u212a", "K")
    @example("İ", "I")
    @example("İ", "i")
    @example("ẞ", "ß")
    @example("ΑΣ", "ας")
    @example("ﬁ", "FI")
    @example("SMITH", "smith")
    @example("JOSE JUAN", "JUAN JOSE")
    @example("Age 41 to 65", "41 - 65")
    def test_equals_reference(self, left, right):
        expected = textref.four_way_similarity(left, right)
        assert four_way_similarity(left, right) == expected
        if left != right:
            low, high = sorted((left, right))
            assert _four_way_cached.__wrapped__(low, high) == expected


flat_values = st.one_of(st.none(), st.text(alphabet="ABab -", max_size=5))
flat_records = st.dictionaries(st.sampled_from("wxyz"), flat_values, max_size=4)
weight_maps = st.dictionaries(
    st.sampled_from("vwxyz"),
    st.one_of(st.just(0.0), st.floats(0.0, 1.0, allow_nan=False)),
    min_size=1,
    max_size=5,
)


class TestPairOracle:
    @given(weight_maps, flat_records, flat_records)
    @settings(max_examples=300, deadline=None)
    def test_pair_heterogeneity_equals_reference(self, weights, left, right):
        scorer = HeterogeneityScorer(weights)
        expected = pair_heterogeneity_reference(weights, left, right)
        assert scorer.pair_heterogeneity(left, right) == expected
        assert scorer.row_heterogeneity(
            scorer.value_row(left), scorer.value_row(right), {}
        ) == expected


class TestHeterogeneityScorer:
    def scorer(self):
        return HeterogeneityScorer({"a": 0.5, "b": 0.3, "c": 0.2})

    def test_identical_records_zero(self):
        scorer = self.scorer()
        record = {"a": "X", "b": "Y", "c": "Z"}
        assert scorer.pair_heterogeneity(record, record) == 0.0

    def test_single_attribute_difference_bounded_by_weight(self):
        scorer = self.scorer()
        left = {"a": "X", "b": "Y", "c": "Z"}
        right = {"a": "COMPLETELY-DIFFERENT", "b": "Y", "c": "Z"}
        score = scorer.pair_heterogeneity(left, right)
        assert 0.0 < score <= 0.5

    def test_empty_vs_value_costs_full_weight(self):
        scorer = self.scorer()
        left = {"a": "", "b": "Y", "c": "Z"}
        right = {"a": "XXXX", "b": "Y", "c": "Z"}
        assert scorer.pair_heterogeneity(left, right) == pytest.approx(0.5)

    def test_cluster_heterogeneity_of_identical_records(self):
        scorer = self.scorer()
        records = [{"a": "X"}] * 3
        assert scorer.cluster_heterogeneity(records) == 0.0

    def test_singleton_cluster(self):
        scorer = self.scorer()
        assert scorer.cluster_heterogeneity([{"a": "X"}]) == 0.0
        assert scorer.record_heterogeneities([{"a": "X"}]) == [0.0]

    def test_cluster_average_equals_pair_average_for_two(self):
        scorer = self.scorer()
        records = [{"a": "X", "b": "Y"}, {"a": "Q", "b": "Y"}]
        pair = scorer.pair_heterogeneity(records[0], records[1])
        assert scorer.cluster_heterogeneity(records) == pytest.approx(pair)

    def test_pair_heterogeneities_count(self):
        scorer = self.scorer()
        records = [{"a": str(i)} for i in range(4)]
        assert len(scorer.pair_heterogeneities(records)) == 6

    def test_empty_weights_rejected(self):
        with pytest.raises(ValueError):
            HeterogeneityScorer({})

    def test_from_records_learns_entropy_weights(self):
        records = [{"id": str(i), "const": "K"} for i in range(8)]
        scorer = HeterogeneityScorer.from_records(records, ("id", "const"))
        left = dict(records[0])
        right = dict(records[0], const="OTHER")
        # 'const' has zero entropy -> differences there are free
        assert scorer.pair_heterogeneity(left, right) == 0.0

    def test_from_clusters_uses_one_record_per_cluster(self):
        clusters = [
            {"records": [
                {"person": {"x": "A"}},
                {"person": {"x": "B"}},  # duplicate variant must be ignored
            ]},
            {"records": [{"person": {"x": "A"}}]},
        ]
        scorer = HeterogeneityScorer.from_clusters(clusters, ("person",), ("x",))
        # representatives are A and A -> zero entropy -> uniform fallback
        assert scorer.weights["x"] == 1.0

    def test_score_cluster_document_maps(self):
        scorer = self.scorer()
        cluster = {
            "records": [
                {"person": {"a": "X"}, "first_version": 1},
                {"person": {"a": "X"}, "first_version": 1},
                {"person": {"a": "Y"}, "first_version": 2},
            ]
        }
        all_maps = scorer.score_cluster_document(cluster, ("person",))
        assert set(all_maps) == {1, 2}
        new_only = scorer.score_cluster_document(cluster, ("person",), version=2)
        assert set(new_only) == {2}
        assert set(new_only[2]) == {0, 1}


class TestValueCounts:
    RECORDS = [
        {"a": "X", "b": "1"},
        {"a": "Y"},
        {"a": "X", "c": " Z "},
        {"b": "2", "c": "Z"},
        {"a": "W", "c": "Q", "d": "K"},
    ]

    @pytest.mark.parametrize("attributes", [None, ("c", "a", "missing")])
    @pytest.mark.parametrize("split", [0, 1, 2, 4, 5])
    def test_batches_equal_one_pass(self, attributes, split):
        whole = ValueCounts(attributes)
        whole.add(self.RECORDS)
        batched = ValueCounts(attributes)
        batched.add(self.RECORDS[:split])
        batched.add(self.RECORDS[split:])
        assert list(batched.weights().items()) == list(whole.weights().items())
        assert list(whole.weights().items()) == list(
            entropy_weights(self.RECORDS, attributes or ("a", "b", "c", "d")).items()
        )

    def test_attribute_seen_late_counts_earlier_records_as_empty(self):
        counts = ValueCounts()
        counts.add([{"a": "X"}, {"a": "Y"}])
        counts.add([{"a": "X", "late": "V"}])
        weights = counts.weights()
        assert list(weights) == ["a", "late"]
        assert weights["late"] == pytest.approx(
            entropy(["", "", "V"]) / (entropy(["X", "Y", "X"]) + entropy(["", "", "V"]))
        )


def _primary_attributes(profile):
    return tuple(a for a in profile.primary_attributes() if a != profile.id_attribute)


@pytest.fixture
def weights_used(monkeypatch):
    """Per scoring call: the weights an update used and a full rebuild's.

    Wraps the scoring entry point the update process calls, so the rebuild
    sees exactly the clusters the update saw.  Recording starts once a
    generator is watched.
    """
    calls = []
    watched = []
    score = versioning.score_clusters_parallel

    def recording(clusters, version=None, **kwargs):
        for generator in watched:
            profile = generator.profile
            everything = list(generator.clusters())
            calls.append((
                kwargs["heterogeneity_all"].weights,
                kwargs["heterogeneity_primary"].weights,
                HeterogeneityScorer.from_clusters(
                    everything, profile.group_names,
                    profile.scored_attributes(profile.group_names),
                ).weights,
                HeterogeneityScorer.from_clusters(
                    everything, (profile.primary_group,), _primary_attributes(profile)
                ).weights,
            ))
        return score(clusters, version, **kwargs)

    monkeypatch.setattr(versioning, "score_clusters_parallel", recording)

    def watch(generator):
        watched.append(generator)
        return calls

    return watch


def assert_rebuilt(calls, expected_calls):
    """Same keys in the same order and ``==`` floats, at every update."""
    assert len(calls) == expected_calls
    for used_all, used_primary, rebuilt_all, rebuilt_primary in calls:
        assert list(used_all.items()) == list(rebuilt_all.items())
        assert list(used_primary.items()) == list(rebuilt_primary.items())


def _voter(ncid, snapshot_dt, **values):
    record = empty_record()
    record.update(
        ncid=ncid, last_name="SMITH", first_name="JOHN", age="40",
        snapshot_dt=snapshot_dt,
    )
    record.update(values)
    return record


class TestRunningCountsMatchFullRebuild:
    def test_every_version_of_an_incremental_run(self, snapshots, weights_used):
        generator = TestDataGenerator()
        calls = weights_used(generator)
        published = UpdateProcess(generator).run_incremental(snapshots)
        # Every version after the first adds a record to a stored cluster.
        assert_rebuilt(calls, len(published) - 1)

    def test_all_groups_attribute_first_seen_in_a_later_cluster(self, weights_used):
        generator = TestDataGenerator()
        calls = weights_used(generator)
        UpdateProcess(generator).run_incremental([
            Snapshot("2012-01-01", [
                _voter("AA1", "2012-01-01"), _voter("AA2", "2012-01-01", age="50"),
            ]),
            Snapshot("2013-01-01", [_voter("AA1", "2013-01-01", last_name="SMYTH")]),
            Snapshot("2014-01-01", [
                _voter("AA2", "2014-01-01", last_name="SMYTHE"),
                _voter("AA3", "2014-01-01", phone_num="5551234"),
            ]),
        ])
        # Version 1 has no record to compare with an earlier one: no scoring.
        assert_rebuilt(calls, 2)
        # split_record dropped the empty values: AA1 and AA2 count "", so
        # the attribute weighs nothing until AA3 brings a value.
        assert calls[0][0]["phone_num"] == 0.0
        assert calls[1][0]["phone_num"] > 0.0

    def test_all_group_weights_leave_out_the_id_attribute(self, snapshots, weights_used):
        generator = TestDataGenerator()
        calls = weights_used(generator)
        UpdateProcess(generator).run_incremental(snapshots[:3])
        assert calls
        for used_all, _, _, _ in calls:
            assert "ncid" not in used_all

    def test_single_cluster_takes_uniform_fallback(self, weights_used):
        generator = TestDataGenerator()
        calls = weights_used(generator)
        UpdateProcess(generator).run_incremental([
            Snapshot("2012-01-01", [_voter("AA1", "2012-01-01")]),
            Snapshot("2013-01-01", [_voter("AA1", "2013-01-01", last_name="SMYTH")]),
            Snapshot("2014-01-01", [_voter("AA1", "2014-01-01", last_name="SMYTHE")]),
        ])
        assert_rebuilt(calls, 2)
        for used_all, used_primary, _, _ in calls:
            assert len(set(used_all.values())) == 1
            assert set(used_primary.values()) == {1.0 / len(used_primary)}

    def test_resumed_generator(self, tmp_path, snapshots, weights_used):
        generator = TestDataGenerator.from_database(DurableDatabase(tmp_path))
        UpdateProcess(generator).run_incremental(snapshots[:4])
        generator.database.close()
        process = UpdateProcess.resume(tmp_path)
        calls = weights_used(process.generator)
        published = process.run_incremental(snapshots)
        assert_rebuilt(calls, len(published))
        assert published[0] == 5
        process.generator.database.close()

    def test_generator_filled_by_parallel_import(self, snapshots, weights_used):
        generator = TestDataGenerator()
        process = UpdateProcess(generator)
        calls = weights_used(generator)
        import_snapshots_parallel(generator, snapshots[:4], shards=3, max_workers=0)
        process.update_statistics()
        generator.publish()
        published = process.run_incremental(snapshots)
        assert_rebuilt(calls, 1 + len(published))

    def test_cluster_split_by_apply_repair_between_updates(self, snapshots, weights_used):
        generator = TestDataGenerator()
        process = UpdateProcess(generator)
        calls = weights_used(generator)
        process.run_incremental(snapshots[:6])
        split = next(
            (cluster, result)
            for cluster in generator.clusters()
            for result in [split_cluster(cluster, threshold=0.8)]
            if result.was_split
        )
        cluster, result = split
        stored = generator.database["clusters"]
        stored.delete_many({"_id": cluster["ncid"]})
        del generator._clusters[cluster["ncid"]]
        for sub in apply_repair(cluster, result):
            generator._clusters[sub["ncid"]] = sub
            stored.insert_one(sub)
        published = process.run_incremental(snapshots)
        assert_rebuilt(calls, 5 + len(published))  # version 1 scores nothing
