"""The detection pipeline must be *bit-identical* to the naive oracle.

:mod:`repro.dedup.pipeline` keeps a naive oracle next to it
(:mod:`repro.dedup._reference`) precisely so this suite can assert exact
equality — not approximate — for every optimised stage:

* packed-key SNM candidate generation against the eager tuple-set
  oracle;
* the prepared-table matcher (the batch and the one-pair ``similarity``)
  against the historical per-pair accumulation, for every measure: the
  batch kernels of ME, Jaro-Winkler and q-gram Jaccard and the default
  per-pair loop;
* sharded parallel scoring and the end-to-end ``DetectionPipeline``
  against the oracle and the single-process sweep, for worker counts
  0 / 1 / 4.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dedup import _reference as ref
from repro.dedup import (
    MAX_PACKABLE_RECORDS,
    DetectionPipeline,
    PairKeyOverflowError,
    RecordMatcher,
    evaluate_thresholds,
    pack_pair,
    pack_pairs,
    score_candidates_packed,
    sorted_neighborhood_candidates,
    unpack_pair,
    unpack_pairs,
)
from repro.textsim import JaroWinkler, MongeElkan, QgramJaccard, jaro_winkler
from repro.textsim import _reference as tref

ATTRIBUTES = ("first_name", "midl_name", "last_name", "city", "zip")
NAME_ATTRIBUTES = ("first_name", "midl_name", "last_name")

# Tiny alphabets force equal values, shared sort keys and window overlaps
# far more often than realistic text would.
value = st.text(alphabet=string.ascii_uppercase[:4] + " ", max_size=6)
record = st.fixed_dictionaries({attribute: value for attribute in ATTRIBUTES})
records_strategy = st.lists(record, min_size=1, max_size=24)
window = st.integers(min_value=2, max_value=8)
weight = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
weights_strategy = st.fixed_dictionaries(
    {attribute: weight for attribute in ATTRIBUTES}
)


def exact(left, right):
    return 1.0 if left == right else 0.0


class TestPackedKeys:
    @given(st.integers(2, 10_000))
    @settings(max_examples=100)
    def test_roundtrip(self, count):
        import random

        rng = random.Random(count)
        right = rng.randrange(1, count)
        left = rng.randrange(0, right)
        key = pack_pair(left, right, count)
        assert unpack_pair(key, count) == (left, right)

    def test_rejects_unordered_pairs(self):
        with pytest.raises(ValueError):
            pack_pair(3, 3, 10)
        with pytest.raises(ValueError):
            pack_pair(5, 2, 10)
        with pytest.raises(ValueError):
            pack_pair(0, 10, 10)

    def test_pack_unpack_sets(self):
        pairs = {(0, 1), (2, 5), (1, 9)}
        assert unpack_pairs(pack_pairs(pairs, 10), 10) == pairs

    def test_pack_at_max_packable_records_roundtrips(self):
        # The largest register whose worst-case key (n-2)*n + (n-1) still
        # fits a signed 64-bit integer must keep working exactly.
        count = MAX_PACKABLE_RECORDS
        key = pack_pair(count - 2, count - 1, count)
        assert key == (count - 2) * count + (count - 1)
        assert key < 2**63
        assert unpack_pair(key, count) == (count - 2, count - 1)

    def test_pack_overflow_raises_typed_error(self):
        count = MAX_PACKABLE_RECORDS + 1
        with pytest.raises(PairKeyOverflowError) as excinfo:
            pack_pair(0, 1, count)
        assert excinfo.value.record_count == count
        assert str(MAX_PACKABLE_RECORDS) in str(excinfo.value)
        # the typed error is still a ValueError, so legacy handlers keep
        # catching it
        assert isinstance(excinfo.value, ValueError)
        with pytest.raises(PairKeyOverflowError):
            unpack_pair(0, count)

    def test_unpack_rejects_out_of_range_keys(self):
        with pytest.raises(ValueError):
            unpack_pair(-1, 10)
        with pytest.raises(ValueError):
            unpack_pair(100, 10)  # == count * count
        # the set form validates every key the same way
        with pytest.raises(ValueError):
            unpack_pairs({-1}, 10)
        with pytest.raises(ValueError):
            unpack_pairs({1, 100}, 10)
        # largest valid key for count=10 decodes fine
        assert unpack_pair(8 * 10 + 9, 10) == (8, 9)
        assert unpack_pairs({8 * 10 + 9}, 10) == {(8, 9)}


class TestCandidateEquivalence:
    @given(records_strategy, window, st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_snm_packed_equals_tuple_oracle(self, records, window, passes):
        keys = ATTRIBUTES[:passes]
        oracle = ref.multipass_pairs_reference(records, keys, window)
        packed, stats = sorted_neighborhood_candidates(records, keys, window)
        assert packed == pack_pairs(oracle, len(records))
        assert stats.unique_pairs == len(oracle)


class TestMatcherEquivalence:
    @given(records_strategy, weights_strategy)
    @settings(max_examples=60, deadline=None)
    def test_similarity_matches_historical_reference(self, records, weights):
        if sum(weights.values()) == 0:
            weights["city"] = 1.0
        matcher = RecordMatcher(exact, weights, NAME_ATTRIBUTES)
        left, right = records[0], records[-1]
        expected = ref.record_similarity_reference(
            exact, weights, left, right, NAME_ATTRIBUTES
        )
        assert matcher.similarity(left, right) == expected

    @given(records_strategy, weights_strategy)
    @settings(max_examples=60, deadline=None)
    def test_prepared_batch_matches_per_pair(self, records, weights):
        # The whole batch against the per-pair oracle, float for float.
        if sum(weights.values()) == 0:
            weights["zip"] = 1.0
        matcher = RecordMatcher(exact, weights, NAME_ATTRIBUTES)
        count = len(records)
        pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
        batch = matcher.prepare(records).score(pack_pairs(pairs, count))
        assert batch == ref.score_candidates_reference(
            records, pairs, exact, weights, NAME_ATTRIBUTES
        )
        assert list(batch) == pairs

    @pytest.mark.parametrize(
        "measure, oracle",
        [
            (MongeElkan(), tref.symmetric_monge_elkan),
            (JaroWinkler(), tref.jaro_winkler),
            (QgramJaccard(), tref.jaccard_qgrams),
            # Neither is a batch kernel: both go through the default loop.
            (MongeElkan(symmetric=False), tref.monge_elkan),
            (jaro_winkler, tref.jaro_winkler),
        ],
        ids=["monge_elkan", "jaro_winkler", "qgram_jaccard", "asymmetric_me", "plain_function"],
    )
    @given(records=records_strategy, weights=weights_strategy)
    @settings(max_examples=40, deadline=None)
    def test_every_measure_batch_matches_naive_kernels(
        self, measure, oracle, records, weights
    ):
        if sum(weights.values()) == 0:
            weights["city"] = 1.0
        matcher = RecordMatcher(measure, weights, NAME_ATTRIBUTES)
        count = len(records)
        pairs = [(i, j) for i in range(count) for j in range(i + 1, count)]
        batch = score_candidates_packed(records, pack_pairs(pairs, count), matcher)
        assert batch == ref.score_candidates_reference(
            records, pairs, oracle, weights, NAME_ATTRIBUTES
        )

    @pytest.mark.parametrize(
        "measure, oracle",
        [
            (JaroWinkler(), tref.jaro_winkler),
            (QgramJaccard(), tref.jaccard_qgrams),
            (MongeElkan(symmetric=False), tref.monge_elkan),
            (jaro_winkler, tref.jaro_winkler),
        ],
        ids=["jaro_winkler", "qgram_jaccard", "asymmetric_me", "plain_function"],
    )
    def test_measures_match_naive_kernel_reference(self, small_dataset, measure, oracle):
        records, _gold = small_dataset
        matcher = RecordMatcher.from_records(records, ATTRIBUTES, measure, NAME_ATTRIBUTES)
        packed, _stats = sorted_neighborhood_candidates(records, ATTRIBUTES[:3], 4)
        assert score_candidates_packed(records, packed, matcher) == (
            ref.score_candidates_reference(
                records,
                unpack_pairs(packed, len(records)),
                oracle,
                matcher.weights,
                NAME_ATTRIBUTES,
            )
        )

    def test_monge_elkan_matches_naive_kernel_reference(self, small_dataset):
        records, _gold = small_dataset
        matcher = RecordMatcher.from_records(
            records, ATTRIBUTES, MongeElkan(), NAME_ATTRIBUTES
        )
        packed, _stats = sorted_neighborhood_candidates(
            records, ATTRIBUTES[:3], 4
        )
        fast_scores = score_candidates_packed(records, packed, matcher)
        oracle = ref.score_candidates_reference(
            records,
            unpack_pairs(packed, len(records)),
            tref.symmetric_monge_elkan,
            matcher.weights,
            NAME_ATTRIBUTES,
        )
        assert fast_scores == oracle

    def test_zero_total_weight_scores_zero(self):
        matcher = RecordMatcher(exact, {"city": 0.0}, name_attributes=())
        assert matcher.similarity({"city": "A"}, {"city": "A"}) == 0.0
        prepared = matcher.prepare([{"city": "A"}, {"city": "A"}])
        assert prepared.score((1,)) == {(0, 1): 0.0}


@pytest.fixture(scope="module")
def small_dataset():
    """A deterministic register-ish dataset with confusable names."""
    import random

    rng = random.Random(20210323)
    first = ["JOHN", "JON", "JANE", "JAN", "JUAN", "JOSE", ""]
    last = ["SMITH", "SMYTH", "GARCIA", "GARCIA-LOPEZ", "DOE", "ROE"]
    records = []
    gold = set()
    for cluster in range(18):
        size = rng.choice([1, 1, 2, 3])
        base = {
            "first_name": rng.choice(first),
            "midl_name": rng.choice(first),
            "last_name": rng.choice(last),
            "city": rng.choice(["RALEIGH", "DURHAM", "CARY"]),
            "zip": str(27600 + rng.randrange(6)),
        }
        members = []
        for _ in range(size):
            duplicate = dict(base)
            if rng.random() < 0.5:  # typo / confusion
                duplicate["first_name"], duplicate["midl_name"] = (
                    duplicate["midl_name"],
                    duplicate["first_name"],
                )
            members.append(len(records))
            records.append(duplicate)
        for j in range(1, len(members)):
            for i in range(j):
                gold.add((members[i], members[j]))
    return records, gold


class TestDeterminismAcrossWorkers:
    def test_workers_0_1_4_bit_identical(self, small_dataset):
        records, gold = small_dataset
        results = {}
        for workers in (0, 1, 4):
            pipeline = DetectionPipeline(
                window=4,
                passes=3,
                workers=workers,
                shards=max(workers, 1),
            )
            matcher = RecordMatcher.from_records(
                records, ATTRIBUTES, MongeElkan(), NAME_ATTRIBUTES
            )
            results[workers] = pipeline.detect(records, ATTRIBUTES, matcher, gold)
        baseline = results[0]
        for workers in (1, 4):
            result = results[workers]
            assert result.candidate_keys == baseline.candidate_keys
            assert result.similarities == baseline.similarities
            assert result.points == baseline.points
            assert result.best == baseline.best

    def test_shard_counts_bit_identical(self, small_dataset):
        records, _gold = small_dataset
        matcher = RecordMatcher.from_records(
            records, ATTRIBUTES, MongeElkan(), NAME_ATTRIBUTES
        )
        packed, _stats = sorted_neighborhood_candidates(records, ATTRIBUTES[:3], 4)
        baseline = score_candidates_packed(records, packed, matcher)
        for shards in (2, 3, 7):
            sharded = score_candidates_packed(
                records, packed, matcher, shards=shards, max_workers=2
            )
            assert sharded == baseline


class TestEndToEndEquivalence:
    def test_pipeline_equals_naive_path(self, small_dataset):
        records, gold = small_dataset
        thresholds = [t / 20 for t in range(4, 20)]

        # the oracle, end to end
        naive_candidates = ref.multipass_pairs_reference(
            records, ATTRIBUTES[:3], 4
        )
        matcher = RecordMatcher.from_records(
            records, ATTRIBUTES, MongeElkan(), NAME_ATTRIBUTES
        )
        naive_scores = ref.score_candidates_reference(
            records,
            naive_candidates,
            tref.symmetric_monge_elkan,
            matcher.weights,
            NAME_ATTRIBUTES,
        )
        naive_points = evaluate_thresholds(naive_scores, gold, thresholds)

        pipeline = DetectionPipeline(
            window=4, passes=3, key_attributes=ATTRIBUTES[:3],
            thresholds=thresholds,
        )
        result = pipeline.detect(records, ATTRIBUTES, matcher, gold)

        assert result.candidate_keys == pack_pairs(naive_candidates, len(records))
        assert result.similarities == naive_scores
        assert result.points == naive_points
        assert result.best == max(
            naive_points, key=lambda point: (point.f1, -point.threshold)
        )
        assert result.gold_size == len(gold)
        assert result.gold_missed == len(gold - naive_candidates)

    def test_gold_pairs_in_either_order_count_alike(self, small_dataset):
        records, gold = small_dataset
        pipeline = DetectionPipeline(window=4, passes=3, key_attributes=ATTRIBUTES[:3])
        matcher = RecordMatcher.from_records(
            records, ATTRIBUTES, MongeElkan(), NAME_ATTRIBUTES
        )
        canonical = pipeline.detect(records, ATTRIBUTES, matcher, gold)
        reversed_gold = {(right, left) for left, right in gold}
        flipped = pipeline.detect(records, ATTRIBUTES, matcher, reversed_gold)
        assert flipped.points == canonical.points
        assert flipped.gold_missed == canonical.gold_missed
        assert flipped.gold_size == canonical.gold_size == len(gold)

    def test_reversed_gold_pair_is_a_true_positive(self):
        # Four records, candidates {(0, 1), (1, 2), (2, 3)} = keys {1, 6, 11}.
        records = [{"city": value} for value in ("A", "A", "B", "B")]
        matcher = RecordMatcher(exact, {"city": 1.0}, name_attributes=())
        pipeline = DetectionPipeline(window=2, key_attributes=("city",), thresholds=(0.5,))
        result = pipeline.detect(records, ["city"], matcher, {(1, 0)})
        assert result.candidate_keys == {1, 6, 11}
        assert result.gold_missed == 0
        (point,) = result.points
        assert (point.true_positives, point.false_positives) == (1, 1)

    def test_out_of_range_gold_pair_is_rejected(self):
        # (0, 6) would pack to key 6 with raw ``left * n + right``: the
        # candidate (1, 2).  Record 6 does not exist, so it is an error,
        # not a found duplicate.
        records = [{"city": value} for value in ("A", "A", "B", "B")]
        matcher = RecordMatcher(exact, {"city": 1.0}, name_attributes=())
        pipeline = DetectionPipeline(window=2, key_attributes=("city",))
        with pytest.raises(ValueError):
            pipeline.detect(records, ["city"], matcher, {(0, 6)})

    @pytest.mark.parametrize("pair", [(2, 2), (-1, 2), (0, 4), (5, 1)])
    def test_detect_rejects_invalid_gold_pairs(self, pair):
        records = [{"city": value} for value in ("A", "A", "B", "B")]
        matcher = RecordMatcher(exact, {"city": 1.0}, name_attributes=())
        pipeline = DetectionPipeline(window=2, key_attributes=("city",))
        with pytest.raises(ValueError):
            pipeline.detect(records, ["city"], matcher, {(0, 1), pair})

    def test_pipeline_validates_parameters(self):
        with pytest.raises(ValueError):
            DetectionPipeline(window=1)
        with pytest.raises(ValueError):
            DetectionPipeline(passes=0)
        with pytest.raises(ValueError):
            DetectionPipeline(workers=-1)
        with pytest.raises(ValueError, match="shards must be >= 1, got 0"):
            DetectionPipeline(shards=0)
        with pytest.raises(ValueError):
            score_candidates_packed([], set(), RecordMatcher(exact, {"a": 1.0}), shards=0)
