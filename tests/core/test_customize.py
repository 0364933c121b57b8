"""Tests for the NC1/NC2/NC3 customisation procedure (Section 6.5)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TestDataGenerator, customize
from repro.core._reference import customize_reference, pair_heterogeneity_reference
from repro.core.clusters import record_view
from repro.core.customize import reduce_cluster
from repro.core.heterogeneity import HeterogeneityScorer
from repro.docstore import Database
from repro.votersim.schema import PERSON_ATTRIBUTES


@pytest.fixture(scope="module")
def scorer(generator):
    return HeterogeneityScorer.from_clusters(
        generator.clusters(),
        ("person",),
        tuple(a for a in PERSON_ATTRIBUTES if a != "ncid"),
    )


class TestReduceCluster:
    def test_first_record_always_kept(self):
        scorer = HeterogeneityScorer({"a": 1.0})
        flats = [{"a": "X"}]
        assert reduce_cluster(flats, scorer, 0.2, 0.4) == [0]

    def test_identical_records_rejected_when_minimum_positive(self):
        scorer = HeterogeneityScorer({"a": 1.0})
        flats = [{"a": "X"}, {"a": "X"}, {"a": "X"}]
        assert reduce_cluster(flats, scorer, 0.1, 0.5) == [0]

    def test_identical_records_kept_when_zero_allowed(self):
        scorer = HeterogeneityScorer({"a": 1.0})
        flats = [{"a": "X"}, {"a": "X"}]
        assert reduce_cluster(flats, scorer, 0.0, 0.5) == [0, 1]

    def test_record_must_fit_all_preceding_kept(self):
        scorer = HeterogeneityScorer({"a": 1.0})
        flats = [{"a": "AAAA"}, {"a": "AAAB"}, {"a": "ZZZZ"}]
        kept = reduce_cluster(flats, scorer, 0.0, 0.5)
        assert kept == [0, 1]  # ZZZZ too heterogeneous to AAAA


class TestCustomize:
    def test_result_respects_target_clusters(self, generator, scorer):
        result = customize(generator, 0.0, 1.0, target_clusters=20, scorer=scorer)
        assert result.cluster_count <= 20

    def test_largest_clusters_selected(self, generator, scorer):
        result = customize(generator, 0.0, 1.0, target_clusters=10, scorer=scorer)
        assert result.avg_cluster_size >= 2

    def test_gold_pairs_consistent_with_clusters(self, generator, scorer):
        result = customize(generator, 0.0, 1.0, target_clusters=10, scorer=scorer)
        for i, j in result.gold_pairs:
            assert result.cluster_of[i] == result.cluster_of[j]
            assert i < j

    def test_all_clusters_meet_min_size(self, generator, scorer):
        result = customize(generator, 0.2, 0.6, target_clusters=50, scorer=scorer)
        for size in result.cluster_sizes().values():
            assert size >= 2

    def test_heterogeneity_increases_with_range(self, generator, scorer):
        clean = customize(generator, 0.0, 0.2, target_clusters=50, scorer=scorer, name="NC1")
        dirty = customize(generator, 0.4, 1.0, target_clusters=50, scorer=scorer, name="NC3")
        avg_clean, _ = clean.heterogeneity_stats(scorer)
        avg_dirty, _ = dirty.heterogeneity_stats(scorer)
        assert avg_dirty > avg_clean

    def test_kept_pairwise_heterogeneity_within_bounds_for_pairs(self, generator, scorer):
        # For clusters reduced to exactly two records, the pair score must
        # lie inside the requested range by construction.
        result = customize(generator, 0.2, 0.5, target_clusters=100, scorer=scorer)
        by_cluster = {}
        for record, ncid in zip(result.records, result.cluster_of):
            by_cluster.setdefault(ncid, []).append(record)
        checked = 0
        for records in by_cluster.values():
            if len(records) == 2:
                score = scorer.pair_heterogeneity(records[0], records[1])
                assert 0.2 <= score <= 0.5 + 1e-9
                checked += 1
        assert checked > 0

    def test_sampling_bounds_input(self, generator, scorer):
        result = customize(
            generator, 0.0, 1.0, target_clusters=1000, sample_clusters=10, scorer=scorer
        )
        assert result.cluster_count <= 10

    def test_deterministic_given_seed(self, generator, scorer):
        first = customize(generator, 0.1, 0.6, target_clusters=30, scorer=scorer, seed=5)
        second = customize(generator, 0.1, 0.6, target_clusters=30, scorer=scorer, seed=5)
        assert first.records == second.records
        assert first.gold_pairs == second.gold_pairs

    def test_invalid_range_rejected(self, generator, scorer):
        with pytest.raises(ValueError):
            customize(generator, 0.6, 0.2, scorer=scorer)
        with pytest.raises(ValueError):
            customize(generator, -0.1, 0.5, scorer=scorer)
        with pytest.raises(ValueError):
            customize(generator, 0.0, 1.0, target_clusters=0, scorer=scorer)

    def test_records_restricted_to_person_attributes(self, generator, scorer):
        result = customize(generator, 0.0, 1.0, target_clusters=5, scorer=scorer)
        person_set = set(PERSON_ATTRIBUTES)
        for record in result.records[:20]:
            assert set(record) <= person_set


class TestDefaultScorer:
    """``scorer=None`` weights what the stored person scores weight: the
    first record of every cluster, without the id attribute."""

    @pytest.mark.parametrize("h_lo, h_hi", [(0.0, 0.2), (0.2, 0.4), (0.4, 1.0)])
    @pytest.mark.parametrize("sample", [None, 40])
    def test_default_cut_equals_explicit_scorer_cut(
        self, generator, scorer, h_lo, h_hi, sample
    ):
        options = dict(target_clusters=1000, sample_clusters=sample, seed=3)
        default = customize(generator, h_lo, h_hi, **options)
        explicit = customize(generator, h_lo, h_hi, scorer=scorer, **options)
        assert default.records == explicit.records
        assert default.cluster_of == explicit.cluster_of


PERSON = ("last_name", "first_name", "res_city_desc")
DISTRICT = ("county_desc", "precinct_desc")
store_values = st.sampled_from(
    ["SMITH", "SMYTH", "Smith", "smith", "JONES", "JO NES", " SMITH ", "", "A"]
)
store_records = st.fixed_dictionaries(
    {
        "person": st.dictionaries(st.sampled_from(PERSON), store_values),
        "district": st.dictionaries(st.sampled_from(DISTRICT), store_values),
    }
)
store_clusters = st.lists(
    st.lists(store_records, min_size=1, max_size=5), min_size=1, max_size=8
)


def _store_generator(clusters):
    """A generator over a store holding ``clusters``; reads are views."""
    database = Database("customize-oracle")
    database["clusters"].insert_many(
        [
            {"_id": f"N{index:03d}", "ncid": f"N{index:03d}", "records": records}
            for index, records in enumerate(clusters)
        ]
    )
    return TestDataGenerator.from_database(database)


class TestReferenceScan:
    """``customize`` equals the naive scan of ``core/_reference.py``."""

    @given(store_clusters, st.data())
    @settings(max_examples=60, deadline=None)
    def test_customize_equals_reference(self, clusters, data):
        generator = _store_generator(clusters)
        groups = data.draw(st.sampled_from([("person",), ("person", "district")]))
        attributes = PERSON + (DISTRICT if len(groups) == 2 else ())
        raw = data.draw(
            st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
                     min_size=len(attributes), max_size=len(attributes))
        )
        if not sum(raw):
            raw[0] = 1.0
        weights = {a: w / sum(raw) for a, w in zip(attributes, raw)}
        # Bounds may sit exactly on a pair score: the range is inclusive.
        scores = [
            pair_heterogeneity_reference(weights, *pair)
            for cluster in generator.clusters()
            for pair in itertools.combinations(
                [record_view(record, groups) for record in cluster["records"]], 2
            )
        ]
        bound = st.sampled_from([0.0, 1.0] + [x for x in scores if x <= 1.0])
        h_lo, h_hi = sorted([data.draw(bound), data.draw(bound)])
        options = dict(
            target_clusters=data.draw(st.integers(1, 10)),
            sample_clusters=data.draw(st.one_of(st.none(), st.integers(1, 8))),
            groups=groups,
            seed=data.draw(st.integers(0, 3)),
            min_cluster_size=data.draw(st.integers(1, 3)),
        )
        result = customize(
            generator, h_lo, h_hi, scorer=HeterogeneityScorer(weights), **options
        )
        records, cluster_of = customize_reference(
            list(generator.clusters()), weights, h_lo, h_hi, **options
        )
        assert result.records == records
        assert result.cluster_of == cluster_of
        assert result.gold_pairs == {
            (i, j)
            for j in range(len(cluster_of))
            for i in range(j)
            if cluster_of[i] == cluster_of[j]
        }
