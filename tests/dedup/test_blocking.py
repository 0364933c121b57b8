"""Tests for Sorted Neighborhood blocking (streamed as packed pair keys)."""

import pytest

from repro.dedup import (
    pick_blocking_keys,
    sorted_neighborhood_candidates,
    unpack_pairs,
)
from repro.dedup.pipeline import CandidateStats, PassStats, iter_sorted_neighborhood_keys


RECORDS = [
    {"last_name": "ADAMS", "zip": "27601"},
    {"last_name": "ADAMSON", "zip": "27601"},
    {"last_name": "BAKER", "zip": "28801"},
    {"last_name": "BAKKER", "zip": "28801"},
    {"last_name": "YOUNG", "zip": "27601"},
]


def snm_pairs(records, key_attributes, window):
    """Multi-pass SNM candidates as ``(i, j)`` tuples."""
    keys, _stats = sorted_neighborhood_candidates(records, key_attributes, window)
    return unpack_pairs(keys, len(records))


class TestPickBlockingKeys:
    def test_most_unique_first(self):
        records = [{"id": str(i), "const": "X"} for i in range(10)]
        keys = pick_blocking_keys(records, ("const", "id"), count=1)
        assert keys == ["id"]

    def test_count_respected(self):
        keys = pick_blocking_keys(RECORDS, ("last_name", "zip"), count=2)
        assert len(keys) == 2

    def test_deterministic_tie_break(self):
        records = [{"a": str(i), "b": str(i)} for i in range(5)]
        assert pick_blocking_keys(records, ("b", "a"), count=1) == ["a"]

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            pick_blocking_keys(RECORDS, ("zip",), count=0)


class TestSortedNeighborhood:
    def test_window_two_links_sorted_neighbours(self):
        pairs = snm_pairs(RECORDS, ["last_name"], 2)
        assert (0, 1) in pairs  # ADAMS / ADAMSON adjacent
        assert (2, 3) in pairs  # BAKER / BAKKER adjacent
        assert (0, 4) not in pairs  # ADAMS / YOUNG far apart

    def test_pairs_normalised(self):
        count = len(RECORDS)
        keys = list(iter_sorted_neighborhood_keys(RECORDS, "last_name", 3))
        assert all(left < right for left, right in (divmod(k, count) for k in keys))

    def test_window_covers_everything_when_large(self):
        pairs = snm_pairs(RECORDS, ["last_name"], 50)
        assert len(pairs) == 10  # C(5, 2)

    def test_candidate_count_bounded_by_window(self):
        pairs = snm_pairs(RECORDS, ["last_name"], 2)
        assert len(pairs) <= len(RECORDS) * 1  # w-1 per record

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            sorted_neighborhood_candidates(RECORDS, ["x"], window=1)

    def test_empty_records(self):
        keys, stats = sorted_neighborhood_candidates([], ["x"], window=5)
        assert keys == set()
        assert stats.unique_pairs == 0


class TestMultipass:
    def test_union_of_passes(self):
        single_name = snm_pairs(RECORDS, ["last_name"], 2)
        single_zip = snm_pairs(RECORDS, ["zip"], 2)
        multi = snm_pairs(RECORDS, ["last_name", "zip"], 2)
        assert multi == single_name | single_zip

    def test_multipass_recovers_pairs_single_pass_misses(self):
        # ADAMS and YOUNG share a zip but sort far apart by name
        multi = snm_pairs(RECORDS, ["last_name", "zip"], 2)
        zip_sorted_only = snm_pairs(RECORDS, ["zip"], 2)
        name_sorted_only = snm_pairs(RECORDS, ["last_name"], 2)
        assert multi >= zip_sorted_only
        assert multi >= name_sorted_only

    def test_no_passes_yields_nothing(self):
        keys, stats = sorted_neighborhood_candidates(RECORDS, [], 5)
        assert keys == set()
        assert stats.passes == []


class TestCandidateStats:
    def test_merge_accumulates(self):
        stats = CandidateStats(
            record_count=10,
            passes=[PassStats("a", 1, 1, 10), PassStats("b", 6, 5, 0)],
        )
        assert stats.pairs_emitted == 7
        assert stats.unique_pairs == 6
        assert stats.pairs_dropped == 10
