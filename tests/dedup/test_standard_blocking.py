"""Tests for standard (key-based) blocking, streamed as packed pair keys."""

import pytest

from repro.dedup import StandardBlocking, blocking_candidates, unpack_pairs
from repro.dedup.pipeline import CandidateStats, PassStats, iter_blocking_keys
from repro.textsim import soundex


RECORDS = [
    {"last_name": "SMITH", "zip": "27601"},   # 0
    {"last_name": "SMYTH", "zip": "28801"},   # 1 (same soundex as SMITH)
    {"last_name": "JONES", "zip": "27601"},   # 2
    {"last_name": "JONES", "zip": "28801"},   # 3
    {"last_name": "", "zip": "27601"},        # 4 (empty key)
]


def block_pairs(records, blockers):
    """Multi-pass blocking candidates as ``(i, j)`` tuples plus stats."""
    keys, stats = blocking_candidates(records, blockers)
    return unpack_pairs(keys, len(records)), stats


def candidates(records, blocker):
    """One blocking pass as ``(i, j)`` tuples."""
    return block_pairs(records, [blocker])[0]


class TestStandardBlocking:
    def test_equal_keys_blocked(self):
        pairs = candidates(RECORDS, StandardBlocking.on_attribute("last_name"))
        assert (2, 3) in pairs
        assert (0, 1) not in pairs  # SMITH != SMYTH literally

    def test_transform_applied(self):
        blocker = StandardBlocking.on_attribute("last_name", transform=soundex)
        assert (0, 1) in candidates(RECORDS, blocker)  # same soundex code

    def test_empty_keys_never_block(self):
        pairs = candidates(RECORDS, StandardBlocking.on_attribute("last_name"))
        assert all(4 not in pair for pair in pairs)

    def test_pairs_normalised(self):
        count = len(RECORDS)
        keys = iter_blocking_keys(RECORDS, StandardBlocking.on_attribute("zip"))
        assert all(left < right for left, right in (divmod(k, count) for k in keys))

    def test_oversized_blocks_skipped(self):
        many = [{"k": "SAME"} for _ in range(10)]
        small = StandardBlocking.on_attribute("k", max_block_size=5)
        assert candidates(many, small) == set()
        large = StandardBlocking.on_attribute("k", max_block_size=50)
        assert len(candidates(many, large)) == 45

    def test_custom_key_function(self):
        blocker = StandardBlocking(
            lambda record: (record.get("zip") or "")[:3]
        )
        pairs = candidates(RECORDS, blocker)
        assert (0, 2) in pairs  # zip prefix 276
        assert (1, 3) in pairs  # zip prefix 288

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            StandardBlocking(lambda record: "x", max_block_size=1)


class TestBlockingStats:
    def test_blocks_enumerated(self):
        blocker = StandardBlocking.on_attribute("zip")
        blocks = blocker.blocks(RECORDS)
        assert blocks == {"27601": [0, 2, 4], "28801": [1, 3]}

    def test_skipped_blocks_counted(self):
        many = [{"k": "SAME"} for _ in range(10)] + [{"k": "A"}, {"k": "A"}]
        blocker = StandardBlocking.on_attribute("k", max_block_size=5)
        stats = PassStats(label="k")
        keys = set(iter_blocking_keys(many, blocker, stats))
        assert unpack_pairs(keys, len(many)) == {(10, 11)}
        assert stats.blocks_skipped == 1
        assert stats.pairs_emitted == 1
        assert stats.pairs_dropped == 10 * 9 // 2

    def test_no_skips_means_zero_dropped(self):
        pairs, stats = block_pairs(RECORDS, [StandardBlocking.on_attribute("zip")])
        assert stats.passes[0].blocks_skipped == 0
        assert stats.pairs_dropped == 0
        assert stats.pairs_emitted == len(pairs)

    def test_combinations_match_historical_loop(self):
        # The k(k-1)/2 combinations of a block, all normalised i < j.
        many = [{"k": "SAME"} for _ in range(8)]
        pairs = candidates(many, StandardBlocking.on_attribute("k"))
        assert pairs == {(i, j) for i in range(8) for j in range(i + 1, 8)}

    def test_merge_accumulates(self):
        stats = CandidateStats(
            record_count=10,
            passes=[PassStats("a", 1, 1, 1, 10), PassStats("b", 6, 5, 0, 0)],
        )
        assert stats.pairs_emitted == 7
        assert stats.unique_pairs == 6
        assert stats.pairs_dropped == 10

    def test_multipass_stats_merged(self):
        many = [{"a": "SAME", "b": str(i)} for i in range(10)]
        capped = StandardBlocking.on_attribute("a", max_block_size=5)
        unique = StandardBlocking.on_attribute("b")
        pairs, stats = block_pairs(many, [capped, unique])
        assert pairs == set()
        assert [p.blocks_skipped for p in stats.passes] == [1, 0]
        assert stats.pairs_dropped == 45


class TestMultipassBlocking:
    def test_union_of_passes(self):
        by_name = StandardBlocking.on_attribute("last_name", transform=soundex)
        by_zip = StandardBlocking.on_attribute("zip")
        union, stats = block_pairs(RECORDS, [by_name, by_zip])
        assert union == candidates(RECORDS, by_name) | candidates(RECORDS, by_zip)
        assert stats.unique_pairs == len(union)

    def test_no_blockers(self):
        pairs, stats = block_pairs(RECORDS, [])
        assert pairs == set()
        assert stats.passes == []
