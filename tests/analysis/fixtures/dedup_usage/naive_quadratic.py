"""Fixture: quadratic / window-bound candidate shapes the I408 hint flags.

Never imported or executed — ``tests/analysis/test_dedup_usage.py`` parses
this file and asserts exact codes and locations.  Each function below is a
call shape that is *correct* but stops scaling on large registers, where
the MinHash-LSH pass generates candidates sub-quadratically.
"""

from itertools import combinations

from repro.dedup import (
    pack_pairs,
    score_candidates_packed,
    sorted_neighborhood_candidates,
)


def allpairs_bare(records, matcher):
    """O(n^2) pair universe straight into the scorer."""
    pairs = combinations(range(len(records)), 2)
    return score_candidates_packed(records, pairs, matcher)


def allpairs_packed(records, matcher):
    """Packing the O(n^2) universe does not make it smaller."""
    keys = pack_pairs(combinations(range(len(records)), 2), len(records))
    return score_candidates_packed(records, keys, matcher)


def snm_only(records, matcher):
    """A lone fixed-window SNM pass feeding the packed scorer."""
    keys, _stats = sorted_neighborhood_candidates(records, ("last_name",), 20)
    return score_candidates_packed(records, keys, matcher)
