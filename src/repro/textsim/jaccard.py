"""Jaccard similarity over token sets and q-gram sets."""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.textsim import fast
from repro.textsim.base import SimilarityMeasure, normalize_for_comparison
from repro.textsim.tokens import tokenize


def _jaccard(left_set: set, right_set: set) -> float:
    if not left_set and not right_set:
        return 1.0
    if not left_set or not right_set:
        return 0.0
    intersection = len(left_set & right_set)
    union = len(left_set | right_set)
    return intersection / union


def jaccard_tokens(left: str, right: str, lowercase: bool = False) -> float:
    """Jaccard similarity of the whitespace token sets of both values."""
    left = normalize_for_comparison(left)
    right = normalize_for_comparison(right)
    return _jaccard(set(tokenize(left, lowercase)), set(tokenize(right, lowercase)))


def jaccard_qgrams(left: str, right: str, q: int = 3, pad: bool = True) -> float:
    """Jaccard similarity of the ``q``-gram sets of both values.

    ``q=3`` with padding is the trigram Jaccard used in the evaluation of
    Section 6.5.  Gram sets are memoised per value in a bounded cache
    (:mod:`repro.textsim.fast`); the result is bit-identical to building the
    sets from scratch.
    """
    return fast.jaccard_qgrams(left, right, q, pad)


def jaccard_qgrams_at_least(
    left: str, right: str, threshold: float, q: int = 3, pad: bool = True
) -> Optional[float]:
    """The exact q-gram Jaccard similarity if it reaches ``threshold``.

    Returns ``None`` otherwise.  A gram-count prefilter rejects most
    below-threshold pairs from set sizes alone — useful for blocking-style
    callers that only keep candidates above a similarity floor.
    """
    return fast.jaccard_qgrams_at_least(left, right, threshold, q, pad)


class TokenJaccard(SimilarityMeasure):
    """Token-set Jaccard as a measure object."""

    name = "token_jaccard"

    def __init__(self, lowercase: bool = False) -> None:
        self.lowercase = lowercase

    def similarity(self, left: str, right: str) -> float:
        """Jaccard similarity in [0, 1]."""
        return jaccard_tokens(left, right, self.lowercase)


class QgramJaccard(SimilarityMeasure):
    """q-gram Jaccard as a measure object (default: padded trigrams)."""

    name = "qgram_jaccard"

    def __init__(self, q: int = 3, pad: bool = True) -> None:
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        self.q = q
        self.pad = pad

    def similarity(self, left: str, right: str) -> float:
        """Jaccard similarity in [0, 1]."""
        return jaccard_qgrams(left, right, self.q, self.pad)

    def similarities(self, lefts: Sequence[str], rights: Sequence[str]) -> List[float]:
        """q-gram Jaccard of every pair, one gram set per distinct value."""
        return fast.jaccard_qgram_similarities(lefts, rights, self.q, self.pad)

    def table_similarities(
        self, values: Sequence[str], lows: Any, highs: Any
    ) -> Sequence[float]:
        """q-gram Jaccard of every id pair of a value table, the ids handed
        straight to :func:`repro.textsim.fast.jaccard_qgram_table`."""
        return fast.jaccard_qgram_table(values, lows, highs, self.q, self.pad)
