"""Monge-Elkan similarity — the paper's cheaper hybrid measure.

Monge-Elkan averages, over the tokens of the first value, the best internal
similarity against any token of the second value:

``ME(A, B) = (1 / |A|) * sum_{a in A} max_{b in B} sim(a, b)``

It is asymmetric, so the paper computes it in both directions and averages
(footnote 13).  It replaces the Generalized Jaccard coefficient in the
heterogeneity computation because the latter is too expensive across all 90
attributes (Section 6.3).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.textsim import fast
from repro.textsim.base import SimilarityMeasure, normalize_for_comparison
from repro.textsim.levenshtein import damerau_levenshtein_similarity
from repro.textsim.tokens import tokenize

SimilarityFn = Callable[[str, str], float]


def monge_elkan(
    left: str,
    right: str,
    token_similarity: SimilarityFn = damerau_levenshtein_similarity,
    tokens_left: Optional[Sequence[str]] = None,
    tokens_right: Optional[Sequence[str]] = None,
) -> float:
    """One-directional Monge-Elkan similarity (left against right).

    With the default Damerau-Levenshtein token measure the computation runs
    through the interned-token fast path and its shared bounded LRU of
    token-pair similarities (:mod:`repro.textsim.fast`) — bit-identical to
    the naive evaluation, dramatically cheaper on repetitive value streams.
    """
    if token_similarity is damerau_levenshtein_similarity:
        if tokens_left is None:
            interned_left = fast.tokens_of(normalize_for_comparison(left))
        else:
            interned_left = tuple(t for t in tokens_left if t)
        if tokens_right is None:
            interned_right = fast.tokens_of(normalize_for_comparison(right))
        else:
            interned_right = tuple(t for t in tokens_right if t)
        return fast.monge_elkan_tokens(interned_left, interned_right)
    if tokens_left is None:
        tokens_left = tokenize(normalize_for_comparison(left))
    if tokens_right is None:
        tokens_right = tokenize(normalize_for_comparison(right))
    tokens_left = [t for t in tokens_left if t]
    tokens_right = [t for t in tokens_right if t]
    if not tokens_left and not tokens_right:
        return 1.0
    if not tokens_left or not tokens_right:
        return 0.0
    total = 0.0
    for token_a in tokens_left:
        total += max(token_similarity(token_a, token_b) for token_b in tokens_right)
    return total / len(tokens_left)


def symmetric_monge_elkan(
    left: str,
    right: str,
    token_similarity: SimilarityFn = damerau_levenshtein_similarity,
) -> float:
    """Monge-Elkan averaged over both directions (the paper's variant)."""
    if token_similarity is damerau_levenshtein_similarity:
        return fast.symmetric_monge_elkan_cached(left, right)
    forward = monge_elkan(left, right, token_similarity)
    backward = monge_elkan(right, left, token_similarity)
    return (forward + backward) / 2.0


class MongeElkan(SimilarityMeasure):
    """Symmetrised Monge-Elkan as a measure object.

    The default internal measure is Damerau-Levenshtein similarity, matching
    the ME/Lev combination used for heterogeneity scores and as one of the
    three evaluation measures (Sections 6.3 and 6.5).
    """

    name = "monge_elkan"

    def __init__(
        self,
        token_similarity: SimilarityFn = damerau_levenshtein_similarity,
        symmetric: bool = True,
    ) -> None:
        self.token_similarity = token_similarity
        self.symmetric = symmetric

    def similarity(self, left: str, right: str) -> float:
        """Monge-Elkan similarity in [0, 1]."""
        if self.symmetric:
            return symmetric_monge_elkan(left, right, self.token_similarity)
        return monge_elkan(left, right, self.token_similarity)

    def similarities(self, lefts: Sequence[str], rights: Sequence[str]) -> List[float]:
        """Monge-Elkan of every pair.

        The paper's symmetric ME/Lev runs through the batch kernel
        :func:`repro.textsim.fast.monge_elkan_similarities`; any other
        configuration loops over :meth:`similarity`.
        """
        if self._lanes:
            return fast.monge_elkan_similarities(lefts, rights)
        return super().similarities(lefts, rights)

    def table_similarities(
        self, values: Sequence[str], lows: Any, highs: Any
    ) -> Sequence[float]:
        """Monge-Elkan of every id pair of a value table.

        The paper's symmetric ME/Lev hands the ids straight to
        :func:`repro.textsim.fast.monge_elkan_table`, the core of
        :meth:`similarities`; any other configuration builds the strings.
        """
        if self._lanes:
            return fast.monge_elkan_table(values, lows, highs)
        return super().table_similarities(values, lows, highs)

    @property
    def _lanes(self) -> bool:
        """Whether the batch kernels apply: symmetric ME with DL tokens."""
        return self.symmetric and self.token_similarity is damerau_levenshtein_similarity
