"""Jaro and Jaro-Winkler similarity (the paper's sequential baseline)."""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.textsim import fast
from repro.textsim.base import SimilarityMeasure, normalize_for_comparison


def jaro_similarity(left: str, right: str) -> float:
    """Jaro similarity in ``[0, 1]``.

    Matches are characters equal within a window of
    ``max(len(l), len(r)) // 2 - 1`` positions; transpositions are matched
    characters in different relative order.  Computed by the bit-parallel
    kernel :func:`repro.textsim.fast.jaro_similarity`, bit-identical to the
    window loop in :mod:`repro.textsim._reference`.
    """
    return fast.jaro_similarity(
        normalize_for_comparison(left), normalize_for_comparison(right)
    )


def jaro_winkler(left: str, right: str, prefix_weight: float = 0.1, max_prefix: int = 4) -> float:
    """Jaro-Winkler similarity: Jaro boosted by a shared prefix.

    ``prefix_weight`` must not exceed ``1 / max_prefix`` or the result could
    leave ``[0, 1]``.
    """
    if prefix_weight * max_prefix > 1.0:
        raise ValueError(
            f"prefix_weight * max_prefix must be <= 1, got {prefix_weight * max_prefix}"
        )
    left = normalize_for_comparison(left)
    right = normalize_for_comparison(right)
    jaro = fast.jaro_similarity(left, right)
    prefix = fast.common_prefix_length(left, right, max_prefix)
    return jaro + prefix * prefix_weight * (1.0 - jaro)


class JaroWinkler(SimilarityMeasure):
    """Jaro-Winkler similarity as a measure object."""

    name = "jaro_winkler"

    def __init__(self, prefix_weight: float = 0.1, max_prefix: int = 4) -> None:
        if prefix_weight * max_prefix > 1.0:
            raise ValueError(
                f"prefix_weight * max_prefix must be <= 1, got {prefix_weight * max_prefix}"
            )
        self.prefix_weight = prefix_weight
        self.max_prefix = max_prefix

    def similarity(self, left: str, right: str) -> float:
        """Jaro-Winkler similarity in [0, 1]."""
        return jaro_winkler(left, right, self.prefix_weight, self.max_prefix)

    def similarities(self, lefts: Sequence[str], rights: Sequence[str]) -> List[float]:
        """Jaro-Winkler of every pair through the ``uint64`` lane kernel."""
        return fast.jaro_winkler_similarities(
            lefts, rights, self.prefix_weight, self.max_prefix
        )

    def table_similarities(
        self, values: Sequence[str], lows: Any, highs: Any
    ) -> Sequence[float]:
        """Jaro-Winkler of every id pair of a value table, the ids handed
        straight to the lane kernel :func:`repro.textsim.fast.jaro_winkler_table`."""
        return fast.jaro_winkler_table(
            values, lows, highs, self.prefix_weight, self.max_prefix
        )
