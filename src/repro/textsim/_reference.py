"""Naive reference implementations of the string kernels (the oracle).

These are the original, straightforward dynamic-programming, window-loop
and set-arithmetic implementations that :mod:`repro.textsim.fast` replaces
on the hot path with bit-parallel recurrences.  They stay in-tree for two
reasons:

* the property test suite asserts that every fast kernel is **bit-identical**
  to its reference (``tests/textsim/test_fast_equivalence.py``);
* the scoring benchmark (``benchmarks/scoring_bench.py``) measures the fast
  path's speedup against them.

Nothing outside tests and benchmarks should import this module — the public
functions in :mod:`repro.textsim.levenshtein`, :mod:`repro.textsim.jaro`,
:mod:`repro.textsim.monge_elkan` and :mod:`repro.textsim.jaccard` are the
supported API and are exactly as accurate, only faster.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.textsim.base import normalize_for_comparison
from repro.textsim.tokens import qgrams, tokenize

SimilarityFn = Callable[[str, str], float]


def levenshtein_distance(left: str, right: str) -> int:
    """Classic Levenshtein edit distance (insert / delete / substitute)."""
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    previous = list(range(len(right) + 1))
    for i, ch_left in enumerate(left, start=1):
        current = [i]
        for j, ch_right in enumerate(right, start=1):
            cost = 0 if ch_left == ch_right else 1
            current.append(
                min(
                    previous[j] + 1,  # deletion
                    current[j - 1] + 1,  # insertion
                    previous[j - 1] + cost,  # substitution
                )
            )
        previous = current
    return previous[-1]


def damerau_levenshtein_distance(left: str, right: str) -> int:
    """Restricted Damerau-Levenshtein (optimal string alignment) distance."""
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    len_l, len_r = len(left), len(right)
    # Three rolling rows are enough because transpositions look back two rows.
    two_ago = [0] * (len_r + 1)
    one_ago = list(range(len_r + 1))
    for i in range(1, len_l + 1):
        current = [i] + [0] * len_r
        for j in range(1, len_r + 1):
            cost = 0 if left[i - 1] == right[j - 1] else 1
            best = min(
                one_ago[j] + 1,  # deletion
                current[j - 1] + 1,  # insertion
                one_ago[j - 1] + cost,  # substitution
            )
            if (
                i > 1
                and j > 1
                and left[i - 1] == right[j - 2]
                and left[i - 2] == right[j - 1]
            ):
                best = min(best, two_ago[j - 2] + 1)  # transposition
            current[j] = best
        two_ago, one_ago = one_ago, current
    return one_ago[-1]


def jaro_similarity(left: str, right: str) -> float:
    """Jaro similarity with the classic matching-window loop.

    Matches are characters equal within a window of
    ``max(len(l), len(r)) // 2 - 1`` positions; each left character takes
    the first unmatched equal right character in its window.
    Transpositions are matched characters in different relative order.
    """
    left = normalize_for_comparison(left)
    right = normalize_for_comparison(right)
    if left == right:
        return 1.0
    len_l, len_r = len(left), len(right)
    if len_l == 0 or len_r == 0:
        return 0.0
    window = max(len_l, len_r) // 2 - 1
    if window < 0:
        window = 0
    left_matched = [False] * len_l
    right_matched = [False] * len_r
    matches = 0
    for i, ch in enumerate(left):
        start = max(0, i - window)
        end = min(i + window + 1, len_r)
        for j in range(start, end):
            if right_matched[j] or right[j] != ch:
                continue
            left_matched[i] = True
            right_matched[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(len_l):
        if not left_matched[i]:
            continue
        while not right_matched[j]:
            j += 1
        if left[i] != right[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    return (
        matches / len_l + matches / len_r + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler(
    left: str, right: str, prefix_weight: float = 0.1, max_prefix: int = 4
) -> float:
    """Jaro-Winkler similarity: Jaro boosted by a shared prefix."""
    left = normalize_for_comparison(left)
    right = normalize_for_comparison(right)
    jaro = jaro_similarity(left, right)
    prefix = 0
    for ch_left, ch_right in zip(left[:max_prefix], right[:max_prefix]):
        if ch_left != ch_right:
            break
        prefix += 1
    return jaro + prefix * prefix_weight * (1.0 - jaro)


def damerau_levenshtein_similarity(left: str, right: str) -> float:
    """Normalised Damerau-Levenshtein similarity in ``[0, 1]``."""
    left = normalize_for_comparison(left)
    right = normalize_for_comparison(right)
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    return 1.0 - damerau_levenshtein_distance(left, right) / longest


def extended_damerau_levenshtein_similarity(left: str, right: str) -> float:
    """The paper's extended Damerau-Levenshtein similarity (Section 6.2)."""
    left = normalize_for_comparison(left)
    right = normalize_for_comparison(right)
    if not left or not right:
        return 1.0
    if left.startswith(right) or right.startswith(left):
        return 1.0
    return damerau_levenshtein_similarity(left, right)


def monge_elkan(
    left: str,
    right: str,
    token_similarity: SimilarityFn = damerau_levenshtein_similarity,
    tokens_left: Optional[Sequence[str]] = None,
    tokens_right: Optional[Sequence[str]] = None,
) -> float:
    """One-directional Monge-Elkan similarity (left against right)."""
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
    forward = monge_elkan(left, right, token_similarity)
    backward = monge_elkan(right, left, token_similarity)
    return (forward + backward) / 2.0


def _jaccard(left_set: set, right_set: set) -> float:
    if not left_set and not right_set:
        return 1.0
    if not left_set or not right_set:
        return 0.0
    intersection = len(left_set & right_set)
    union = len(left_set | right_set)
    return intersection / union


def jaccard_qgrams(left: str, right: str, q: int = 3, pad: bool = True) -> float:
    """Jaccard similarity of the ``q``-gram sets of both values."""
    left = normalize_for_comparison(left)
    right = normalize_for_comparison(right)
    return _jaccard(set(qgrams(left, q, pad)), set(qgrams(right, q, pad)))


def four_way_similarity(left: str, right: str) -> float:
    """Uncached four-way value similarity (heterogeneity, Section 6.3)."""
    if left == right:
        return 1.0
    if left > right:  # symmetric measure — canonicalise like the fast path
        left, right = right, left
    scores = (
        damerau_levenshtein_similarity(left, right),
        damerau_levenshtein_similarity(left.lower(), right.lower()),
        symmetric_monge_elkan(left, right),
        symmetric_monge_elkan(left.lower(), right.lower()),
    )
    return sum(scores) / 4.0
