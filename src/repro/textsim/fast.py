"""Fast similarity kernels — the hot path behind :mod:`repro.textsim`.

The enrichment stage scores every record pair of every cluster, which calls
the Damerau-Levenshtein and Monge-Elkan measures millions of times at full
scale.  This module keeps those calls cheap while staying **bit-identical**
to the naive reference implementations in :mod:`repro.textsim._reference`
(property-tested in ``tests/textsim/test_fast_equivalence.py``):

* :func:`levenshtein_distance` / :func:`damerau_levenshtein_distance` —
  common-prefix/suffix stripping, single-row (resp. rolling-row) DP over the
  shorter remaining string, and cheap length-based short circuits;
* :func:`levenshtein_within` / :func:`damerau_levenshtein_within` — banded
  (Ukkonen) variants for callers that only need "distance ≤ k?", with
  early exit as soon as a whole band row exceeds the threshold;
* :func:`tokens_of` + :func:`monge_elkan_tokens` — token interning and a
  bounded shared LRU over token-pair similarities for the Monge-Elkan
  measures (voter attribute values repeat heavily, so the same token pairs
  recur across millions of record pairs);
* :func:`qgram_set` + :func:`jaccard_qgrams` — memoised q-gram sets and a
  count prefilter (:func:`jaccard_qgrams_at_least`) that rejects pairs from
  set sizes alone before any intersection is built.

The public wrappers in :mod:`repro.textsim.levenshtein`,
:mod:`repro.textsim.monge_elkan` and :mod:`repro.textsim.jaccard` delegate
here, so every existing caller speeds up without code changes.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Tuple

from repro.textsim.base import normalize_for_comparison
from repro.textsim.tokens import qgrams, tokenize


def _strip_common_affixes(left: str, right: str) -> Tuple[str, str]:
    """Drop the common prefix and suffix of both strings.

    Safe for Levenshtein and for the restricted Damerau-Levenshtein (OSA)
    distance: an optimal alignment never needs to transpose across an equal
    boundary character (transposing two equal characters is a no-op), so
    matching equal prefix/suffix characters 1:1 is always optimal.
    """
    limit = min(len(left), len(right))
    start = 0
    while start < limit and left[start] == right[start]:
        start += 1
    end_left, end_right = len(left), len(right)
    while end_left > start and end_right > start and left[end_left - 1] == right[end_right - 1]:
        end_left -= 1
        end_right -= 1
    return left[start:end_left], right[start:end_right]


def levenshtein_distance(left: str, right: str) -> int:
    """Levenshtein distance; bit-identical to the naive DP, much faster."""
    if left == right:
        return 0
    left, right = _strip_common_affixes(left, right)
    if not left:
        return len(right)
    if not right:
        return len(left)
    if len(right) > len(left):  # keep the inner row short (symmetric measure)
        left, right = right, left
    previous = list(range(len(right) + 1))
    for i, ch_left in enumerate(left, start=1):
        diagonal = previous[0]
        previous[0] = i
        for j, ch_right in enumerate(right, start=1):
            substitution = diagonal if ch_left == ch_right else diagonal + 1
            diagonal = previous[j]
            best = diagonal + 1  # deletion
            insertion = previous[j - 1] + 1
            if insertion < best:
                best = insertion
            if substitution < best:
                best = substitution
            previous[j] = best
    return previous[-1]


def damerau_levenshtein_distance(left: str, right: str) -> int:
    """Restricted Damerau-Levenshtein (OSA) distance, fast path."""
    if left == right:
        return 0
    left, right = _strip_common_affixes(left, right)
    if not left:
        return len(right)
    if not right:
        return len(left)
    if len(right) > len(left):  # OSA is symmetric — shorten the inner row
        left, right = right, left
    len_r = len(right)
    two_ago: Optional[list] = None
    one_ago = list(range(len_r + 1))
    for i in range(1, len(left) + 1):
        ch_left = left[i - 1]
        current = [i] + [0] * len_r
        for j in range(1, len_r + 1):
            ch_right = right[j - 1]
            best = one_ago[j - 1] if ch_left == ch_right else one_ago[j - 1] + 1
            deletion = one_ago[j] + 1
            if deletion < best:
                best = deletion
            insertion = current[j - 1] + 1
            if insertion < best:
                best = insertion
            if (
                i > 1
                and j > 1
                and ch_left == right[j - 2]
                and left[i - 2] == ch_right
            ):
                transposition = two_ago[j - 2] + 1  # type: ignore[index]
                if transposition < best:
                    best = transposition
            current[j] = best
        two_ago, one_ago = one_ago, current
    return one_ago[-1]


def levenshtein_within(left: str, right: str, max_dist: int) -> Optional[int]:
    """Levenshtein distance if it is ``<= max_dist``, else ``None``.

    A banded (Ukkonen) DP: only cells with ``|i - j| <= max_dist`` are
    evaluated, and the scan aborts as soon as a whole band row exceeds the
    threshold.  The returned distance (when not ``None``) is exact.
    """
    return _banded_distance(left, right, max_dist, transpositions=False)


def damerau_levenshtein_within(left: str, right: str, max_dist: int) -> Optional[int]:
    """Restricted Damerau-Levenshtein distance if ``<= max_dist``, else ``None``."""
    return _banded_distance(left, right, max_dist, transpositions=True)


def _banded_distance(
    left: str, right: str, max_dist: int, transpositions: bool
) -> Optional[int]:
    if max_dist < 0:
        raise ValueError(f"max_dist must be >= 0, got {max_dist}")
    if left == right:
        return 0
    if max_dist == 0:
        return None
    left, right = _strip_common_affixes(left, right)
    if len(right) > len(left):
        left, right = right, left
    len_l, len_r = len(left), len(right)
    if len_l - len_r > max_dist:
        return None
    if not len_r:
        return len_l  # 0 < len_l <= max_dist after the length prefilter
    big = max_dist + 1
    two_ago: Optional[list] = None
    one_ago = list(range(len_r + 1))
    for i in range(1, len_l + 1):
        ch_left = left[i - 1]
        lo = i - max_dist
        if lo < 1:
            lo = 1
        hi = i + max_dist
        if hi > len_r:
            hi = len_r
        current = [big] * (len_r + 1)
        if i <= max_dist:
            current[0] = i
        row_min = big
        for j in range(lo, hi + 1):
            ch_right = right[j - 1]
            best = one_ago[j - 1] if ch_left == ch_right else one_ago[j - 1] + 1
            deletion = one_ago[j] + 1
            if deletion < best:
                best = deletion
            insertion = current[j - 1] + 1
            if insertion < best:
                best = insertion
            if (
                transpositions
                and i > 1
                and j > 1
                and ch_left == right[j - 2]
                and left[i - 2] == ch_right
            ):
                transposition = two_ago[j - 2] + 1  # type: ignore[index]
                if transposition < best:
                    best = transposition
            current[j] = best
            if best < row_min:
                row_min = best
        if row_min > max_dist:
            return None
        two_ago, one_ago = one_ago, current
    result = one_ago[len_r]
    return result if result <= max_dist else None


# --------------------------------------------------------------- Monge-Elkan


def intern_values(values: Iterable[str]) -> Tuple[str, ...]:
    """Intern a sequence of attribute values into a tuple.

    Prepared record vectors (:meth:`repro.dedup.matching.RecordMatcher.prepare`)
    hold millions of heavily repeated strings; interning collapses them to
    one object per distinct value, so the ``left == right`` short-circuits
    and value-pair memo lookups in the pair-scoring hot loop resolve by
    pointer identity instead of character comparison, and the vectors cost
    one pointer per slot instead of one string copy.
    """
    return tuple(sys.intern(value) for value in values)


@lru_cache(maxsize=131072)
def tokens_of(value: str) -> Tuple[str, ...]:
    """Whitespace tokens of ``value``, interned and cached.

    Interning makes the token-pair cache keys compare by pointer in the
    common case; the LRU bound keeps memory flat on unbounded value streams.
    """
    return tuple(sys.intern(token) for token in tokenize(value))


@lru_cache(maxsize=262144)
def _token_pair_dl_similarity(left: str, right: str) -> float:
    """Damerau-Levenshtein similarity of a canonically ordered token pair.

    Same formula as ``damerau_levenshtein_similarity`` (tokens are already
    normalized strings), so the cached value is bit-identical.
    """
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    return 1.0 - damerau_levenshtein_distance(left, right) / longest


def monge_elkan_tokens(
    tokens_left: Sequence[str], tokens_right: Sequence[str]
) -> float:
    """One-directional Monge-Elkan over token sequences (DL internal measure).

    Accumulates in the same order as the reference implementation, so the
    result is bit-identical; the per-token maxima come from the shared
    token-pair LRU and short-circuit on exact token matches.
    """
    if not tokens_left and not tokens_right:
        return 1.0
    if not tokens_left or not tokens_right:
        return 0.0
    total = 0.0
    for token_a in tokens_left:
        best = 0.0
        for token_b in tokens_right:
            if token_a == token_b:
                best = 1.0
                break
            if token_a < token_b:
                score = _token_pair_dl_similarity(token_a, token_b)
            else:
                score = _token_pair_dl_similarity(token_b, token_a)
            if score > best:
                best = score
                if best == 1.0:
                    break
        total += best
    return total / len(tokens_left)


def symmetric_monge_elkan_cached(left: str, right: str) -> float:
    """Symmetrised Monge-Elkan with the DL internal measure, fully cached."""
    tokens_left = tokens_of(normalize_for_comparison(left))
    tokens_right = tokens_of(normalize_for_comparison(right))
    forward = monge_elkan_tokens(tokens_left, tokens_right)
    backward = monge_elkan_tokens(tokens_right, tokens_left)
    return (forward + backward) / 2.0


# ------------------------------------------------------------------- Jaccard


@lru_cache(maxsize=131072)
def qgram_set(value: str, q: int = 3, pad: bool = True) -> frozenset:
    """The (cached) set of q-grams of a normalized value."""
    return frozenset(qgrams(value, q, pad))


def jaccard_qgrams(left: str, right: str, q: int = 3, pad: bool = True) -> float:
    """Exact q-gram Jaccard similarity via cached gram sets."""
    left = normalize_for_comparison(left)
    right = normalize_for_comparison(right)
    if left == right:
        return 1.0  # identical values: empty == empty scores 1 by convention
    grams_left = qgram_set(left, q, pad)
    grams_right = qgram_set(right, q, pad)
    if not grams_left and not grams_right:
        return 1.0
    if not grams_left or not grams_right:
        return 0.0
    intersection = len(grams_left & grams_right)
    union = len(grams_left) + len(grams_right) - intersection
    return intersection / union


def jaccard_qgrams_at_least(
    left: str, right: str, threshold: float, q: int = 3, pad: bool = True
) -> Optional[float]:
    """The exact q-gram Jaccard similarity if it reaches ``threshold``.

    Returns ``None`` when the similarity is provably or actually below the
    threshold.  The prefilter uses gram-set sizes only: the intersection is
    at most the smaller set and the union at least the larger, so
    ``min(|L|, |R|) / max(|L|, |R|)`` bounds the similarity from above and
    most non-matching pairs are rejected without building an intersection.
    """
    left = normalize_for_comparison(left)
    right = normalize_for_comparison(right)
    if left == right:
        return 1.0 if 1.0 >= threshold else None
    grams_left = qgram_set(left, q, pad)
    grams_right = qgram_set(right, q, pad)
    if not grams_left and not grams_right:
        return 1.0 if 1.0 >= threshold else None
    if not grams_left or not grams_right:
        return 0.0 if 0.0 >= threshold else None
    smaller, larger = len(grams_left), len(grams_right)
    if smaller > larger:
        smaller, larger = larger, smaller
    if smaller / larger < threshold:  # count prefilter: upper bound too low
        return None
    intersection = len(grams_left & grams_right)
    union = len(grams_left) + len(grams_right) - intersection
    similarity = intersection / union
    return similarity if similarity >= threshold else None


def clear_caches() -> None:
    """Reset every shared kernel cache (benchmark fairness, test isolation)."""
    tokens_of.cache_clear()
    _token_pair_dl_similarity.cache_clear()
    qgram_set.cache_clear()
