"""Fast similarity kernels — the hot path behind :mod:`repro.textsim`.

The enrichment stage scores every record pair of every cluster, and the
Section 6.5 evaluation scores every candidate pair with Monge-Elkan,
Jaro-Winkler and q-gram Jaccard.  This module keeps those calls cheap while
staying **bit-identical** to the naive reference implementations in
:mod:`repro.textsim._reference` (property-tested in
``tests/textsim/test_fast_equivalence.py``).

The restricted Damerau-Levenshtein (OSA) distance and Jaro each have one
algorithm, a bit-parallel recurrence, in two evaluation strategies:

* **Scalar form on Python ints** — :func:`damerau_levenshtein_distance`
  runs Hyyrö's bit-vector OSA recurrence (Nordic J. Computing 10(1),
  2003) after common-prefix/suffix stripping; :func:`jaro_similarity`
  builds per-character match masks of the right value and gives each left
  character the lowest free set bit inside its window.  Any length works.
* **Lane form on numpy** ``uint64`` — :func:`damerau_levenshtein_distances`
  and :func:`jaro_similarities` run the same recurrences over a whole batch
  of string pairs at once, one pair per 64-bit lane.  Character codes and
  match masks are built once per *distinct* string of the batch.  Strings
  longer than :data:`LANE_WIDTH` characters take the scalar form.

Batch entry points for the paper's three evaluation measures sit on top:
:func:`monge_elkan_similarities` (each distinct value tokenised once, each
distinct token pair scored once through the OSA lanes, Monge-Elkan
assembled on token-id matrices), :func:`jaro_winkler_similarities` and
:func:`jaccard_qgram_similarities` (one gram set per distinct value).
Each of these entries numbers its values (:func:`_distinct_pairs`) and
calls one id core: :func:`monge_elkan_table`, :func:`jaro_winkler_table`
or :func:`jaccard_qgram_table`.  The record matcher, which numbers its
values already, calls those cores directly through
:meth:`repro.textsim.SimilarityMeasure.table_similarities`.
Value-pair and token-pair codes, and character codes, are deduplicated by
:func:`unique_inverse`: one ``ndarray.sort`` of packed value-and-position
keys.  numpy is imported inside these functions only, so importing
:mod:`repro.textsim` never loads it.

The other kernels serve scalar callers (heterogeneity and plausibility
scoring):

* :func:`levenshtein_distance` — affix stripping plus a single-row DP;
* :func:`levenshtein_within` / :func:`damerau_levenshtein_within` —
  banded (Ukkonen) variants for callers that only need "distance ≤ k?";
* :func:`tokens_of` + :func:`monge_elkan_tokens` — token interning and a
  bounded LRU over token-pair similarities;
* :func:`qgram_set` + :func:`jaccard_qgrams` — memoised q-gram sets and a
  count prefilter (:func:`jaccard_qgrams_at_least`).

The public wrappers in :mod:`repro.textsim.levenshtein`,
:mod:`repro.textsim.jaro`, :mod:`repro.textsim.monge_elkan` and
:mod:`repro.textsim.jaccard` delegate here.
"""

from __future__ import annotations

import itertools
import sys
from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.textsim.base import normalize_for_comparison
from repro.textsim.tokens import qgrams, tokenize

#: Longest string the ``uint64`` lane kernels take; a pair with a longer
#: side is scored by the scalar form.
LANE_WIDTH = 64


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


# ------------------------------------------------- OSA distance, scalar form


def damerau_levenshtein_distance(left: str, right: str) -> int:
    """Restricted Damerau-Levenshtein (OSA) distance, bit-parallel.

    Hyyrö's bit-vector recurrence over the longer string's match masks
    (``peq``), one column per character of the shorter string.  Bit ``i``
    of ``vp`` / ``vn`` says the DP cell of row ``i + 1`` is one more / one
    less than the cell above it; ``d0`` marks the diagonal zero-deltas,
    including those a transposition of the previous two characters
    allows.  The distance is tracked in the last row.
    """
    if left == right:
        return 0
    left, right = _strip_common_affixes(left, right)
    if not left:
        return len(right)
    if not right:
        return len(left)
    if len(right) > len(left):  # OSA is symmetric — iterate the shorter one
        left, right = right, left
    peq: Dict[str, int] = {}
    bit = 1
    for ch in left:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    full = bit - 1
    top = bit >> 1
    vp = full
    vn = 0
    d0 = 0
    pm_old = 0
    distance = len(left)
    for ch in right:
        pm = peq.get(ch, 0)
        d0 = (((pm & vp) + vp) ^ vp) | pm | vn | (((~d0 & pm) << 1) & pm_old)
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        if hp & top:
            distance += 1
        elif hn & top:
            distance -= 1
        hp = (hp << 1) | 1
        vp = ((hn << 1) | ~(d0 | hp)) & full
        vn = hp & d0
        pm_old = pm
    return distance


# ------------------------------------------------------ Jaro, scalar form


def jaro_similarity(left: str, right: str) -> float:
    """Jaro similarity of two normalized strings, bit-parallel.

    ``masks[ch]`` has bit ``j`` set where ``right[j] == ch``; ``free``
    holds the right positions not matched yet.  Each left character takes
    the lowest free set bit inside its window — exactly the reference
    loop's "first unmatched equal character".  Transpositions pair the
    k-th matched character on each side.

    The shorter string is read character by character.  The greedy
    matching pairs the same positions whichever string is read: per
    character, both orders build the leftmost maximum non-crossing
    matching of positions at most ``window`` apart.  So the match count,
    the transpositions and the (commutative) formula are unchanged.
    """
    if left == right:
        return 1.0
    if len(left) > len(right):
        left, right = right, left
    len_l, len_r = len(left), len(right)
    if not len_l:
        return 0.0
    window = max(len_l, len_r) // 2 - 1
    if window < 0:
        window = 0
    masks: Dict[str, int] = {}
    bit = 1
    for ch in right:
        masks[ch] = masks.get(ch, 0) | bit
        bit <<= 1
    free = bit - 1
    matched_left = []
    for i, ch in enumerate(left):
        candidates = masks.get(ch, 0) & free
        if not candidates:
            continue
        if i > window:
            candidates = candidates >> (i - window) << (i - window)
        candidates &= (1 << (i + window + 1)) - 1
        if candidates:
            free ^= candidates & -candidates
            matched_left.append(ch)
    matches = len(matched_left)
    if not matches:
        return 0.0
    matched_right = (bit - 1) ^ free
    transpositions = 0
    for ch in matched_left:
        lowest = matched_right & -matched_right
        if right[lowest.bit_length() - 1] != ch:
            transpositions += 1
        matched_right ^= lowest
    transpositions //= 2
    return (
        matches / len_l + matches / len_r + (matches - transpositions) / matches
    ) / 3.0


def common_prefix_length(left: str, right: str, max_prefix: int) -> int:
    """Length of the common prefix of ``left[:max_prefix]`` and ``right[:max_prefix]``."""
    prefix = 0
    for ch_left, ch_right in zip(left[:max_prefix], right[:max_prefix]):
        if ch_left != ch_right:
            break
        prefix += 1
    return prefix


# ---------------------------------------------------------- banded kernels


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


# --------------------------------------------------------- numpy lane form


class _Encoding:
    """Character codes and match masks of the distinct strings of a batch.

    ``codes[j, v]`` is the code of character ``j`` of string ``v`` and
    ``-1`` past its end; the extra last row is all ``-1``, so a position of
    ``-1`` reads a sentinel.  ``masks[v * alphabet + c]`` has bit ``j`` set
    where character ``j`` of string ``v`` has code ``c``.  Only strings of
    at most :data:`LANE_WIDTH` characters are encoded: a longer one keeps an
    all-sentinel column, zero masks and a ``lane_lengths`` entry of 0, so
    its lanes run no steps and the caller rescores them with the scalar
    form.  ``lengths`` holds every string's true length.
    """

    def __init__(self, np: Any, strings: Sequence[str]) -> None:
        count = len(strings)
        self.lengths = np.fromiter(map(len, strings), dtype=np.int64, count=count)
        encoded = self.lane_lengths = self.lengths * (self.lengths <= LANE_WIDTH)
        joined = "".join(s for s in strings if len(s) <= LANE_WIDTH)
        points = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32)
        alphabet, char_codes = unique_inverse(np, points)
        self.alphabet = max(len(alphabet), 1)
        owners = np.repeat(np.arange(count, dtype=np.int64), encoded)
        starts = np.cumsum(encoded) - encoded
        positions = np.arange(len(points), dtype=np.int64) - np.repeat(starts, encoded)
        self.codes = np.full((LANE_WIDTH + 1, count), -1, dtype=np.int32)
        self.codes[positions, owners] = char_codes
        self.masks = np.zeros(count * self.alphabet, dtype=np.uint64)
        np.bitwise_or.at(
            self.masks,
            owners * self.alphabet + char_codes,
            np.left_shift(np.uint64(1), positions.astype(np.uint64)),
        )


def sorted_unique(np: Any, values: Any) -> Any:
    """The distinct elements of a 1-D array in ascending order.

    Equal to ``np.unique(values)``; sorting and dropping repeats is much
    faster than the hash-based ``np.unique`` of recent numpy releases on
    the high-cardinality ``int64`` codes of pair batches.
    """
    ordered = np.sort(values)
    keep = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def unique_inverse(np: Any, values: Any) -> Tuple[Any, Any]:
    """The sorted distinct elements of an integer array and, per element,
    the ``int32`` index of its value among them (in the array's shape).

    Equal to ``np.unique(values, return_inverse=True)``.  One
    ``ndarray.sort`` of packed ``int64`` keys ``(value - low) << shift |
    position`` does the work, with ``shift`` the bit length of the last
    position: sorting the keys orders the values (ties by position), and
    each sorted key gives back its value and where it came from.  That
    sort is several times faster than an ``argsort``.  An array whose value
    range and length do not fit in 63 bits together takes the ``argsort``.
    """
    flat = values.reshape(-1)
    count = len(flat)
    if not count:
        return flat.copy(), np.zeros(values.shape, dtype=np.int32)
    low = int(flat.min())
    shift = (count - 1).bit_length()
    if (int(flat.max()) - low) >> (63 - shift):
        order = flat.argsort()
        ordered = flat.take(order)
    else:
        order = flat.astype(np.int64)
        order -= low
        order <<= shift
        # One buffer holds the positions, then the sorted values; the
        # sorted keys keep only their positions.
        ordered = np.arange(count, dtype=np.int64)
        order |= ordered
        order.sort()
        np.right_shift(order, shift, out=ordered)
        ordered += low
        order &= (1 << shift) - 1
    fresh = np.ones(count, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    distinct = ordered[fresh].astype(flat.dtype, copy=False)
    del ordered
    ranks = fresh.cumsum(dtype=np.int32)
    ranks -= 1
    inverse = np.empty(count, dtype=np.int32)
    inverse[order] = ranks
    return distinct, inverse.reshape(values.shape)


def _low_masks(np: Any) -> Any:
    """``table[k] == 2**k - 1`` for ``k`` in ``0..LANE_WIDTH`` as ``uint64``.

    numpy defines a shift by the full word width as 0, so ``k == 64``
    wraps to all ones.
    """
    one = np.uint64(1)
    return (one << np.arange(LANE_WIDTH + 1, dtype=np.uint64)) - one


def _popcount(np: Any, words: Any) -> Any:
    """Set bits of every ``uint64`` word (SWAR), as ``int64``."""
    words = words - ((words >> np.uint64(1)) & np.uint64(0x5555555555555555))
    words = (words & np.uint64(0x3333333333333333)) + (
        (words >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    words = (words + (words >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((words * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def _by_length(np: Any, lengths: Any) -> Tuple[Any, Any]:
    """Lane order by descending ``lengths`` and, per step ``j``, how many
    lanes (a prefix of that order) are longer than ``j``."""
    order = np.argsort(-lengths, kind="stable")
    descending = -lengths[order]
    steps = int(-descending[0]) if len(order) else 0
    active = np.searchsorted(descending, -np.arange(steps), side="left").tolist()
    return order, active


def _osa_lanes(np: Any, encoding: _Encoding, lefts: Any, rights: Any) -> Any:
    """OSA distances of encoded string pairs, one ``uint64`` lane per pair.

    The scalar recurrence of :func:`damerau_levenshtein_distance` on
    numpy words, with the longer string of each pair as the pattern and
    the shorter one as the text read one character per step.  Lanes are
    ordered by text length, so the lanes still reading at step ``j`` are a
    prefix and shorter texts stop early.  Shifts by one are written as
    ``x + x``.  The distance is read off the last column:
    ``len(text) + popcount(vp) - popcount(vn)`` over the pattern's bits.
    """
    lengths = encoding.lane_lengths
    longer = lengths[lefts] >= lengths[rights]
    patterns = np.where(longer, lefts, rights)
    texts = np.where(longer, rights, lefts)
    order, active = _by_length(np, lengths[texts])
    texts = texts[order]
    patterns = patterns[order]
    base = patterns * encoding.alphabet
    codes, masks = encoding.codes, encoding.masks
    lanes = len(order)
    ones = np.ones(lanes, dtype=np.uint64)
    vp = np.full(lanes, np.iinfo(np.uint64).max, dtype=np.uint64)
    vn = np.zeros(lanes, dtype=np.uint64)
    d0 = pm_old = np.zeros(lanes, dtype=np.uint64)
    for step, width in enumerate(active):
        pm = masks.take(base[:width] + codes[step].take(texts[:width]))
        vp_w, vn_w = vp[:width], vn[:width]
        transposed = ~d0[:width]
        transposed &= pm
        transposed += transposed
        transposed &= pm_old[:width]
        d0 = pm & vp_w
        d0 += vp_w
        d0 ^= vp_w
        d0 |= pm
        d0 |= vn_w
        d0 |= transposed
        hp = d0 | vp_w
        np.invert(hp, out=hp)
        hp |= vn_w
        hp += hp
        hp |= ones[:width]
        hn = d0 & vp_w
        hn += hn
        np.bitwise_or(d0, hp, out=vp_w)
        np.invert(vp_w, out=vp_w)
        vp_w |= hn
        np.bitwise_and(hp, d0, out=vn_w)
        pm_old = pm
    full = _low_masks(np)[lengths[patterns]]
    ups, downs = _popcount(np, np.concatenate((vp & full, vn & full))).reshape(2, lanes)
    distances = lengths[texts] + ups - downs
    result = np.empty(lanes, dtype=np.int64)
    result[order] = distances
    return result


def _jaro_lanes(np: Any, encoding: _Encoding, lefts: Any, rights: Any) -> Any:
    """Jaro similarities of encoded string pairs, one ``uint64`` lane per pair.

    The scalar recurrence of :func:`jaro_similarity` on numpy words: the
    shorter string of each pair is read one character per step (which the
    scalar form shows to be exact), the other string's match masks come
    from the encoding.  Lanes are ordered by the shorter length.
    Transpositions pair the k-th set bit of each side's match mask,
    located through the float exponent of the bit.
    """
    lengths = encoding.lane_lengths
    shorter = lengths[lefts] <= lengths[rights]
    lefts, rights = np.where(shorter, lefts, rights), np.where(shorter, rights, lefts)
    len_l, len_r = lengths[lefts], lengths[rights]
    window = np.maximum(len_r // 2 - 1, 0)
    order, active = _by_length(np, len_l)
    lefts, rights = lefts[order], rights[order]
    len_l, len_r, window = len_l[order], len_r[order], window[order]
    low = _low_masks(np)
    # windows[i, w]: the right positions inside left position i's window.
    positions = np.arange(LANE_WIDTH)[:, None]
    reach = np.arange(LANE_WIDTH // 2)[None, :]
    windows = low[np.minimum(positions + reach + 1, LANE_WIDTH)]
    windows &= ~low[np.maximum(positions - reach, 0)]
    bits = np.left_shift(np.uint64(1), np.arange(LANE_WIDTH, dtype=np.uint64))
    codes, masks = encoding.codes, encoding.masks
    base = rights * encoding.alphabet
    lanes = len(order)
    free = low[len_r]
    left_hits = np.zeros(lanes, dtype=np.uint64)
    for step, width in enumerate(active):
        found = masks.take(base[:width] + codes[step].take(lefts[:width]))
        free_w = free[:width]
        found &= free_w
        found &= windows[step].take(window[:width])
        first = np.negative(found)
        first &= found
        free_w ^= first
        hits_w = left_hits[:width]
        np.bitwise_or(hits_w, bits[step : step + 1], out=hits_w, where=first != 0)
    right_hits = low[len_r] ^ free
    matches = _popcount(np, left_hits)
    # Row e of by_exponent is position e - 1; row 0 (no bit left) is -1.
    by_exponent = np.concatenate((codes[-1:], codes[:-1]))
    transpositions = np.zeros(lanes, dtype=np.int64)
    for width in active[: int(matches.max()) if lanes else 0]:
        left_w, right_w = left_hits[:width], right_hits[:width]
        left_bit = np.negative(left_w)
        left_bit &= left_w
        left_w ^= left_bit
        right_bit = np.negative(right_w)
        right_bit &= right_w
        right_w ^= right_bit
        transpositions[:width] += (
            by_exponent[np.frexp(left_bit)[1], lefts[:width]]
            != by_exponent[np.frexp(right_bit)[1], rights[:width]]
        )
    transpositions //= 2
    with np.errstate(divide="ignore", invalid="ignore"):
        jaro = (
            matches / len_l + matches / len_r + (matches - transpositions) / matches
        ) / 3.0
    jaro[matches == 0] = 0.0
    jaro[lefts == rights] = 1.0
    result = np.empty(lanes, dtype=np.float64)
    result[order] = jaro
    return result


def _distinct_pairs(
    np: Any, lefts: Sequence[object], rights: Sequence[object]
) -> Tuple[List[str], Any, Any]:
    """Normalized distinct strings and the two id columns of a pair batch.

    Each distinct input value is normalized once; values that normalize
    to the same string share its id.
    """
    ids: Dict[object, int] = dict.fromkeys(itertools.chain(lefts, rights), 0)
    index: Dict[str, int] = {}
    for value in ids:
        ids[value] = index.setdefault(normalize_for_comparison(value), len(index))
    return (
        list(index),
        np.fromiter(map(ids.__getitem__, lefts), dtype=np.int64, count=len(lefts)),
        np.fromiter(map(ids.__getitem__, rights), dtype=np.int64, count=len(rights)),
    )


def _scalar_fallback(np: Any, encoding: _Encoding, lefts: Any, rights: Any) -> Any:
    """Lanes whose pair has a side longer than :data:`LANE_WIDTH`."""
    lengths = encoding.lengths
    return np.flatnonzero((lengths[lefts] > LANE_WIDTH) | (lengths[rights] > LANE_WIDTH))


def damerau_levenshtein_distances(
    lefts: Sequence[str], rights: Sequence[str]
) -> List[int]:
    """OSA distance of every ``(lefts[k], rights[k])`` pair, in lanes.

    Equal to ``[damerau_levenshtein_distance(l, r) for l, r in zip(...)]``.
    """
    import numpy as np

    strings, left_ids, right_ids = _distinct_pairs(np, lefts, rights)
    encoding = _Encoding(np, strings)
    distances = _osa_lanes(np, encoding, left_ids, right_ids)
    for k in _scalar_fallback(np, encoding, left_ids, right_ids).tolist():
        distances[k] = damerau_levenshtein_distance(
            strings[left_ids[k]], strings[right_ids[k]]
        )
    return distances.tolist()


def _jaro_batch(
    np: Any, strings: List[str], left_ids: Any, right_ids: Any
) -> Tuple[Any, _Encoding]:
    """Jaro of every id pair (lanes, scalar past the lane width) and the
    encoding of ``strings`` it used."""
    encoding = _Encoding(np, strings)
    jaro = _jaro_lanes(np, encoding, left_ids, right_ids)
    for k in _scalar_fallback(np, encoding, left_ids, right_ids).tolist():
        jaro[k] = jaro_similarity(strings[left_ids[k]], strings[right_ids[k]])
    return jaro, encoding


def jaro_similarities(lefts: Sequence[str], rights: Sequence[str]) -> List[float]:
    """Jaro similarity of every ``(lefts[k], rights[k])`` pair, in lanes."""
    import numpy as np

    strings, left_ids, right_ids = _distinct_pairs(np, lefts, rights)
    return _jaro_batch(np, strings, left_ids, right_ids)[0].tolist()


def jaro_winkler_similarities(
    lefts: Sequence[str],
    rights: Sequence[str],
    prefix_weight: float = 0.1,
    max_prefix: int = 4,
) -> List[float]:
    """Jaro-Winkler similarity of every pair, in lanes.

    Equal to ``jaro + prefix * prefix_weight * (1.0 - jaro)`` per pair,
    with the prefix counted over ``left[:max_prefix]`` and
    ``right[:max_prefix]`` as :func:`repro.textsim.jaro_winkler` does.
    """
    import numpy as np

    strings, left_ids, right_ids = _distinct_pairs(np, lefts, rights)
    return jaro_winkler_table(
        strings, left_ids, right_ids, prefix_weight, max_prefix
    ).tolist()


def jaro_winkler_table(
    strings: Sequence[str],
    left_ids: Any,
    right_ids: Any,
    prefix_weight: float = 0.1,
    max_prefix: int = 4,
) -> Any:
    """Jaro-Winkler of every id pair of a table of distinct strings.

    Pair ``k`` is ``(strings[left_ids[k]], strings[right_ids[k]])``; the
    ids are ``int64`` arrays and the result is a ``float64`` array.  The
    core of :func:`jaro_winkler_similarities`, which numbers its values
    first.
    """
    import numpy as np

    jaro, encoding = _jaro_batch(np, strings, left_ids, right_ids)
    # len(s[:max_prefix]) for every string, then the common prefix inside it.
    lengths = encoding.lengths
    if max_prefix >= 0:
        limits = np.minimum(lengths, max_prefix)
    else:
        limits = np.maximum(lengths + max_prefix, 0)
    limit = np.minimum(limits[left_ids], limits[right_ids])
    prefix = np.zeros(len(left_ids), dtype=np.int64)
    running = np.ones(len(left_ids), dtype=bool)
    codes = encoding.codes
    for position in range(min(int(limit.max()) if len(limit) else 0, LANE_WIDTH)):
        running &= (position < limit) & (
            codes[position][left_ids] == codes[position][right_ids]
        )
        prefix += running
    for k in _scalar_fallback(np, encoding, left_ids, right_ids).tolist():
        prefix[k] = common_prefix_length(
            strings[left_ids[k]], strings[right_ids[k]], max_prefix
        )
    return jaro + prefix * prefix_weight * (1.0 - jaro)


# --------------------------------------------------------------- Monge-Elkan


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


def _token_similarities(np: Any, tokens: List[str], lows: Any, highs: Any) -> Any:
    """DL similarity ``1.0 - d / longest`` of distinct unequal token pairs."""
    encoding = _Encoding(np, tokens)
    lengths = encoding.lengths
    distances = _osa_lanes(np, encoding, lows, highs)
    for k in _scalar_fallback(np, encoding, lows, highs).tolist():
        distances[k] = damerau_levenshtein_distance(tokens[lows[k]], tokens[highs[k]])
    return 1.0 - distances / np.maximum(lengths[lows], lengths[highs])


def monge_elkan_similarities(
    lefts: Sequence[str], rights: Sequence[str]
) -> List[float]:
    """Symmetrised Monge-Elkan (DL internal measure) of every pair.

    Equal to ``[symmetric_monge_elkan_cached(l, r) for l, r in zip(...)]``.
    """
    import numpy as np

    return monge_elkan_table(*_distinct_pairs(np, lefts, rights)).tolist()


def monge_elkan_table(strings: Sequence[str], left_ids: Any, right_ids: Any) -> Any:
    """Symmetrised Monge-Elkan of every id pair of a table of distinct strings.

    Pair ``k`` is ``(strings[left_ids[k]], strings[right_ids[k]])``; the
    ids are ``int64`` arrays and the result is a ``float64`` array.  The
    core of :func:`monge_elkan_similarities`, which numbers its values
    first.  Each string is tokenised once and each distinct unequal token
    pair is scored once through the OSA lanes.  Pairs are grouped by their
    token counts ``(a, b)``; within a group the token similarities form an
    ``(n, a, b)`` matrix whose row and column maxima are summed in token
    order, divided by the token count and averaged over both directions.
    """
    import numpy as np

    token_index: Dict[str, int] = {}
    token_rows = [
        [token_index.setdefault(token, len(token_index)) for token in tokenize(s)]
        for s in strings
    ]
    tokens = list(token_index)
    counts = np.fromiter(map(len, token_rows), dtype=np.int64, count=len(token_rows))
    widest = max((len(ids) for ids in token_rows), default=0)
    # token_ids[v, k]: the k-th token of string v, -1 past its last token.
    token_ids = np.array(
        [ids + [-1] * (widest - len(ids)) for ids in token_rows], dtype=np.int64
    ).reshape(len(token_rows), widest)
    count_l, count_r = counts[left_ids], counts[right_ids]
    result = np.zeros(len(left_ids), dtype=np.float64)
    result[(count_l == 0) & (count_r == 0)] = 1.0

    # Group the pairs by token counts (a, b); each group's a * b token
    # pairs per value pair get one slot range of ``codes``.
    shape_key = count_l * (widest + 1) + count_r
    groups = []
    size = 0
    for key in sorted_unique(np, shape_key[(count_l > 0) & (count_r > 0)]).tolist():
        members = np.flatnonzero(shape_key == key)
        a, b = divmod(key, widest + 1)
        groups.append((members, a, b, size))
        size += len(members) * a * b
    del count_l, count_r, shape_key
    codes = np.empty(size, dtype=np.int64)
    for members, a, b, start in groups:
        block = codes[start : start + len(members) * a * b].reshape(len(members), a, b)
        row_tokens = token_ids[left_ids[members], :a][:, :, None]
        col_tokens = token_ids[right_ids[members], :b][:, None, :]
        np.minimum(row_tokens, col_tokens, out=block)
        block *= len(tokens)
        block += np.maximum(row_tokens, col_tokens)
    pair_codes, slots = unique_inverse(np, codes)
    del codes, token_ids, left_ids, right_ids
    lows, highs = np.divmod(pair_codes, max(len(tokens), 1))
    unequal = np.flatnonzero(lows != highs)
    lows, highs = lows[unequal], highs[unequal]
    similarity = np.ones(len(pair_codes), dtype=np.float64)
    similarity[unequal] = _token_similarities(np, tokens, lows, highs)
    for members, a, b, start in groups:
        scores = similarity.take(slots[start : start + len(members) * a * b])
        scores = scores.reshape(len(members), a, b)
        # cumsum adds in token order, one term after the other.
        forward = scores.max(axis=2).cumsum(axis=1)[:, -1]
        backward = scores.max(axis=1).cumsum(axis=1)[:, -1]
        result[members] = (forward / a + backward / b) / 2.0
    return result


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


def jaccard_qgram_similarities(
    lefts: Sequence[str], rights: Sequence[str], q: int = 3, pad: bool = True
) -> List[float]:
    """q-gram Jaccard of every pair, one gram set per distinct value.

    Equal to ``[jaccard_qgrams(l, r, q, pad) for l, r in zip(...)]``; the
    gram sets live for this call only and never touch :func:`qgram_set`.
    """
    import numpy as np

    strings, left_ids, right_ids = _distinct_pairs(np, lefts, rights)
    return jaccard_qgram_table(strings, left_ids, right_ids, q, pad).tolist()


def jaccard_qgram_table(
    strings: Sequence[str], left_ids: Any, right_ids: Any, q: int = 3, pad: bool = True
) -> Any:
    """q-gram Jaccard of every id pair of a table of distinct strings.

    Pair ``k`` is ``(strings[left_ids[k]], strings[right_ids[k]])``; the
    ids are ``int64`` arrays and the result is a ``float64`` array.  The
    core of :func:`jaccard_qgram_similarities`.  One gram set per string;
    the pairs loop in Python over the gram sets the ids pick.  Equal ids
    give ``|L| / (2|L| - |L|) == 1.0``, or 1.0 for two empty sets, as
    equal strings do.
    """
    import numpy as np

    grams = np.empty(len(strings), dtype=object)
    grams[:] = [frozenset(qgrams(text, q, pad)) for text in strings]
    lefts = grams.take(left_ids).tolist()
    rights = grams.take(right_ids).tolist()
    del grams
    return np.fromiter(
        (
            (shared := len(left & right)) / (len(left) + len(right) - shared)
            if left and right
            else (0.0 if left or right else 1.0)
            for left, right in zip(lefts, rights)
        ),
        dtype=np.float64,
        count=len(lefts),
    )


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
