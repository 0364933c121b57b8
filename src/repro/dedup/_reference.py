"""Naive reference implementations of the detection pipeline (the oracle).

The straightforward tuple-set / per-pair implementations that
:mod:`repro.dedup.pipeline` replaces on the hot path, kept in-tree for the
same two reasons as :mod:`repro.textsim._reference`:

* the equivalence suites (``tests/dedup/test_pipeline_equivalence.py``,
  ``tests/dedup/test_lsh_equivalence.py``) assert that packed-key
  candidate generation, MinHash–LSH signatures and buckets, and
  prepared/batched/parallel pair scoring are **bit-identical** to these
  oracles;
* the detection benchmark (``benchmarks/dedup_bench.py``) measures the
  streaming pipeline's speedup against them.

Nothing outside tests and benchmarks should import this module — the
public framework in :mod:`repro.dedup` is exactly as accurate, only
faster.  The scoring oracle deliberately reproduces the *historical*
per-pair matcher: per-call weight totals, per-pair stripping, permutation
re-evaluation and no cross-pair caching.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.dedup.evaluate import EvaluationPoint
from repro.dedup.lsh import BucketStats, LshPassStats
from repro.dedup.pipeline import CandidateStats, _check_packable, collect_candidates

Pair = Tuple[int, int]
SimilarityFn = Callable[[str, str], float]


def sorted_neighborhood_pairs_reference(
    records: Sequence[Dict[str, str]], key_attribute: str, window: int
) -> Set[Pair]:
    """One SNM pass as an eager tuple set (the historical implementation)."""
    order = sorted(
        range(len(records)),
        key=lambda index: (records[index].get(key_attribute) or "").strip(),
    )
    pairs: Set[Pair] = set()
    for position, record_id in enumerate(order):
        stop = min(position + window, len(order))
        for other_position in range(position + 1, stop):
            other_id = order[other_position]
            pair = (record_id, other_id) if record_id < other_id else (other_id, record_id)
            pairs.add(pair)
    return pairs


def multipass_pairs_reference(
    records: Sequence[Dict[str, str]],
    key_attributes: Iterable[str],
    window: int,
) -> Set[Pair]:
    """Eager union of per-pass tuple sets."""
    pairs: Set[Pair] = set()
    for key_attribute in key_attributes:
        pairs |= sorted_neighborhood_pairs_reference(records, key_attribute, window)
    return pairs


def shingle_set_reference(
    record: Dict[str, str], attributes: Sequence[str], ngram: int = 3
) -> Set[str]:
    """Naive char-n-gram shingle set of one record.

    Character n-grams of each stripped attribute value, unioned; values
    shorter than ``ngram`` contribute themselves (so short zips and
    initials still participate) and grams never span attribute
    boundaries — the shingles :func:`repro.dedup.lsh.signature_matrix`
    MinHashes value by value.
    """
    grams: Set[str] = set()
    for attribute in attributes:
        value = (record.get(attribute) or "").strip()
        if not value:
            continue
        if len(value) < ngram:
            grams.add(value)
            continue
        for start in range(len(value) - ngram + 1):
            grams.add(value[start : start + ngram])
    return grams


def shingle_jaccard_reference(left: Set[str], right: Set[str]) -> float:
    """Exact Jaccard similarity of two shingle sets (empty sets score 0)."""
    if not left or not right:
        return 0.0
    intersection = len(left & right)
    union = len(left) + len(right) - intersection
    return intersection / union


def allpairs_shingle_jaccard_reference(
    records: Sequence[Dict[str, str]],
    attributes: Sequence[str],
    ngram: int = 3,
    threshold: float = 0.5,
) -> Set[Pair]:
    """All-pairs exact shingle-Jaccard candidates — the O(n²) LSH oracle.

    Every pair whose exact char-n-gram Jaccard reaches ``threshold``.
    This is the ground truth MinHash–LSH (:mod:`repro.dedup.lsh`)
    approximates sub-quadratically: the equivalence suite measures LSH
    candidate recall against exactly this set, and the benchmark uses it
    as the quadratic baseline the banded pass must undercut.
    """
    shingles = [
        shingle_set_reference(record, attributes, ngram) for record in records
    ]
    pairs: Set[Pair] = set()
    for right_id in range(1, len(records)):
        right_shingles = shingles[right_id]
        for left_id in range(right_id):
            similarity = shingle_jaccard_reference(
                shingles[left_id], right_shingles
            )
            if similarity >= threshold:
                pairs.add((left_id, right_id))
    return pairs


def minhash_signatures_reference(
    records: Sequence[Dict[str, str]],
    attributes: Sequence[str],
    *,
    bands: int = 16,
    rows: int = 4,
    ngram: int = 3,
    seed: int = 20210323,
) -> List[Optional[Tuple[int, ...]]]:
    """Per-record MinHash over a per-shingle tuple cache (the historical
    implementation of :func:`repro.dedup.lsh.minhash_signatures`).

    The ``(a, b)`` permutation parameters are drawn from
    ``random.Random(seed)``: every ``a`` in ``[1, p - 1]``, then every
    ``b`` in ``[0, p - 1]``, over ``p = 2**61 - 1``.  Each distinct
    shingle gets one blake2b hash ``x`` and one tuple of
    ``(a * x + b) % p`` in Python ints; a record's signature is the
    elementwise ``min`` over the tuples of its
    :func:`shingle_set_reference` shingles, or ``None`` when it has no
    shingle.
    """
    if bands < 1 or rows < 1:
        raise ValueError(f"bands and rows must be >= 1, got {bands}x{rows}")
    if ngram < 1:
        raise ValueError(f"ngram must be >= 1, got {ngram}")
    prime = (1 << 61) - 1
    rng = random.Random(seed)
    a_params = [rng.randrange(1, prime) for _ in range(bands * rows)]
    b_params = [rng.randrange(0, prime) for _ in range(bands * rows)]
    params = tuple(zip(a_params, b_params))
    vector_cache: Dict[str, Tuple[int, ...]] = {}
    signatures: List[Optional[Tuple[int, ...]]] = []
    for record in records:
        shingles = shingle_set_reference(record, attributes, ngram)
        if not shingles:
            signatures.append(None)
            continue
        vectors = []
        for shingle in shingles:
            vector = vector_cache.get(shingle)
            if vector is None:
                base = int.from_bytes(
                    hashlib.blake2b(shingle.encode("utf-8"), digest_size=8).digest(),
                    "big",
                )
                vector = tuple((a * base + b) % prime for a, b in params)
                vector_cache[shingle] = vector
            vectors.append(vector)
        signatures.append(tuple(map(min, *vectors)) if len(vectors) > 1 else vectors[0])
    return signatures


def lsh_keys_reference(
    signatures: Sequence[Optional[Tuple[int, ...]]],
    record_count: int,
    *,
    bands: int,
    rows: int,
    max_bucket_size: int,
    stats: BucketStats,
) -> Iterator[int]:
    """One banded-LSH pass over dict buckets (the historical band
    bucketing of :func:`repro.dedup.lsh.lsh_candidates`).

    One ``(band, minima)`` dict key per signed record and band; member
    lists grow in record-id order, so each bucket's nested pairs are
    canonical ``i < j`` packed keys.  ``stats`` is filled bucket by
    bucket.
    """
    if max_bucket_size < 2:
        raise ValueError(f"max_bucket_size must be >= 2, got {max_bucket_size}")
    _check_packable(record_count)
    buckets: Dict[Tuple[int, Tuple[int, ...]], List[int]] = {}
    for record_id, signature in enumerate(signatures):
        if signature is None:
            continue
        for band in range(bands):
            band_key = (band, signature[band * rows : (band + 1) * rows])
            buckets.setdefault(band_key, []).append(record_id)
    for members in buckets.values():
        size = len(members)
        stats.buckets_total += 1
        stats.records_bucketed += size
        stats.bucket_sizes[size] = stats.bucket_sizes.get(size, 0) + 1
        if size < 2:
            continue
        if size > max_bucket_size:
            stats.buckets_skipped += 1
            stats.pairs_dropped += size * (size - 1) // 2
            continue
        stats.pairs_emitted += size * (size - 1) // 2
        for position, left in enumerate(members):
            base = left * record_count
            for other_position in range(position + 1, size):
                yield base + members[other_position]


def lsh_candidates_reference(
    records: Sequence[Dict[str, str]],
    attributes: Sequence[str],
    *,
    bands: int = 16,
    rows: int = 4,
    ngram: int = 3,
    seed: int = 20210323,
    max_bucket_size: int = 500,
) -> Tuple[Set[int], CandidateStats]:
    """One LSH pass streamed through
    :func:`~repro.dedup.pipeline.collect_candidates` (the historical
    :func:`repro.dedup.lsh.lsh_candidates`)."""
    signatures = minhash_signatures_reference(
        records, attributes, bands=bands, rows=rows, ngram=ngram, seed=seed
    )
    bucket_stats = BucketStats()
    stream = lsh_keys_reference(
        signatures,
        len(records),
        bands=bands,
        rows=rows,
        max_bucket_size=max_bucket_size,
        stats=bucket_stats,
    )
    keys, stats = collect_candidates((("lsh", stream),), len(records))
    stats.passes[0] = LshPassStats(
        label="lsh",
        pairs_emitted=stats.passes[0].pairs_emitted,
        pairs_new=len(keys),
        pairs_dropped=bucket_stats.pairs_dropped,
        buckets=bucket_stats,
    )
    return keys, stats


def _value_similarity_reference(measure: SimilarityFn, left: str, right: str) -> float:
    """Per-pair value similarity exactly as the matcher resolves it.

    Equal values short-circuit to 1.0 and unequal values are evaluated in
    canonical (sorted) argument order — the two behaviours the matcher's
    cache layer imposes — but nothing is cached.
    """
    if left == right:
        return 1.0
    if left <= right:
        return measure(left, right)
    return measure(right, left)


def record_similarity_reference(
    measure: SimilarityFn,
    weights: Dict[str, float],
    left: Dict[str, str],
    right: Dict[str, str],
    name_attributes: Sequence[str] = ("first_name", "midl_name", "last_name"),
) -> float:
    """The historical ``RecordMatcher.similarity``, recomputed from scratch.

    Weight totals per call, values stripped per pair, every name
    permutation re-scored value-by-value, zero-weight attributes skipped
    inside the loop — the exact float-accumulation order of the original
    per-pair matcher, against which every optimised path is asserted
    bit-identical.
    """
    usable_names = tuple(a for a in name_attributes if a in weights)
    total_weight = sum(weights.values())
    if total_weight == 0:
        return 0.0
    total = 0.0
    if usable_names:
        left_values = [(left.get(a) or "").strip() for a in usable_names]
        right_values = [(right.get(a) or "").strip() for a in usable_names]
        best = -1.0
        for permutation in itertools.permutations(range(len(usable_names))):
            assignment = 0.0
            for index, attribute in enumerate(usable_names):
                score = _value_similarity_reference(
                    measure, left_values[index], right_values[permutation[index]]
                )
                assignment += weights[attribute] * score
            if assignment > best:
                best = assignment
        total += best
    for attribute in weights:
        if attribute in usable_names:
            continue
        weight = weights[attribute]
        if weight == 0.0:
            continue
        total += weight * _value_similarity_reference(
            measure,
            (left.get(attribute) or "").strip(),
            (right.get(attribute) or "").strip(),
        )
    return total / total_weight


def score_candidates_reference(
    records: Sequence[Dict[str, str]],
    candidates: Iterable[Pair],
    measure: SimilarityFn,
    weights: Dict[str, float],
    name_attributes: Sequence[str] = ("first_name", "midl_name", "last_name"),
) -> Dict[Pair, float]:
    """Per-pair scoring over tuple candidates (the historical hot loop)."""
    return {
        pair: record_similarity_reference(
            measure, weights, records[pair[0]], records[pair[1]], name_attributes
        )
        for pair in candidates
    }


def evaluate_thresholds_reference(
    similarities: Dict[Pair, float],
    gold: Set[Pair],
    thresholds: Sequence[float],
) -> List[EvaluationPoint]:
    """The historical sort-based threshold sweep.

    Sorts every ``(pair, score)`` item by descending score, then sweeps the
    thresholds in descending order so that each pair is classified exactly
    once across the whole sweep.  Points come back in ascending threshold
    order.  The oracle of the counting sweep
    :func:`repro.dedup.evaluate.evaluate_thresholds` for scores that are
    not NaN (a NaN stops this sweep where it sorts).
    """
    ordered = sorted(similarities.items(), key=lambda item: -item[1])
    points: List[EvaluationPoint] = []
    thresholds_desc = sorted(thresholds, reverse=True)
    index = 0
    true_positives = 0
    false_positives = 0
    gold_total = len(gold)
    for threshold in thresholds_desc:
        while index < len(ordered) and ordered[index][1] >= threshold:
            pair = ordered[index][0]
            if pair in gold:
                true_positives += 1
            else:
                false_positives += 1
            index += 1
        points.append(
            EvaluationPoint(
                threshold=threshold,
                true_positives=true_positives,
                false_positives=false_positives,
                false_negatives=gold_total - true_positives,
            )
        )
    points.reverse()  # return in ascending threshold order
    return points
