"""Naive reference implementations of the detection pipeline (the oracle).

The straightforward tuple-set / per-pair implementations that
:mod:`repro.dedup.pipeline` replaces on the hot path, kept in-tree for the
same two reasons as :mod:`repro.textsim._reference`:

* the equivalence suite (``tests/dedup/test_pipeline_equivalence.py``)
  asserts that packed-key candidate generation and prepared/batched/
  parallel pair scoring are **bit-identical** to these oracles;
* the detection benchmark (``benchmarks/dedup_bench.py``) measures the
  streaming pipeline's speedup against them.

Nothing outside tests and benchmarks should import this module — the
public framework in :mod:`repro.dedup` is exactly as accurate, only
faster.  The scoring oracle deliberately reproduces the *historical*
per-pair matcher: per-call weight totals, per-pair stripping, permutation
re-evaluation and no cross-pair caching.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

from repro.dedup.evaluate import EvaluationPoint

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


def blocking_pairs_reference(
    records: Sequence[Dict[str, str]], key_function, max_block_size: int
) -> Set[Pair]:
    """One standard-blocking pass with the historical O(k²) inner loop."""
    blocks: Dict[str, list] = {}
    for record_id, record in enumerate(records):
        key = key_function(record)
        if key in (None, ""):
            continue
        blocks.setdefault(key, []).append(record_id)
    pairs: Set[Pair] = set()
    for members in blocks.values():
        if len(members) > max_block_size:
            continue
        for j in range(1, len(members)):
            for i in range(j):
                pairs.add((members[i], members[j]))
    return pairs


def shingle_set_reference(
    record: Dict[str, str], attributes: Sequence[str], ngram: int = 3
) -> Set[str]:
    """Naive char-n-gram shingle set of one record (no interning, no sort).

    Character n-grams of each stripped attribute value, unioned; values
    shorter than ``ngram`` contribute themselves (so short zips and
    initials still participate) and grams never span attribute
    boundaries — the exact contract
    :func:`repro.dedup.embeddings.shingle_record` optimises.
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
