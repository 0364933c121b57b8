"""The duplicate-detection framework used in the paper's evaluation.

Section 6.5's setup:

* candidate generation with a multi-pass Sorted Neighborhood Method —
  one pass per highly unique attribute (:func:`pick_blocking_keys`),
  window size 20 — streamed as packed pair keys
  (:mod:`repro.dedup.pipeline`);
* record similarity as the entropy-weighted average of attribute value
  similarities, with the three name attributes matched 1:1 in their best
  permutation, scored as one batch of distinct value pairs per scoring
  call (:mod:`repro.dedup.matching`);
* classification by similarity threshold and evaluation as precision /
  recall / F1 over a threshold sweep (:mod:`repro.dedup.evaluate`).

:class:`DetectionPipeline` runs all three end to end, in-process or
sharded over workers; it is the one detection path, checked
bit-identical against the oracles in :mod:`repro.dedup._reference`.
"""

from __future__ import annotations

from repro.dedup.blocking import pick_blocking_keys
from repro.dedup.pipeline import (
    CANDIDATE_PASS_TYPES,
    MAX_PACKABLE_RECORDS,
    CandidateStats,
    DetectionPipeline,
    DetectionResult,
    PairKeyOverflowError,
    PassStats,
    collect_candidates,
    pack_pair,
    pack_pairs,
    score_candidates_packed,
    sorted_neighborhood_candidates,
    unpack_pair,
    unpack_pairs,
)
from repro.dedup.lsh import (
    BucketStats,
    LshPassStats,
    estimate_jaccard,
    lsh_band_collisions,
    lsh_candidates,
    minhash_signatures,
)
from repro.dedup.evaluate import EvaluationPoint, best_f1, evaluate_thresholds
from repro.dedup.matching import PreparedRecords, RecordMatcher

__all__ = [
    "pick_blocking_keys",
    "RecordMatcher",
    "PreparedRecords",
    "DetectionPipeline",
    "DetectionResult",
    "CandidateStats",
    "PassStats",
    "pack_pair",
    "unpack_pair",
    "pack_pairs",
    "unpack_pairs",
    "PairKeyOverflowError",
    "MAX_PACKABLE_RECORDS",
    "CANDIDATE_PASS_TYPES",
    "collect_candidates",
    "sorted_neighborhood_candidates",
    "lsh_candidates",
    "minhash_signatures",
    "lsh_band_collisions",
    "estimate_jaccard",
    "BucketStats",
    "LshPassStats",
    "score_candidates_packed",
    "EvaluationPoint",
    "best_f1",
    "evaluate_thresholds",
]
