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

from repro.dedup.blocking import StandardBlocking, pick_blocking_keys
from repro.dedup.pipeline import (
    CANDIDATE_PASS_TYPES,
    MAX_PACKABLE_RECORDS,
    CandidateStats,
    DetectionPipeline,
    DetectionResult,
    PairKeyOverflowError,
    PassStats,
    blocking_candidates,
    collect_candidates,
    pack_pair,
    pack_pairs,
    score_candidates_packed,
    score_pairs_batch,
    sorted_neighborhood_candidates,
    unpack_pair,
    unpack_pairs,
)
from repro.dedup.embeddings import (
    TfidfVectors,
    cosine_prefilter,
    record_shingles,
    shingle_record,
    tfidf_vectors,
)
from repro.dedup.lsh import (
    BucketStats,
    LshPassStats,
    estimate_jaccard,
    iter_lsh_keys,
    lsh_band_collisions,
    lsh_candidates,
    minhash_signatures,
)
from repro.dedup.evaluate import (
    EvaluationPoint,
    best_f1,
    confusion_counts,
    evaluate_thresholds,
    f1_score,
    precision_recall_f1,
)
from repro.dedup.clustering import (
    closure_pair_metrics,
    cluster_metrics,
    clusters_from_labels,
    connected_components,
    pairs_of_clusters,
)
from repro.dedup.matching import PreparedRecords, RecordMatcher

__all__ = [
    "StandardBlocking",
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
    "blocking_candidates",
    "lsh_candidates",
    "minhash_signatures",
    "iter_lsh_keys",
    "lsh_band_collisions",
    "estimate_jaccard",
    "BucketStats",
    "LshPassStats",
    "TfidfVectors",
    "tfidf_vectors",
    "record_shingles",
    "shingle_record",
    "cosine_prefilter",
    "score_pairs_batch",
    "score_candidates_packed",
    "EvaluationPoint",
    "best_f1",
    "evaluate_thresholds",
    "precision_recall_f1",
    "confusion_counts",
    "f1_score",
    "connected_components",
    "pairs_of_clusters",
    "closure_pair_metrics",
    "cluster_metrics",
    "clusters_from_labels",
]
