"""Threshold sweeps and precision / recall / F1 (Figure 5)."""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Set, Tuple

Pair = Tuple[int, int]


@dataclasses.dataclass
class EvaluationPoint:
    """Quality of one similarity threshold."""

    threshold: float
    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        """TP / (TP + FP); 1.0 when nothing was predicted."""
        predicted = self.true_positives + self.false_positives
        return self.true_positives / predicted if predicted else 1.0

    @property
    def recall(self) -> float:
        """TP / (TP + FN); 1.0 when the gold standard is empty."""
        actual = self.true_positives + self.false_negatives
        return self.true_positives / actual if actual else 1.0

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


def evaluate_thresholds(
    similarities: Dict[Pair, float],
    gold: Set[Pair],
    thresholds: Sequence[float],
) -> List[EvaluationPoint]:
    """One evaluation point per threshold, in ascending threshold order.

    A pair counts as a predicted duplicate at every threshold its score
    reaches (``score >= threshold``), so a NaN score counts below every
    threshold.  Pairs never scored (not candidates) count as
    non-duplicates, so recall is measured against the *full* gold standard,
    exactly as in the paper (blocking happened to lose no true duplicate
    there; here it would show up as irreducible false negatives).

    The sweep counts: per threshold, numpy counts the scores at or above it
    among all pairs and among the scored gold pairs.  Equal to the sort-based
    :func:`repro.dedup._reference.evaluate_thresholds_reference`.
    """
    import numpy as np

    scores = np.fromiter(similarities.values(), dtype=np.float64, count=len(similarities))
    gold_scores = np.array(
        [similarities[pair] for pair in gold if pair in similarities], dtype=np.float64
    )
    points = []
    # Not sorted(thresholds): thresholds that compare equal (0.0 and -0.0)
    # come out in the order the sort-based sweep has always given them.
    for threshold in sorted(thresholds, reverse=True)[::-1]:
        true_positives = int(np.count_nonzero(gold_scores >= threshold))
        points.append(
            EvaluationPoint(
                threshold=threshold,
                true_positives=true_positives,
                false_positives=int(np.count_nonzero(scores >= threshold)) - true_positives,
                false_negatives=len(gold) - true_positives,
            )
        )
    return points


def best_f1(points: Sequence[EvaluationPoint]) -> EvaluationPoint:
    """The evaluation point with the highest F1 (ties: lower threshold)."""
    if not points:
        raise ValueError("no evaluation points")
    return max(points, key=lambda point: (point.f1, -point.threshold))
