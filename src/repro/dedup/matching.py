"""Record similarity: weighted attribute average + 1:1 name matching.

"The similarity of two records was always computed as the weighted average
similarity of their values.  Since we observed that the name values are
often confused between the individual attributes, we matched every
combination of them and used the 1:1 matching with the highest similarity
for aggregation.  To weight the individual attributes we used again their
entropy." (Section 6.5)

Every record pair is scored through one path:
:meth:`RecordMatcher.prepare` builds a :class:`PreparedRecords` table
(per-record value vectors, stripped and interned **once per record**), and
:meth:`PreparedRecords.pair_similarity` scores pairs out of it.  The table
owns a plain ``dict`` memo of value-pair similarities keyed by the
canonical ``(min, max)`` value pair, so each distinct value pair reaches
the measure once per table and the memo is freed with it — there is no
cache that outlives one ``prepare()``.  :meth:`RecordMatcher.similarity`
is the same path on a two-record table.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.heterogeneity import entropy_weights
from repro.textsim import fast

SimilarityFn = Callable[[str, str], float]

#: The attribute group matched 1:1 in its best permutation.
DEFAULT_NAME_ATTRIBUTES = ("first_name", "midl_name", "last_name")


class PreparedRecords:
    """Per-record prepared value vectors for one matcher (see ``prepare``).

    ``name_values[i]`` / ``other_values[i]`` hold record ``i``'s stripped,
    interned values aligned with the matcher's name attributes and
    (zero-weight-free) other attributes.  Scoring a pair through
    :meth:`pair_similarity` touches only these tuples and the table's
    value-pair memo — the record dicts are never consulted again.
    """

    __slots__ = ("matcher", "name_values", "other_values", "_memo")

    def __init__(
        self,
        matcher: "RecordMatcher",
        name_values: List[Tuple[str, ...]],
        other_values: List[Tuple[str, ...]],
    ) -> None:
        self.matcher = matcher
        self.name_values = name_values
        self.other_values = other_values
        self._memo: Dict[Tuple[str, str], float] = {}

    def __len__(self) -> int:
        return len(self.name_values)

    def _memoised_measure(self, left: str, right: str) -> float:
        """Measure of two values: 1.0 when equal, else memoised per table.

        Unequal values are scored in canonical (sorted) argument order, so
        ``(a, b)`` and ``(b, a)`` share one memo entry and one measure call.
        """
        if left == right:
            return 1.0
        key = (left, right) if left <= right else (right, left)
        memo = self._memo
        score = memo.get(key)
        if score is None:
            score = memo[key] = self.matcher.measure(key[0], key[1])
        return score

    def _name_assignment_score(
        self, left_values: Sequence[str], right_values: Sequence[str]
    ) -> float:
        """Best 1:1 name permutation score over pre-stripped value tuples.

        Every permutation of the right-hand values is scored against the
        left-hand attribute slots; weights stay attached to the left-hand
        attribute (the column being filled).  The per-slot similarities
        are computed once into a matrix (|names|² lookups instead of
        |names|! · |names|), and the accumulation order inside each
        permutation matches the historical per-permutation loop exactly —
        the result is bit-identical.
        """
        weights = self.matcher._name_weights
        count = len(weights)
        if left_values == right_values:
            first = left_values[0] if left_values else ""
            if all(value == first for value in left_values):
                # All name values are pairwise equal: every matrix entry is
                # exactly 1.0 for any measure, so every permutation totals
                # the same sum — accumulate it in slot order and exit early.
                total = 0.0
                for weight in weights:
                    total += weight * 1.0
                return total
        value_similarity = self._memoised_measure
        scores = [
            [value_similarity(left_value, right_value) for right_value in right_values]
            for left_value in left_values
        ]
        best = -1.0
        for permutation in itertools.permutations(range(count)):
            total = 0.0
            for index in range(count):
                total += weights[index] * scores[index][permutation[index]]
            if total > best:
                best = total
        return best

    def pair_similarity(self, left_id: int, right_id: int) -> float:
        """Similarity of two prepared records, bit-identical to
        :func:`repro.dedup._reference.record_similarity_reference`."""
        matcher = self.matcher
        if matcher._total_weight == 0:
            return 0.0
        total = 0.0
        if matcher.name_attributes:
            total += self._name_assignment_score(
                self.name_values[left_id], self.name_values[right_id]
            )
        value_similarity = self._memoised_measure
        for weight, left, right in zip(
            matcher._other_weights,
            self.other_values[left_id],
            self.other_values[right_id],
        ):
            total += weight * value_similarity(left, right)
        return total / matcher._total_weight


class RecordMatcher:
    """Computes record pair similarities for a fixed attribute weighting.

    Parameters
    ----------
    measure:
        Value similarity function (e.g. a :class:`~repro.textsim.MongeElkan`
        instance) — "the same for all attributes" as in the paper.
    weights:
        ``attribute -> weight``; use :meth:`from_records` for entropy
        weights computed over all records including duplicates (the user
        cannot know the duplicates in advance).
    name_attributes:
        Attributes matched in their best 1:1 permutation before
        aggregation; set to ``()`` to disable.
    """

    def __init__(
        self,
        measure: SimilarityFn,
        weights: Dict[str, float],
        name_attributes: Sequence[str] = DEFAULT_NAME_ATTRIBUTES,
    ) -> None:
        if not weights:
            raise ValueError("weights must not be empty")
        self.measure = measure
        self.weights = dict(weights)
        self.name_attributes = tuple(a for a in name_attributes if a in self.weights)
        # Zero-weight attributes are dropped up front: their terms were
        # always skipped, so the (order-preserving) filter keeps the
        # accumulation sequence — and hence every float — unchanged.
        self._other_attributes = tuple(
            a
            for a in self.weights
            if a not in self.name_attributes and self.weights[a] != 0.0
        )
        self._other_weights = tuple(self.weights[a] for a in self._other_attributes)
        self._name_weights = tuple(self.weights[a] for a in self.name_attributes)
        self._total_weight = sum(self.weights.values())

    @classmethod
    def from_records(
        cls,
        records: Sequence[Dict[str, str]],
        attributes: Sequence[str],
        measure: SimilarityFn,
        name_attributes: Sequence[str] = DEFAULT_NAME_ATTRIBUTES,
    ) -> "RecordMatcher":
        """Entropy-weight the attributes from the records themselves."""
        return cls(measure, entropy_weights(records, attributes), name_attributes)

    def prepare(self, records: Sequence[Dict[str, str]]) -> PreparedRecords:
        """Precompute per-record value vectors for pair scoring.

        Stripping, ``None`` handling and the name-value tuples happen once
        per record; values are interned
        (:func:`repro.textsim.fast.intern_values`) so the equality
        short-circuits and memo-key comparisons in the hot loop compare by
        pointer in the common case.  The returned table's value-pair memo
        lives exactly as long as the table.
        """
        name_attributes = self.name_attributes
        other_attributes = self._other_attributes
        name_values: List[Tuple[str, ...]] = []
        other_values: List[Tuple[str, ...]] = []
        for record in records:
            name_values.append(
                fast.intern_values(
                    (record.get(a) or "").strip() for a in name_attributes
                )
            )
            other_values.append(
                fast.intern_values(
                    (record.get(a) or "").strip() for a in other_attributes
                )
            )
        return PreparedRecords(self, name_values, other_values)

    def similarity(self, left: Dict[str, str], right: Dict[str, str]) -> float:
        """Weighted average value similarity of two flat records."""
        return self.prepare((left, right)).pair_similarity(0, 1)

    def __call__(self, left: Dict[str, str], right: Dict[str, str]) -> float:
        return self.similarity(left, right)
