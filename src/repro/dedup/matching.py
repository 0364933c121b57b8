"""Record similarity: weighted attribute average + 1:1 name matching.

"The similarity of two records was always computed as the weighted average
similarity of their values.  Since we observed that the name values are
often confused between the individual attributes, we matched every
combination of them and used the 1:1 matching with the highest similarity
for aggregation.  To weight the individual attributes we used again their
entropy." (Section 6.5)

Every record pair is scored through one path, a batch per scoring call:
:meth:`RecordMatcher.prepare` numbers the distinct stripped values of the
records (in sorted string order) and keeps their value ids, one row per
attribute;
:meth:`PreparedRecords.score` gathers the (left, right) value-id columns of
all candidate keys — every name-by-name cross column plus one column per
other attribute — sends each distinct unequal value pair to the measure
exactly once through :meth:`repro.textsim.SimilarityMeasure.similarities`,
and assembles the record similarities column by column.  Elementwise
float64 operations are correctly rounded and never fused, so assembling
in the per-pair accumulation order gives the same bits as
:func:`repro.dedup._reference.record_similarity_reference`.  Nothing
outlives the call.  :meth:`RecordMatcher.similarity` is the same path on a
two-record table.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.core.heterogeneity import entropy_weights
from repro.textsim import fast
from repro.textsim.base import SimilarityMeasure

SimilarityFn = Callable[[str, str], float]
Pair = Tuple[int, int]

#: The attribute group matched 1:1 in its best permutation.
DEFAULT_NAME_ATTRIBUTES = ("first_name", "midl_name", "last_name")


class PreparedRecords:
    """Value ids of a record list for one matcher (see ``prepare``).

    ``values`` lists the distinct stripped values in sorted order, so a
    smaller id is a smaller string and ``(min id, max id)`` is the
    canonical argument order of the measure.  ``ids[a, i]`` is the value
    id of record ``i`` under the matcher's ``a``-th attribute: its name
    attributes first, then its (zero-weight-free) other attributes.
    """

    __slots__ = ("matcher", "values", "ids")

    def __init__(self, matcher: "RecordMatcher", values: List[str], ids: Any) -> None:
        self.matcher = matcher
        self.values = values
        self.ids = ids

    def __len__(self) -> int:
        return self.ids.shape[1]

    def _pair_codes(self, left: Any, right: Any) -> Tuple[Any, Any]:
        """Canonical value-pair codes ``min * len(values) + max``.

        Two blocks of columns by keys: every name slot against every name
        slot (row ``a * names + b`` pairs left slot ``a`` with right slot
        ``b``), then one row per other attribute.
        """
        import numpy as np

        stride = len(self.values)
        names = len(self.matcher.name_attributes)
        name_left = self.ids[:names, None, :].take(left, axis=2)
        name_right = self.ids[None, :names, :].take(right, axis=2)
        name_codes = np.minimum(name_left, name_right)
        name_codes *= stride
        name_codes += np.maximum(name_left, name_right)
        del name_left, name_right
        lows = self.ids[names:].take(left, axis=1)
        highs = self.ids[names:].take(right, axis=1)
        other_codes = np.minimum(lows, highs)
        other_codes *= stride
        np.maximum(lows, highs, out=highs)
        del lows
        other_codes += highs
        return name_codes.reshape(names * names, len(left)), other_codes

    def score(self, keys: Iterable[int]) -> Dict[Pair, float]:
        """Similarity of every packed candidate key ``i * len(self) + j``.

        Returns ``{(i, j): similarity}`` in sorted key order, every float
        bit-identical to
        :func:`repro.dedup._reference.record_similarity_reference`.  Each
        distinct unequal value pair reaches the measure once per call;
        equal values score exactly 1.0 without a measure call.  The
        accumulation follows the per-pair order column by column: each
        name permutation sums ``0.0 + w0*s + w1*s + ...`` in slot order,
        the best one (starting from -1.0) is added to 0.0, then each other
        attribute's ``w*s`` in order, then the division by the total
        weight.
        """
        import numpy as np

        matcher = self.matcher
        packed = fast.sorted_unique(np, np.fromiter(keys, dtype=np.int64))
        left, right = np.divmod(packed, len(self))
        if matcher._total_weight == 0:
            return dict.fromkeys(zip(left.tolist(), right.tolist()), 0.0)
        blocks = [
            fast.unique_inverse(np, codes) for codes in self._pair_codes(left, right)
        ]
        codes = fast.sorted_unique(
            np, np.concatenate([distinct for distinct, _ in blocks])
        )
        lows, highs = np.divmod(codes, len(self.values))
        unequal = np.flatnonzero(lows != highs)
        values = self.values
        lefts = [values[k] for k in lows[unequal].tolist()]
        rights = [values[k] for k in highs[unequal].tolist()]
        del lows, highs
        table = np.ones(len(codes), dtype=np.float64)
        table[unequal] = matcher._similarities(lefts, rights)
        del lefts, rights, unequal
        name_scores, other_scores = (
            table.take(codes.searchsorted(distinct)).take(rows)
            for distinct, rows in blocks
        )
        del blocks

        total = np.zeros(len(packed), dtype=np.float64)
        names = len(matcher.name_attributes)
        if names:
            weighted = name_scores.reshape(names, names, len(packed))
            weighted *= np.array(matcher._name_weights)[:, None, None]
            permutations = np.array(list(itertools.permutations(range(names))))
            terms = weighted[np.arange(names), permutations]
            assignments = np.zeros(terms[:, 0].shape, dtype=np.float64)
            for index in range(names):
                assignments += terms[:, index]
            total += np.maximum(assignments.max(axis=0), -1.0)
            del weighted, terms, assignments
        if len(other_scores):
            # total + w0*s0 + w1*s1 + ... in attribute order: one running
            # sum down the rows (accumulate adds row by row, in order).
            other_scores *= np.array(matcher._other_weights)[:, None]
            other_scores[0] += total
            total = np.add.accumulate(other_scores, axis=0, out=other_scores)[-1]
        return dict(
            zip(
                zip(left.tolist(), right.tolist()),
                (total / matcher._total_weight).tolist(),
            )
        )


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

    def _similarities(self, lefts: List[str], rights: List[str]) -> List[float]:
        """The measure over value pairs: its batch method when it is a
        :class:`~repro.textsim.SimilarityMeasure`, else one call per pair."""
        measure = self.measure
        if isinstance(measure, SimilarityMeasure):
            return measure.similarities(lefts, rights)
        return [measure(left, right) for left, right in zip(lefts, rights)]

    def prepare(self, records: Sequence[Dict[str, str]]) -> PreparedRecords:
        """Number the records' distinct values for batch scoring.

        Values are stripped (``None`` counts as empty) once per record and
        numbered in sorted string order; the table keeps one row of value
        ids per attribute (name attributes first), indexed by record.
        """
        import numpy as np

        attributes = self.name_attributes + self._other_attributes
        columns = [
            [(record.get(a) or "").strip() for record in records] for a in attributes
        ]
        values = sorted({value for column in columns for value in column})
        index = {value: position for position, value in enumerate(values)}
        ids = np.array(
            [[index[value] for value in column] for column in columns], dtype=np.int64
        ).reshape(len(attributes), len(records))
        return PreparedRecords(self, values, ids)

    def similarity(self, left: Dict[str, str], right: Dict[str, str]) -> float:
        """Weighted average value similarity of two flat records."""
        return self.prepare((left, right)).score((1,))[(0, 1)]

    def __call__(self, left: Dict[str, str], right: Dict[str, str]) -> float:
        return self.similarity(left, right)
