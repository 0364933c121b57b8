"""Heterogeneity scoring — how dirty are the duplicates? (Section 6.3)

Unlike plausibility, heterogeneity counts every difference.  Each attribute
value pair is compared four ways — {Damerau-Levenshtein, symmetrised
Monge-Elkan} × {original case, lowercased} — and the four similarities are
averaged, so case differences and token confusions weigh less than genuine
value replacements.  Attributes are weighted by their uniqueness, quantified
as the entropy of their value distribution computed over one record per
cluster (duplicates would distort it).  The heterogeneity of a record pair
is the weighted average of the inverse value similarities; the heterogeneity
of a cluster is the average over its records.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.clusters import record_view
from repro.textsim.levenshtein import damerau_levenshtein_similarity
from repro.textsim.monge_elkan import symmetric_monge_elkan


def _counts_entropy(counts: Counter) -> float:
    """Shannon entropy (bits) of a ``value -> count`` distribution.

    Terms are summed in the counter's insertion order.
    """
    total = sum(counts.values())
    if total == 0:
        return 0.0
    result = 0.0
    for count in counts.values():
        p = count / total
        result -= p * math.log2(p)
    return result


def entropy(values: Iterable[str]) -> float:
    """Shannon entropy (bits) of the value distribution."""
    return _counts_entropy(Counter(values))


class ValueCounts:
    """Per-attribute value counts of a growing sequence of flat records.

    :meth:`weights` are the :func:`entropy_weights` of every record added
    so far, and records may be added in batches.  A counter fed batch by
    batch in record order has the same insertion order as one fed all
    records at once, and :func:`entropy` sums its terms in that order, so
    the weights are bit-identical to counting everything again.  With
    ``attributes=None`` the attributes are the records' keys in first-seen
    order; a missing value counts as ``""``.
    """

    def __init__(self, attributes: Optional[Sequence[str]] = None) -> None:
        self._discover = attributes is None
        self._counts: Dict[str, Counter] = {
            attribute: Counter() for attribute in attributes or ()
        }
        self._records = 0

    def add(self, records: Sequence[Dict[str, str]]) -> None:
        """Count ``records`` after the ones already added."""
        counts = self._counts
        if self._discover:
            for record in records:
                for attribute in record:
                    if attribute not in counts:
                        # Every record counted before lacks it: "" so far.
                        counts[attribute] = Counter(
                            {"": self._records} if self._records else ()
                        )
        for attribute, counter in counts.items():
            counter.update((record.get(attribute) or "").strip() for record in records)
        self._records += len(records)

    def weights(self) -> Dict[str, float]:
        """Normalised entropy weight per attribute (uniform if all are 0)."""
        weights = {
            attribute: _counts_entropy(counter)
            for attribute, counter in self._counts.items()
        }
        total = sum(weights.values())
        if total == 0:
            uniform = 1.0 / len(weights) if weights else 0.0
            return {attribute: uniform for attribute in weights}
        return {attribute: weight / total for attribute, weight in weights.items()}


def entropy_weights(
    records: Sequence[Dict[str, str]],
    attributes: Sequence[str],
) -> Dict[str, float]:
    """Normalised entropy weight per attribute.

    Callers pass one record per cluster when weighting heterogeneity (the
    paper, Section 6.3) and *all* records when weighting the detection
    algorithms (Section 6.5, where duplicates are unknown to the user).
    """
    counts = ValueCounts(attributes)
    counts.add(records)
    return counts.weights()


def four_way_similarity(left: str, right: str) -> float:
    """Average of DL and Monge-Elkan similarity, cased and lowercased.

    Results are memoised: snapshot data repeats the same value pairs
    (district descriptions, cities, parties) across millions of records.
    """
    if left == right:
        return 1.0
    if left > right:  # symmetric measure — canonicalise the cache key
        left, right = right, left
    return _four_way_cached(left, right)


@lru_cache(maxsize=262144)
def _four_way_cached(left: str, right: str) -> float:
    dl = damerau_levenshtein_similarity(left, right)
    me = symmetric_monge_elkan(left, right)
    lower_left = left.lower()
    lower_right = right.lower()
    if (lower_left == left and lower_right == right) or (
        left.isascii()
        and right.isascii()
        and left.upper() == left
        and right.upper() == right
    ):
        # Lowercasing keeps which characters of the pair are equal: both
        # values are lowercase already, or both are ASCII with no
        # lowercase letter, so it maps their characters one to one.  DL
        # and Monge-Elkan (whitespace tokens, DL inside) depend on nothing
        # else, so the lowercased kernels would return these floats.
        # Outside ASCII, lowercasing may merge characters (the Kelvin sign
        # becomes "k") or change lengths ("İ" becomes two code points).
        scores = (dl, dl, me, me)
    else:
        scores = (
            dl,
            damerau_levenshtein_similarity(lower_left, lower_right),
            me,
            symmetric_monge_elkan(lower_left, lower_right),
        )
    return sum(scores) / 4.0


class HeterogeneityScorer:
    """Scores record pairs and clusters with fixed attribute weights.

    Parameters
    ----------
    weights:
        ``attribute -> normalised weight`` map, usually from
        :func:`entropy_weights`.
    """

    def __init__(self, weights: Dict[str, float]) -> None:
        if not weights:
            raise ValueError("weights must not be empty")
        self.weights = dict(weights)
        weighted = [(a, w) for a, w in self.weights.items() if w != 0.0]
        #: The columns of a value row and their weights: the non-zero-weight
        #: attributes in weight-map order.
        self._attributes = tuple(attribute for attribute, _w in weighted)
        self._row_weights = tuple(weight for _a, weight in weighted)

    @classmethod
    def from_records(
        cls,
        records: Sequence[Dict[str, str]],
        attributes: Optional[Sequence[str]] = None,
    ) -> "HeterogeneityScorer":
        """Build a scorer with entropy weights learned from ``records``.

        ``attributes=None`` weights every key the records carry, in
        first-seen order.
        """
        counts = ValueCounts(attributes)
        counts.add(records)
        return cls(counts.weights())

    @classmethod
    def from_clusters(
        cls,
        clusters: Iterable[dict],
        groups: Tuple[str, ...] = ("person",),
        attributes: Optional[Sequence[str]] = None,
    ) -> "HeterogeneityScorer":
        """Entropy weights from one record per cluster (Section 6.3)."""
        representatives = []
        for cluster in clusters:
            records = cluster.get("records") or []
            if records:
                representatives.append(record_view(records[0], groups))
        return cls.from_records(representatives, attributes)

    def value_row(self, flat: Dict[str, str]) -> Tuple[str, ...]:
        """The stripped values of a flat record, one per value-row column."""
        return tuple([(flat.get(a) or "").strip() for a in self._attributes])

    def row_heterogeneity(
        self,
        left: Tuple[str, ...],
        right: Tuple[str, ...],
        cache: Dict[Tuple[str, str], float],
    ) -> float:
        """Weighted average inverse value similarity of two value rows.

        ``cache`` memoises the four-way similarity of each unequal value
        pair under its canonical ``(low, high)`` key (the measure is exactly
        symmetric).  An equal pair is skipped: it would add ``weight * 0.0``,
        which changes no bit of the running sum.  The result is therefore
        bit-identical to summing every attribute in weight-map order.
        """
        total = 0.0
        for weight, value_left, value_right in zip(self._row_weights, left, right):
            if value_left == value_right:
                continue
            if value_left < value_right:
                key = (value_left, value_right)
            else:
                key = (value_right, value_left)
            similarity = cache.get(key)
            if similarity is None:
                similarity = cache[key] = _four_way_cached(key[0], key[1])
            total += weight * (1.0 - similarity)
        return total

    def pair_heterogeneity(self, left: Dict[str, str], right: Dict[str, str]) -> float:
        """Weighted average inverse value similarity of two flat records."""
        return self.row_heterogeneity(self.value_row(left), self.value_row(right), {})

    def pair_heterogeneities(self, records: Sequence[Dict[str, str]]) -> List[float]:
        """All pairwise heterogeneity scores ``(0, 1), (0, 2), (1, 2), ...``."""
        rows = [self.value_row(record) for record in records]
        cache: Dict[Tuple[str, str], float] = {}
        return [
            self.row_heterogeneity(rows[i], rows[j], cache)
            for j in range(1, len(rows))
            for i in range(j)
        ]

    def record_heterogeneities(self, records: Sequence[Dict[str, str]]) -> List[float]:
        """Per-record heterogeneity: average distance to the other records."""
        count = len(records)
        if count < 2:
            return [0.0] * count
        matrix = [[0.0] * count for _ in range(count)]
        scores = iter(self.pair_heterogeneities(records))
        for j in range(1, count):
            for i in range(j):
                matrix[i][j] = matrix[j][i] = next(scores)
        return [sum(row) / (count - 1) for row in matrix]

    def cluster_heterogeneity(self, records: Sequence[Dict[str, str]]) -> float:
        """Average record heterogeneity (0 for singletons)."""
        per_record = self.record_heterogeneities(records)
        if not per_record:
            return 0.0
        return sum(per_record) / len(per_record)

    def score_cluster_document(
        self,
        cluster: dict,
        groups: Tuple[str, ...] = ("person",),
        version: Optional[int] = None,
    ) -> Dict[int, Dict[int, float]]:
        """Version-similarity maps ``{j: {i: score}}`` for a cluster document."""
        return self._cluster_maps(cluster["records"], groups, version, {})

    def _cluster_maps(
        self,
        records: Sequence[dict],
        groups: Tuple[str, ...],
        version: Optional[int],
        cache: Dict[Tuple[str, str], float],
    ) -> Dict[int, Dict[int, float]]:
        rows = [self.value_row(record_view(record, groups)) for record in records]
        maps: Dict[int, Dict[int, float]] = {}
        for j in range(1, len(records)):
            if version is not None and records[j]["first_version"] != version:
                continue
            maps[j] = {
                i: self.row_heterogeneity(rows[i], rows[j], cache) for i in range(j)
            }
        return maps

    def score_clusters(
        self,
        clusters: Iterable[dict],
        groups: Tuple[str, ...] = ("person",),
        version: Optional[int] = None,
        cache: Optional[Dict[Tuple[str, str], float]] = None,
    ) -> Dict[str, Dict[int, Dict[int, float]]]:
        """Batched version-similarity maps for many clusters, by ``ncid``.

        Each record becomes one value row, and each *distinct* value pair
        across all requested clusters is scored exactly once through a
        shared cache.  Scores are bit-identical to
        :meth:`score_cluster_document` per cluster.  Pass an explicit
        ``cache`` dict to share pair-deduplication across multiple calls
        (e.g. per-shard workers scoring several batches).
        """
        if cache is None:
            cache = {}
        return {
            cluster["ncid"]: self._cluster_maps(cluster["records"], groups, version, cache)
            for cluster in clusters
        }
