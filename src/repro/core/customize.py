"""Heterogeneity-bounded customisation — the NC1/NC2/NC3 procedure.

Section 6.5, three steps:

1. fix a heterogeneity range ``[h_lo, h_hi]``;
2. sample clusters, scan each cluster's records in order and drop every
   record whose heterogeneity to the preceding *kept* records falls outside
   the range;
3. sort the reduced clusters by size and keep the ``k`` largest as the
   customised test dataset.

The output is a flat test dataset: records (restricted to the requested
attribute groups) plus the gold standard implied by the surviving clusters.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.clusters import record_view
from repro.core.generator import TestDataGenerator
from repro.core.heterogeneity import HeterogeneityScorer


@dataclasses.dataclass
class CustomizationResult:
    """A customised test dataset (e.g. NC1, NC2 or NC3)."""

    name: str
    heterogeneity_range: Tuple[float, float]
    #: Flat records; position is the record id used in ``gold_pairs``.
    records: List[Dict[str, str]]
    #: record id -> cluster id (NCID).
    cluster_of: List[str]
    #: Gold standard over record ids.
    gold_pairs: Set[Tuple[int, int]]

    @property
    def record_count(self) -> int:
        """Number of records in the dataset."""
        return len(self.records)

    @property
    def cluster_count(self) -> int:
        """Number of distinct clusters in the dataset."""
        return len(set(self.cluster_of))

    def cluster_sizes(self) -> Dict[str, int]:
        """Map of cluster id to its record count."""
        sizes: Dict[str, int] = {}
        for ncid in self.cluster_of:
            sizes[ncid] = sizes.get(ncid, 0) + 1
        return sizes

    @property
    def max_cluster_size(self) -> int:
        """Size of the largest cluster."""
        sizes = self.cluster_sizes()
        return max(sizes.values()) if sizes else 0

    @property
    def avg_cluster_size(self) -> float:
        """Average records per cluster."""
        sizes = self.cluster_sizes()
        return len(self.cluster_of) / len(sizes) if sizes else 0.0

    def heterogeneity_stats(self, scorer: HeterogeneityScorer) -> Tuple[float, float]:
        """(average, maximum) pair heterogeneity of the dataset."""
        by_cluster: Dict[str, List[Dict[str, str]]] = {}
        for record, ncid in zip(self.records, self.cluster_of):
            by_cluster.setdefault(ncid, []).append(record)
        scores: List[float] = []
        for records in by_cluster.values():
            scores.extend(scorer.pair_heterogeneities(records))
        if not scores:
            return 0.0, 0.0
        return sum(scores) / len(scores), max(scores)


def reduce_cluster(
    flats: Sequence[Dict[str, str]],
    scorer: HeterogeneityScorer,
    h_lo: float,
    h_hi: float,
) -> List[int]:
    """Indices of the records kept by the in-order heterogeneity scan.

    The first record is always kept; each later record is kept only when
    its heterogeneity to *every* preceding kept record lies in
    ``[h_lo, h_hi]``.  Each record becomes one value row, and the rows are
    compared through a value-pair memo that lives for this call.
    """
    rows = [scorer.value_row(flat) for flat in flats]
    cache: Dict[Tuple[str, str], float] = {}
    score = scorer.row_heterogeneity
    kept: List[int] = []
    for index, row in enumerate(rows):
        if all(h_lo <= score(rows[k], row, cache) <= h_hi for k in kept):
            kept.append(index)
    return kept


def _validate_groups(groups: Sequence[str], generator: TestDataGenerator) -> None:
    """Reject unknown attribute groups before any cluster is scanned.

    A typo'd group would silently produce empty record views (and thus an
    empty or degenerate dataset); failing fast with a did-you-mean hint is
    the whole point of the static-analysis front-end.
    """
    known = tuple(generator.profile.groups)
    unknown = [group for group in groups if group not in generator.profile.groups]
    if not unknown:
        return
    from repro.analysis.registry import did_you_mean

    hints = []
    for group in unknown:
        hint = did_you_mean(str(group), known)
        hints.append(f"{group!r}" + (f" ({hint})" if hint else ""))
    raise ValueError(
        f"unknown attribute group(s) {', '.join(hints)}; "
        f"profile {generator.profile.name!r} has {sorted(known)}"
    )


def customize_from_spec(
    generator: TestDataGenerator,
    spec: Dict[str, Any],
) -> CustomizationResult:
    """Validate a JSON-able customisation spec, then execute it.

    The spec (see :mod:`repro.analysis.customization` for the format) is
    statically validated against the generator's schema profile *before*
    generation starts; error diagnostics raise :class:`ValueError` listing
    every problem (with did-you-mean hints), so a typo'd group, attribute or
    filter operator can never silently distort the dataset.
    """
    from repro.analysis import analyze_customization, errors_only

    diagnostics = analyze_customization(spec, generator.profile)
    errors = errors_only(diagnostics)
    if errors:
        rendered = "\n".join(f"  {d.render()}" for d in errors)
        raise ValueError(
            f"customisation spec rejected by static analysis "
            f"({len(errors)} error(s)):\n{rendered}"
        )
    result = customize(
        generator,
        float(spec.get("h_lo", 0.0)),
        float(spec.get("h_hi", 1.0)),
        target_clusters=int(spec.get("target_clusters", 10_000)),
        sample_clusters=spec.get("sample_clusters"),
        groups=tuple(spec.get("groups") or (generator.profile.primary_group,)),
        name=str(spec.get("name", "custom")),
        seed=int(spec.get("seed", 0)),
        min_cluster_size=int(spec.get("min_cluster_size", 2)),
    )
    transform = spec.get("transform")
    if transform:
        from repro.core.transform import apply_transform_spec

        result = apply_transform_spec(result, transform)
    return result


def customize(
    generator: TestDataGenerator,
    h_lo: float,
    h_hi: float,
    target_clusters: int = 10_000,
    sample_clusters: Optional[int] = None,
    groups: Tuple[str, ...] = ("person",),
    scorer: Optional[HeterogeneityScorer] = None,
    name: str = "custom",
    seed: int = 0,
    min_cluster_size: int = 2,
) -> CustomizationResult:
    """Build a customised test dataset from a generated cluster store.

    ``sample_clusters`` bounds the number of clusters scanned (step 2 picks
    a random sample; ``None`` scans all).  ``scorer`` defaults to entropy
    weights over the first record of every cluster in the store (sampled
    or not), on the profile's ``scored_attributes(groups)``: the groups'
    attributes without the id attribute.  The stored
    ``heterogeneity_person`` scores use the same rule, so for the primary
    group alone these are their weights.

    Each sampled record is flattened once.  :func:`reduce_cluster` scans
    the records' value rows, and the kept records are the flats themselves.
    """
    if not 0.0 <= h_lo <= h_hi <= 1.0:
        raise ValueError(f"need 0 <= h_lo <= h_hi <= 1, got [{h_lo}, {h_hi}]")
    if target_clusters < 1:
        raise ValueError(f"target_clusters must be >= 1, got {target_clusters}")
    _validate_groups(groups, generator)
    clusters = list(generator.clusters())
    if scorer is None:
        scorer = HeterogeneityScorer.from_clusters(
            clusters, groups, generator.profile.scored_attributes(groups)
        )
    rng = random.Random(seed)
    if sample_clusters is not None and sample_clusters < len(clusters):
        clusters = rng.sample(clusters, sample_clusters)

    reduced: List[Tuple[str, List[Dict[str, str]]]] = []
    for cluster in clusters:
        flats = [record_view(record, groups) for record in cluster["records"]]
        kept = reduce_cluster(flats, scorer, h_lo, h_hi)
        if len(kept) < min_cluster_size:
            continue
        reduced.append((cluster["ncid"], [flats[i] for i in kept]))

    reduced.sort(key=lambda item: (-len(item[1]), item[0]))
    selected = reduced[:target_clusters]

    records: List[Dict[str, str]] = []
    cluster_of: List[str] = []
    gold_pairs: Set[Tuple[int, int]] = set()
    for ncid, flats in selected:
        first_id = len(records)
        for flat in flats:
            records.append(flat)
            cluster_of.append(ncid)
        for j in range(first_id + 1, first_id + len(flats)):
            for i in range(first_id, j):
                gold_pairs.add((i, j))
    return CustomizationResult(
        name=name,
        heterogeneity_range=(h_lo, h_hi),
        records=records,
        cluster_of=cluster_of,
        gold_pairs=gold_pairs,
    )
