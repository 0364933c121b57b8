"""Naive reference cluster scoring (the oracle for the batched fast paths).

Mirrors :func:`repro.core.plausibility.score_cluster`,
:meth:`repro.core.heterogeneity.HeterogeneityScorer.score_cluster_document`
and the customisation scan of :func:`repro.core.customize.customize`, but
computes every record pair from scratch through the naive string kernels
in :mod:`repro.textsim._reference` — no value rows, no caching, no pair
deduplication, no prefix stripping.  Tests assert the production paths are
bit-identical to this module; the scoring benchmark measures their speedup
against it.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.clusters import record_view
from repro.core.plausibility import (
    WEIGHTS,
    name_tokens,
    sex_similarity,
    year_of_birth,
    year_of_birth_similarity,
)
from repro.textsim import _reference as textref


def name_similarity_reference(left: Dict[str, str], right: Dict[str, str]) -> float:
    """Best-permutation name similarity via the naive kernels."""
    tokens_left = name_tokens(left)
    tokens_right = name_tokens(right)
    best = 0.0
    for permutation in itertools.permutations(range(3)):
        total = sum(
            textref.extended_damerau_levenshtein_similarity(
                tokens_left[index], tokens_right[permutation[index]]
            )
            for index in range(3)
        )
        best = max(best, total / 3.0)
        if best == 1.0:
            break
    return best


def pair_plausibility_reference(
    left: Dict[str, str],
    right: Dict[str, str],
    snapshot_left: Optional[str] = None,
    snapshot_right: Optional[str] = None,
) -> float:
    """Weighted pair plausibility via the naive kernels."""
    scores = {
        "name": name_similarity_reference(left, right),
        "sex": sex_similarity(left, right),
        "yob": year_of_birth_similarity(
            year_of_birth(left, snapshot_left), year_of_birth(right, snapshot_right)
        ),
        "birth_place": textref.extended_damerau_levenshtein_similarity(
            (left.get("birth_place") or "").strip(),
            (right.get("birth_place") or "").strip(),
        ),
    }
    total_weight = sum(WEIGHTS.values())
    return sum(WEIGHTS[key] * scores[key] for key in scores) / total_weight


def _flat(record_doc: dict) -> Tuple[Dict[str, str], str]:
    flat = record_view(record_doc, ("person",))
    snapshots = record_doc.get("snapshots") or []
    return flat, (snapshots[0] if snapshots else "")


def score_cluster_reference(
    cluster: dict, version: Optional[int] = None
) -> Dict[int, Dict[int, float]]:
    """Naive plausibility maps ``{j: {i: score}}`` for one cluster."""
    records = cluster["records"]
    flats = [_flat(record) for record in records]
    maps: Dict[int, Dict[int, float]] = {}
    for j in range(1, len(records)):
        if version is not None and records[j]["first_version"] != version:
            continue
        row: Dict[int, float] = {}
        for i in range(j):
            left, snap_left = flats[i]
            right, snap_right = flats[j]
            row[i] = pair_plausibility_reference(left, right, snap_left, snap_right)
        maps[j] = row
    return maps


def score_plausibility_reference(
    clusters: Iterable[dict], version: Optional[int] = None
) -> Dict[str, Dict[int, Dict[int, float]]]:
    """Naive plausibility maps for many clusters, keyed by ``ncid``."""
    return {
        cluster["ncid"]: score_cluster_reference(cluster, version)
        for cluster in clusters
    }


def pair_heterogeneity_reference(
    weights: Dict[str, float], left: Dict[str, str], right: Dict[str, str]
) -> float:
    """Weighted average inverse value similarity via the naive kernels."""
    total = 0.0
    for attribute, weight in weights.items():
        if weight == 0.0:
            continue
        value_left = (left.get(attribute) or "").strip()
        value_right = (right.get(attribute) or "").strip()
        similarity = textref.four_way_similarity(value_left, value_right)
        total += weight * (1.0 - similarity)
    return total


def score_heterogeneity_reference(
    weights: Dict[str, float],
    clusters: Iterable[dict],
    groups: Tuple[str, ...] = ("person",),
    version: Optional[int] = None,
) -> Dict[str, Dict[int, Dict[int, float]]]:
    """Naive heterogeneity maps for many clusters, keyed by ``ncid``."""
    results: Dict[str, Dict[int, Dict[int, float]]] = {}
    for cluster in clusters:
        records = cluster["records"]
        flats = [record_view(record, groups) for record in records]
        maps: Dict[int, Dict[int, float]] = {}
        for j in range(1, len(records)):
            if version is not None and records[j]["first_version"] != version:
                continue
            row: Dict[int, float] = {}
            for i in range(j):
                row[i] = pair_heterogeneity_reference(weights, flats[i], flats[j])
            maps[j] = row
        results[cluster["ncid"]] = maps
    return results


def reduce_cluster_reference(
    weights: Dict[str, float],
    flats: Sequence[Dict[str, str]],
    h_lo: float,
    h_hi: float,
) -> List[int]:
    """The customisation scan, scoring each pair of flat records afresh."""
    kept: List[int] = []
    for index, flat in enumerate(flats):
        if not kept:
            kept.append(index)
            continue
        in_range = True
        for kept_index in kept:
            score = pair_heterogeneity_reference(weights, flats[kept_index], flat)
            if not h_lo <= score <= h_hi:
                in_range = False
                break
        if in_range:
            kept.append(index)
    return kept


def customize_reference(
    clusters: Sequence[dict],
    weights: Dict[str, float],
    h_lo: float,
    h_hi: float,
    target_clusters: int = 10_000,
    sample_clusters: Optional[int] = None,
    groups: Tuple[str, ...] = ("person",),
    seed: int = 0,
    min_cluster_size: int = 2,
) -> Tuple[List[Dict[str, str]], List[str]]:
    """``(records, cluster_of)`` of a customised dataset, naively.

    ``clusters`` are the store's cluster documents in store order; the
    sample is drawn from them with the same ``random.Random(seed)`` draw.
    """
    clusters = list(clusters)
    if sample_clusters is not None and sample_clusters < len(clusters):
        clusters = random.Random(seed).sample(clusters, sample_clusters)
    reduced = []
    for cluster in clusters:
        flats = [record_view(record, groups) for record in cluster["records"]]
        kept = reduce_cluster_reference(weights, flats, h_lo, h_hi)
        if len(kept) >= min_cluster_size:
            reduced.append((cluster["ncid"], [flats[i] for i in kept]))
    reduced.sort(key=lambda item: (-len(item[1]), item[0]))
    records: List[Dict[str, str]] = []
    cluster_of: List[str] = []
    for ncid, flats in reduced[:target_clusters]:
        records.extend(flats)
        cluster_of.extend([ncid] * len(flats))
    return records, cluster_of
