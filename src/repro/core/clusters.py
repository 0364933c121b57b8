"""Cluster document layout and helpers (Section 5).

One document per voter (duplicate cluster)::

    {
      "_id": "<ncid>",
      "ncid": "<ncid>",
      "records": [
        {
          "person":   {...},       # personal attributes
          "district": {...},       # district attributes
          "election": {...},       # election attributes
          "meta":     {...},       # administrative attributes
          "hash": "<md5>",
          "first_version": 3,       # version that introduced this record
          "snapshots": ["2012-01-01", ...],   # snapshots containing it
          "plausibility": {"<v>": {"<j>": s, ...}},     # version-similarity
          "heterogeneity": {"<v>": {"<j>": s, ...}},    # maps (Section 5.2)
          "heterogeneity_person": {"<v>": {"<j>": s, ...}}
        }, ...
      ],
      "meta": {
        "hashes": [...],                       # for import-time dedup
        "inserts_per_snapshot": {"<date>": n}, # stats reconstruction
        "first_version": 1
      }
    }

Records inside a cluster never change order, which is what makes the
version-similarity maps reconstructible (Section 5.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.profile import SchemaProfile

from repro.votersim.schema import (
    DISTRICT_ATTRIBUTES,
    ELECTION_ATTRIBUTES,
    META_ATTRIBUTES,
    PERSON_ATTRIBUTES,
)

_GROUP_ATTRIBUTES = (
    ("person", PERSON_ATTRIBUTES),
    ("district", DISTRICT_ATTRIBUTES),
    ("election", ELECTION_ATTRIBUTES),
    ("meta", META_ATTRIBUTES),
)


def split_record(
    record: Dict[str, str], profile: Optional["SchemaProfile"] = None
) -> Dict[str, Dict[str, str]]:
    """Split a flat record into the profile's sub-documents.

    ``profile`` defaults to the NC voter schema (the paper's four
    ``person`` / ``district`` / ``election`` / ``meta`` groups).  Empty
    values are dropped — this is the sparse-data handling the paper chose
    the document model for: records with no district data simply have no
    ``district`` keys instead of 38 nulls.
    """
    if profile is None:
        group_attributes = _GROUP_ATTRIBUTES
    else:
        group_attributes = tuple(profile.groups.items())
    parts: Dict[str, Dict[str, str]] = {}
    for group, attributes in group_attributes:
        sub = {}
        for attribute in attributes:
            value = record.get(attribute)
            if value is not None and str(value).strip() != "":
                sub[attribute] = value
        parts[group] = sub
    return parts


def record_view(record_doc: Dict[str, Dict[str, str]], groups: Tuple[str, ...] = ("person",)) -> Dict[str, str]:
    """Flatten the chosen sub-documents of a stored record into a new dict.

    Each group is one C-level copy.  A plain ``dict`` merges directly; any
    other mapping, such as a store read view
    (:class:`~repro.docstore.views.DocumentView`), is copied from its
    ``items()``, which wrap nested containers first.  So the flat never
    holds a raw stored container, and mutating it never reaches the store.
    """
    flat: Dict[str, str] = {}
    for group in groups:
        sub = record_doc.get(group)
        if sub:
            flat.update(sub if sub.__class__ is dict else sub.items())
    return flat


def full_view(record_doc: Dict[str, Dict[str, str]]) -> Dict[str, str]:
    """Flatten all four sub-documents of a stored record."""
    return record_view(record_doc, ("person", "district", "election", "meta"))


def cluster_pairs(cluster: Dict) -> Iterator[Tuple[int, int]]:
    """Yield every index pair ``(i, j)`` with ``i < j`` of a cluster's records."""
    count = len(cluster.get("records", ()))
    for j in range(1, count):
        for i in range(j):
            yield i, j


def duplicate_pair_count(cluster_size: int) -> int:
    """Number of duplicate pairs a cluster of ``cluster_size`` contributes."""
    return cluster_size * (cluster_size - 1) // 2
