"""The test-data generator: snapshot import, dedup, storage, versioning.

This is the paper's generation process (Section 4) plus the update process
of Section 5.1: snapshots are imported one after another; per cluster
(NCID), a record is only imported when its MD5 hash is not already present
at the configured removal level; every imported record is tagged with the
version that introduced it and the snapshots containing it, which makes
every earlier dataset version reconstructible (Section 5.1.2).

Imports accumulate in memory for speed and are written through to the
aggregate-oriented document store on :meth:`TestDataGenerator.publish` —
one document per cluster, exactly the layout of Section 5.  Records are
never removed or reordered (Section 5.1.2), so every change to a stored
cluster is an append: writers record the paths they write, and publish
sends each cluster only those paths.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.clusters import duplicate_pair_count, split_record
from repro.core.hashing import record_hash
from repro.core.levels import RemovalLevel
from repro.core.profile import NC_VOTER_PROFILE, SchemaProfile
from repro.docstore import Database
from repro.votersim.snapshots import Snapshot


@dataclasses.dataclass
class ImportStats:
    """Per-snapshot import statistics (the raw material of Table 1)."""

    snapshot_date: str
    rows: int
    new_records: int
    new_clusters: int
    skipped: int

    @property
    def new_record_rate(self) -> float:
        """Share of snapshot rows that were new records."""
        return self.new_records / self.rows if self.rows else 0.0

    @property
    def new_object_rate(self) -> float:
        """Share of new records that started a new cluster."""
        return self.new_clusters / self.new_records if self.new_records else 0.0


class TestDataGenerator:
    """Generates, stores and versions the duplicate-detection test dataset.

    Parameters
    ----------
    removal:
        The duplicate-removal strictness (Table 2); defaults to ``TRIMMED``,
        the level the published dataset uses.
    database:
        The document store database to publish into; a fresh in-memory
        :class:`~repro.docstore.Database` by default.
    """

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        removal: RemovalLevel = RemovalLevel.TRIMMED,
        database: Optional[Database] = None,
        profile: SchemaProfile = NC_VOTER_PROFILE,
    ) -> None:
        self.removal = removal
        self.profile = profile
        self.database = database or Database(profile.name)
        self._clusters: Dict[str, dict] = {}
        #: Per cluster, the paths (segment tuples) written since the last
        #: publish; ``None`` marks a cluster the store has not seen yet.
        self._dirty: Dict[str, Optional[List[Tuple[str, ...]]]] = {}
        self.current_version = 0
        self.import_stats: List[ImportStats] = []
        self._imported_snapshots: List[str] = []

    @classmethod
    def from_database(
        cls,
        database: Database,
        removal: RemovalLevel = RemovalLevel.TRIMMED,
        profile: SchemaProfile = NC_VOTER_PROFILE,
    ) -> "TestDataGenerator":
        """Rebuild a generator from a previously published database.

        Restores the cluster map, the current version number and the list
        of already-imported snapshots (from the latest version document),
        so an interrupted multi-snapshot ingest can resume exactly where
        the last durably committed version left off (see
        :meth:`repro.core.versioning.UpdateProcess.resume`).
        """
        generator = cls(removal=removal, database=database, profile=profile)
        if "clusters" in database:
            for cluster in database["clusters"].all():
                generator._clusters[cluster["ncid"]] = cluster
        if "versions" in database:
            latest = database["versions"].find(sort=[("version", -1)], limit=1)
            if latest:
                generator.current_version = latest[0]["version"]
                generator._imported_snapshots = list(
                    latest[0].get("snapshots", [])
                )
        return generator

    # --------------------------------------------------------------- import

    def _wrote(self, ncid: str, *path: str) -> None:
        """Record that ``path`` of stored cluster ``ncid`` was written."""
        paths = self._dirty.setdefault(ncid, [])
        if paths is not None:
            paths.append(path)

    @property
    def pending_version(self) -> int:
        """The version number the next :meth:`publish` will assign."""
        return self.current_version + 1

    def import_snapshot(self, snapshot: Snapshot) -> ImportStats:
        """Import one snapshot (step 1 of the update process, Figure 2)."""
        hash_attributes = self.removal.hash_attributes_for(self.profile)
        trim = self.removal.trims
        new_records = 0
        new_clusters = 0
        skipped = 0
        for record in snapshot.records:
            ncid = (record.get(self.profile.id_attribute) or "").strip()
            if not ncid:
                skipped += 1
                continue
            cluster = self._clusters.get(ncid)
            if cluster is None:
                cluster = {
                    "_id": ncid,
                    "ncid": ncid,
                    "records": [],
                    "meta": {
                        "hashes": [],
                        "inserts_per_snapshot": {},
                        "first_version": self.pending_version,
                    },
                }
                self._clusters[ncid] = cluster
                self._dirty[ncid] = None
                new_clusters += 1
            if hash_attributes is None:
                digest = record_hash(
                    record, self.profile.hash_attributes(), trim=False
                )
            else:
                digest = record_hash(record, hash_attributes, trim=trim)
            records = cluster["records"]
            known = digest in cluster["meta"]["hashes"] and hash_attributes is not None
            if known:
                # Near-exact duplicate: only remember the snapshot membership
                # of the already stored record (reproducibility, Section 5.1.2).
                for position, stored in enumerate(records):
                    if stored["hash"] == digest:
                        dates = stored["snapshots"]
                        if snapshot.date not in dates:
                            self._wrote(
                                ncid, "records", str(position),
                                "snapshots", str(len(dates)),
                            )
                            dates.append(snapshot.date)
                        break
                skipped += 1
                continue
            record_doc = split_record(record, self.profile)
            record_doc["hash"] = digest
            record_doc["first_version"] = self.pending_version
            record_doc["snapshots"] = [snapshot.date]
            record_doc["plausibility"] = {}
            record_doc["heterogeneity"] = {}
            record_doc["heterogeneity_person"] = {}
            self._append_record(ncid, record_doc)
            inserts = cluster["meta"]["inserts_per_snapshot"]
            inserts[snapshot.date] = inserts.get(snapshot.date, 0) + 1
            self._wrote(ncid, "meta", "inserts_per_snapshot", snapshot.date)
            new_records += 1
        stats = ImportStats(
            snapshot_date=snapshot.date,
            rows=len(snapshot.records),
            new_records=new_records,
            new_clusters=new_clusters,
            skipped=skipped,
        )
        self.import_stats.append(stats)
        self._imported_snapshots.append(snapshot.date)
        return stats

    def _append_record(self, ncid: str, record_doc: dict) -> None:
        """Append a record and its hash to cluster ``ncid``, recording both."""
        cluster = self._clusters[ncid]
        self._wrote(ncid, "records", str(len(cluster["records"])))
        cluster["records"].append(record_doc)
        hashes = cluster["meta"]["hashes"]
        self._wrote(ncid, "meta", "hashes", str(len(hashes)))
        hashes.append(record_doc["hash"])

    def import_snapshots(self, snapshots: Iterable[Snapshot]) -> List[ImportStats]:
        """Import several snapshots in order."""
        return [self.import_snapshot(snapshot) for snapshot in snapshots]

    # ---------------------------------------------------------------- access

    def clusters(self) -> Iterator[dict]:
        """Iterate the (live, in-memory) cluster documents."""
        for ncid in self._clusters:
            yield self._clusters[ncid]

    def cluster(self, ncid: str) -> Optional[dict]:
        """Return one cluster document or ``None``."""
        return self._clusters.get(ncid)

    @property
    def cluster_count(self) -> int:
        """Number of duplicate clusters (real-world entities)."""
        return len(self._clusters)

    @property
    def record_count(self) -> int:
        """Total records across all clusters."""
        return sum(len(cluster["records"]) for cluster in self._clusters.values())

    @property
    def duplicate_pair_count(self) -> int:
        """Total duplicate pairs implied by the clusters."""
        return sum(
            duplicate_pair_count(len(cluster["records"]))
            for cluster in self._clusters.values()
        )

    def gold_pairs(self) -> Iterator[Tuple[Tuple[str, int], Tuple[str, int]]]:
        """Yield the gold standard as ``((ncid, i), (ncid, j))`` pairs."""
        for ncid, cluster in self._clusters.items():
            count = len(cluster["records"])
            for j in range(1, count):
                for i in range(j):
                    yield (ncid, i), (ncid, j)

    # ------------------------------------------------------------ versioning

    def publish(self, note: str = "") -> int:
        """Assign a new version and write clusters through to the store.

        Step 3 of the update process (Figure 2): bump the version number,
        record version metadata, publish.  Returns the new version number.

        Only the changes since the last publish are written, as one batch
        per kind.  Clusters new to the store are inserted whole with one
        ``insert_many``, in ncid order.  Each stored cluster sends the
        post-states of the paths written since, in ascending position,
        through one :meth:`~repro.docstore.Collection.write_by_id` call for
        the whole version, which the WAL journals as one append of
        per-cluster deltas.  Both calls copy what they store, because the
        generator keeps mutating its clusters.
        """
        self.current_version += 1
        clusters = self.database.get_collection("clusters")
        if "ncid_hash" not in clusters.index_names():
            clusters.create_index("ncid", "hash")
        # Range reads over cluster age (records_at_version-style queries)
        # plan through a sorted index instead of scanning every cluster.
        if "meta.first_version_sorted" not in clusters.index_names():
            clusters.create_index("meta.first_version", "sorted")
        dirty = sorted(self._dirty.items())
        clusters.insert_many(
            self._clusters[ncid] for ncid, paths in dirty if paths is None
        )
        clusters.write_by_id(
            [(ncid, _delta(self._clusters[ncid], paths)) for ncid, paths in dirty if paths]
        )
        self._dirty.clear()
        versions = self.database.get_collection("versions")
        # Version listings sort on "version"; the sorted index lets those
        # reads stream in index order (plan: index_order).
        if "version_sorted" not in versions.index_names():
            versions.create_index("version", "sorted")
        versions.insert_one(
            {
                "_id": self.current_version,
                "version": self.current_version,
                "note": note,
                "removal": self.removal.value,
                "profile": self.profile.name,
                "snapshots": list(self._imported_snapshots),
                "records": self.record_count,
                "clusters": self.cluster_count,
                "duplicate_pairs": self.duplicate_pair_count,
            }
        )
        # A publish is the transaction boundary: on a durable database this
        # seals the version into a committed epoch (no-op for in-memory).
        self.database.commit()
        return self.current_version

    def records_at_version(self, cluster: dict, version: int) -> List[dict]:
        """The cluster's records as they existed at ``version``.

        Because no record is ever removed and the order never changes,
        filtering on ``first_version`` reconstructs any earlier version
        exactly (Section 5.1.2).
        """
        return [
            record
            for record in cluster["records"]
            if record["first_version"] <= version
        ]

    def records_in_snapshots(self, cluster: dict, snapshots: Iterable[str]) -> List[dict]:
        """The cluster's records restricted to a subset of snapshots."""
        wanted = set(snapshots)
        return [
            record
            for record in cluster["records"]
            if wanted.intersection(record["snapshots"])
        ]


def _delta(cluster: dict, paths: List[Tuple[str, ...]]) -> List[List[Any]]:
    """``[dotted path, value]`` writes of ``cluster``'s value at each path.

    A key containing ``.`` cannot be addressed, so it is written through
    its parent; a path under another written path is dropped.  Writes come
    in ascending position (numeric segments compare as numbers).
    """
    written = set()
    for path in paths:
        for depth, segment in enumerate(path):
            if "." in segment:
                path = path[:depth]
                break
        written.add(path)
    writes: List[List[Any]] = []
    for path in sorted(written, key=_position_key):
        if any(path[:depth] in written for depth in range(1, len(path))):
            continue
        value: Any = cluster
        for segment in path:
            value = value[int(segment)] if isinstance(value, list) else value[segment]
        writes.append([".".join(path), value])
    return writes


def _position_key(path: Tuple[str, ...]) -> List[Tuple[int, int, str]]:
    return [
        (0, int(segment), "") if segment.isdigit() else (1, 0, segment)
        for segment in path
    ]
