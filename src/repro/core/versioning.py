"""The update process of Figure 2 and version-similarity map maintenance.

An update is triggered because new snapshots are available or new statistics
are required.  It runs in three steps:

1. import the new snapshots (skipped for statistics-only updates);
2. update statistics — plausibility and heterogeneity scores are computed
   for every record pair where at least one side is new, and appended to
   the records' version-similarity maps keyed by the pending version;
3. assign the new version number, update version metadata and publish.

Because the maps are keyed by version and record order never changes, the
scores of any earlier version can be reconstructed without recomputation
(Section 5.2).

Plausibility is domain-specific (Section 6.2: it "heavily depends on the
domain of the data"), so :class:`UpdateProcess` accepts a custom
``plausibility_fn``; the built-in voter scorer is used for the NC profile
and plausibility is skipped for other domains unless a scorer is supplied.
Heterogeneity is domain-independent by design (entropy weights, same
measure everywhere) and always computed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.generator import TestDataGenerator
from repro.core.heterogeneity import HeterogeneityScorer
from repro.core.levels import RemovalLevel
from repro.core.parallel import score_clusters_parallel
from repro.core.plausibility import score_cluster
from repro.core.profile import NC_VOTER_PROFILE, SchemaProfile
from repro.votersim.snapshots import Snapshot

#: Signature of a plausibility scorer: ``(cluster, version) -> {j: {i: s}}``.
PlausibilityFn = Callable[[dict, Optional[int]], Dict[int, Dict[int, float]]]


class UpdateProcess:
    """Runs import → statistics → publish cycles on a generator.

    ``workers``/``shards`` control the scoring stage: ``workers=0`` (the
    default) scores all clusters in-process through the batched fast paths;
    ``workers=N`` shards the clusters by ncid (``shards`` of them, default
    one per worker) and fans the scoring out over a process pool.  Results
    are identical either way — scores are pure functions of the cluster
    documents and the shard merge is deterministic (see
    :mod:`repro.core.parallel`).  A custom ``plausibility_fn`` is always
    applied in-process (it may close over arbitrary state); the built-in
    voter scorer ships to the workers.  ``workers < 0`` or ``shards < 1``
    raises :class:`ValueError` before anything runs.
    """

    def __init__(
        self,
        generator: TestDataGenerator,
        plausibility_fn: Optional[PlausibilityFn] = None,
        workers: int = 0,
        shards: Optional[int] = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if shards is not None and shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.generator = generator
        self._builtin_plausibility = (
            plausibility_fn is None and generator.profile is NC_VOTER_PROFILE
        )
        if self._builtin_plausibility:
            plausibility_fn = lambda cluster, version: score_cluster(
                cluster, version=version
            )
        self.plausibility_fn = plausibility_fn
        self.workers = workers
        self.shards = shards

    @classmethod
    def resume(
        cls,
        store: Path,
        *,
        removal: RemovalLevel = RemovalLevel.TRIMMED,
        profile: SchemaProfile = NC_VOTER_PROFILE,
        plausibility_fn: Optional[PlausibilityFn] = None,
        workers: int = 0,
        shards: Optional[int] = None,
        durable: bool = True,
        fsync_batch: int = 0,
    ) -> "UpdateProcess":
        """Reopen ``store`` and continue from the last committed version.

        Opens the directory as a :class:`~repro.docstore.DurableDatabase`
        (running crash recovery if the previous run died mid-update) and
        rebuilds the generator from the published clusters and version
        metadata.  Snapshots that the last durably committed version
        already ingested are skipped by :meth:`run_incremental`, so an
        interrupted multi-snapshot ingest restarts exactly where it left
        off.  ``durable=False`` resumes from a plain snapshot directory
        without write-ahead logging.
        """
        from repro.docstore import Database, DurableDatabase

        if durable:
            database: Database = DurableDatabase(
                Path(store), profile.name, fsync_batch=fsync_batch
            )
        else:
            database = Database.load(Path(store), profile.name)
        generator = TestDataGenerator.from_database(
            database, removal=removal, profile=profile
        )
        return cls(
            generator,
            plausibility_fn=plausibility_fn,
            workers=workers,
            shards=shards,
        )

    def run(
        self,
        snapshots: Iterable[Snapshot] = (),
        compute_statistics: bool = True,
        note: str = "",
    ) -> int:
        """Execute one full update; returns the published version number."""
        stats = self.generator.import_snapshots(snapshots)
        if compute_statistics:
            self.update_statistics()
        label = note or (
            f"import of {len(stats)} snapshot(s)" if stats else "statistics update"
        )
        return self.generator.publish(note=label)

    def run_incremental(
        self,
        snapshots: Iterable[Snapshot],
        compute_statistics: bool = True,
        checkpoint_every: int = 0,
    ) -> List[int]:
        """Import each snapshot as its own published (committed) version.

        Snapshots whose date the generator has already ingested — tracked
        in the version metadata, restored by :meth:`resume` — are skipped,
        so rerunning the same snapshot list after a crash continues from
        the first unfinished snapshot instead of re-importing.  Each
        snapshot is published (and, on a durable database, committed)
        before the next begins; ``checkpoint_every=N`` additionally folds
        the write-ahead logs into a fresh snapshot after every N versions.
        Returns the version numbers published by this call.
        """
        done = set(self.generator._imported_snapshots)
        published: List[int] = []
        for snapshot in snapshots:
            if snapshot.date in done:
                continue
            stats = self.generator.import_snapshot(snapshot)
            done.add(snapshot.date)
            if compute_statistics:
                self.update_statistics()
            version = self.generator.publish(
                note=f"incremental import of {stats.snapshot_date}"
            )
            published.append(version)
            if checkpoint_every and len(published) % checkpoint_every == 0:
                checkpoint = getattr(self.generator.database, "checkpoint", None)
                if callable(checkpoint):
                    checkpoint()
        return published

    def update_statistics(self) -> None:
        """Step 2: extend the version-similarity maps for new records.

        All clusters are scored through the batched fast paths (global pair
        deduplication); with ``workers > 0`` the batch is sharded by ncid
        and scored in a process pool — bit-identical results either way.
        """
        generator = self.generator
        profile = generator.profile
        version = generator.pending_version
        clusters = list(generator.clusters())
        if not clusters:
            return
        shards = self.shards if self.shards is not None else max(self.workers, 1)
        all_groups = profile.group_names
        primary_groups = (profile.primary_group,)
        heterogeneity_all = _build_scorer(clusters, all_groups, None)
        heterogeneity_primary = _build_scorer(
            clusters,
            primary_groups,
            tuple(
                a for a in profile.primary_attributes() if a != profile.id_attribute
            ),
        )
        scored = score_clusters_parallel(
            clusters,
            version,
            with_plausibility=self._builtin_plausibility,
            heterogeneity_all=heterogeneity_all,
            heterogeneity_primary=heterogeneity_primary,
            all_groups=all_groups,
            primary_groups=primary_groups,
            shards=shards,
            max_workers=self.workers,
        )
        for cluster in clusters:
            maps_by_kind = scored.get(cluster["ncid"], {})
            if "plausibility" in maps_by_kind:
                _apply_maps(
                    generator, cluster, "plausibility",
                    maps_by_kind["plausibility"], version,
                )
            elif self.plausibility_fn is not None:
                # Custom scorers may close over arbitrary state — in-process.
                _apply_maps(
                    generator,
                    cluster,
                    "plausibility",
                    self.plausibility_fn(cluster, version),
                    version,
                )
            for kind in ("heterogeneity", "heterogeneity_person"):
                if kind in maps_by_kind:
                    _apply_maps(
                        generator, cluster, kind, maps_by_kind[kind], version
                    )


def _build_scorer(
    clusters: List[dict],
    groups: Tuple[str, ...],
    attributes: Optional[Tuple[str, ...]],
) -> Optional[HeterogeneityScorer]:
    if not clusters:
        return None
    return HeterogeneityScorer.from_clusters(clusters, groups, attributes)


def _apply_maps(
    generator: TestDataGenerator,
    cluster: dict,
    kind: str,
    maps: Dict[int, Dict[int, float]],
    version: int,
) -> None:
    """Append ``{j: {i: score}}`` maps under ``version`` in each record.

    Each map is recorded as a written path, so the next publish sends it.
    """
    records = cluster["records"]
    for j, row in maps.items():
        store = records[j].setdefault(kind, {})
        store[str(version)] = {str(i): round(score, 6) for i, score in row.items()}
        generator._wrote(cluster["ncid"], "records", str(j), kind, str(version))


def similarity_at_version(record_doc: dict, kind: str, version: int) -> Dict[int, float]:
    """Scores of ``record_doc`` against earlier records, as of ``version``.

    Merges every version-similarity map with version <= ``version``; later
    maps never overwrite earlier pairs (record order is immutable), so the
    merge is exactly the historical state.
    """
    merged: Dict[int, float] = {}
    for version_key, row in sorted(
        (record_doc.get(kind) or {}).items(), key=lambda item: int(item[0])
    ):
        if int(version_key) > version:
            continue
        for index_key, score in row.items():
            merged[int(index_key)] = score
    return merged
