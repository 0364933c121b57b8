"""The update process of Figure 2 and version-similarity map maintenance.

An update is triggered because new snapshots are available or new statistics
are required.  It runs in three steps:

1. import the new snapshots (skipped for statistics-only updates);
2. update statistics — plausibility and heterogeneity scores are computed
   for every record pair where at least one side is new, and appended to
   the records' version-similarity maps keyed by the pending version;
3. assign the new version number, update version metadata and publish.

Step 2 costs what a version adds, not what is stored.  It scores only the
clusters that gain a map, those in which a record after the first is new
in the pending version.  Its entropy weights come from value counts that
each update extends with the clusters added since the last one.

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

import operator
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.clusters import record_view
from repro.core.generator import TestDataGenerator
from repro.core.heterogeneity import HeterogeneityScorer, ValueCounts
from repro.core.levels import RemovalLevel
from repro.core.parallel import ScoredMaps, score_clusters_parallel
from repro.core.profile import NC_VOTER_PROFILE, SchemaProfile
from repro.votersim.snapshots import Snapshot

#: Signature of a plausibility scorer: ``(cluster, version) -> {j: {i: s}}``.
PlausibilityFn = Callable[[dict, Optional[int]], Dict[int, Dict[int, float]]]


class UpdateProcess:
    """Runs import → statistics → publish cycles on a generator.

    ``workers``/``shards`` control the scoring stage: ``workers=0`` (the
    default) scores the clusters in-process through the batched fast paths;
    ``workers=N`` shards the clusters by ncid (``shards`` of them, default
    one per worker) and fans the scoring out over a process pool.  Results
    are identical either way — scores are pure functions of the cluster
    documents and the shard merge is deterministic (see
    :mod:`repro.core.parallel`).  A custom ``plausibility_fn`` is always
    applied in-process (it may close over arbitrary state); the built-in
    voter scorer ships to the workers.  ``workers < 0`` or ``shards < 1``
    raises :class:`ValueError` before anything runs.

    The process keeps the entropy value counts of both heterogeneity
    scopes across updates (see :meth:`update_statistics`), so reuse one
    process for a generator's successive versions.
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
        self.plausibility_fn = plausibility_fn
        self.workers = workers
        self.shards = shards
        #: The first records already counted into :attr:`_counts`, in
        #: cluster order.
        self._counted: List[dict] = []
        self._counts = self._new_counts()

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

        Only the clusters in which a record after the first has the pending
        ``first_version`` are scored: they are exactly the clusters that
        receive maps, since a new record is compared with the records
        before it and a cluster's first record has none.  They go through
        the batched fast paths (global pair deduplication); with
        ``workers > 0`` they are sharded by ncid and scored in a process
        pool — bit-identical results either way.  A custom
        ``plausibility_fn`` is still applied to every cluster.

        The heterogeneity weights are entropy weights over the first record
        of every cluster, as :meth:`HeterogeneityScorer.from_clusters`
        computes them.  This process keeps their value counts and extends
        them with the clusters added since its last update.  It counts
        again from the first cluster when the clusters' first records are
        not the counted ones followed by new ones, as after an
        :func:`~repro.core.repair.apply_repair` split replaces a cluster.
        """
        generator = self.generator
        profile = generator.profile
        version = generator.pending_version
        clusters = list(generator.clusters())
        fresh = [
            cluster
            for cluster in clusters
            if any(record["first_version"] == version for record in cluster["records"][1:])
        ]
        scored: ScoredMaps = {}
        if fresh:
            weights_all, weights_primary = self._weights(clusters)
            shards = self.shards if self.shards is not None else max(self.workers, 1)
            scored = score_clusters_parallel(
                fresh,
                version,
                with_plausibility=self._builtin_plausibility,
                heterogeneity_all=HeterogeneityScorer(weights_all),
                heterogeneity_primary=HeterogeneityScorer(weights_primary),
                all_groups=profile.group_names,
                primary_groups=(profile.primary_group,),
                shards=shards,
                max_workers=self.workers,
            )
        # A custom scorer may rescore old records, so it sees every cluster,
        # and may close over arbitrary state, so it runs in-process.
        custom = self.plausibility_fn
        for cluster in fresh if custom is None else clusters:
            if custom is not None:
                _apply_maps(
                    generator, cluster, "plausibility", custom(cluster, version), version
                )
            for kind, maps in scored.get(cluster["ncid"], {}).items():
                _apply_maps(generator, cluster, kind, maps, version)

    def _new_counts(self) -> Tuple[ValueCounts, ValueCounts]:
        """Empty value counts of the all-groups and primary-group scopes.

        Both count the profile's ``scored_attributes`` of their groups, so
        neither weights the id attribute, which never differs inside a
        cluster.
        """
        profile = self.generator.profile
        return (
            ValueCounts(profile.scored_attributes(profile.group_names)),
            ValueCounts(profile.scored_attributes((profile.primary_group,))),
        )

    def _weights(
        self, clusters: List[dict]
    ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Entropy weights of both scopes over the clusters' first records.

        Records are never removed or reordered, so a cluster's first record
        stays its first.  When the counted records are, by identity, the
        first records of the leading clusters, only the rest are counted;
        otherwise the counts start over.
        """
        firsts = [cluster["records"][0] for cluster in clusters if cluster["records"]]
        counted = self._counted
        if len(firsts) < len(counted) or not all(map(operator.is_, counted, firsts)):
            counted.clear()
            self._counts = self._new_counts()
        added = firsts[len(counted):]
        profile = self.generator.profile
        counts_all, counts_primary = self._counts
        counts_all.add([record_view(record, profile.group_names) for record in added])
        counts_primary.add(
            [record_view(record, (profile.primary_group,)) for record in added]
        )
        counted.extend(added)
        return counts_all.weights(), counts_primary.weights()


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
