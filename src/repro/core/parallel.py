"""Parallel snapshot import and parallel cluster scoring.

Two embarrassingly parallel stages share the same sharding scheme
(:func:`shard_of`, a stable seed-free hash of the entity id):

* **Import** (Figure 2: "parallel or sequential import") — every worker
  imports the full snapshot stream filtered to its shard with a private
  :class:`TestDataGenerator`; shard results merge by simple union.
* **Scoring** (Sections 6.2–6.3) — plausibility and heterogeneity maps are
  independent per cluster, so clusters are sharded by ncid and scored with
  the batched fast paths (:func:`repro.core.plausibility.score_clusters`,
  :meth:`repro.core.heterogeneity.HeterogeneityScorer.score_clusters`);
  each worker keeps its own pair-deduplication caches.

Both merges are deterministic: shard assignment depends only on the entity
id, the scored maps are pure functions of the cluster documents, and the
per-cluster results are disjoint — so any shard count (including the
``max_workers=0`` in-process fallback) produces identical output.

Both stages are also fault tolerant (:func:`run_shards`): a crashed
worker retries its shard under a fixed policy (two retry rounds with
exponential backoff), and repeated failure degrades that shard to
in-process execution with a structured :class:`ParallelDegradedWarning`
instead of losing the run.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
import warnings
import zlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.generator import ImportStats, TestDataGenerator
from repro.core.heterogeneity import HeterogeneityScorer
from repro.core.levels import RemovalLevel
from repro.core.plausibility import score_clusters as _score_plausibility_clusters
from repro.core.profile import NC_VOTER_PROFILE, SchemaProfile
from repro.votersim.snapshots import Snapshot

#: ``{ncid: {kind: {j: {i: score}}}}`` — the result layout of parallel scoring.
ScoredMaps = Dict[str, Dict[str, Dict[int, Dict[int, float]]]]


class ParallelDegradedWarning(UserWarning):
    """Parallel execution degraded to in-process after repeated failures.

    Carries the structured context (:attr:`label`, :attr:`shard_indices`,
    :attr:`attempts`, :attr:`cause`) so callers and log processors can act
    on it without parsing the message.  The run still completes — the
    failed shards are recomputed in the parent process — it just loses the
    process-level parallelism for those shards.
    """

    def __init__(
        self,
        label: str,
        shard_indices: Sequence[int],
        attempts: int,
        cause: Optional[BaseException],
    ) -> None:
        self.label = label
        self.shard_indices = list(shard_indices)
        self.attempts = attempts
        self.cause = cause
        super().__init__(
            f"{label}: shard(s) {self.shard_indices} failed "
            f"{attempts} attempt(s) in worker processes "
            f"({cause!r}); degrading to in-process execution"
        )


#: Failures worth retrying: a crashed/killed worker (the pool breaks) or
#: an OS-level resource failure.  Deterministic Python exceptions raised
#: *by the workload itself* propagate unchanged — retrying a genuine bug
#: would only hide it.
_RETRYABLE = (concurrent.futures.BrokenExecutor, OSError)

#: Retry rounds, each with a fresh pool, before failed shards degrade to
#: in-process execution.
_MAX_RETRIES = 2

#: Seconds slept before the first retry round; doubles every round.
_BACKOFF = 0.1


class WorkerClampWarning(UserWarning):
    """A requested worker count exceeded the machine's CPU count.

    Oversubscribing processes (or threads doing pure-Python work under the
    GIL) only adds scheduling overhead, so the pool is clamped to
    ``os.cpu_count()``.  Warned once per call-site label per process.
    """

    def __init__(self, label: str, requested: int, effective: int) -> None:
        self.label = label
        self.requested = requested
        self.effective = effective
        super().__init__(
            f"{label}: requested {requested} workers on a machine with "
            f"{effective} CPU(s); clamping to {effective}"
        )


#: Labels that already warned about clamping (warn-once per process).
#: Process-local by design: each worker process re-warns at most once, and
#: the set only ever grows — no cross-process coordination is needed for
#: correctness because clamping itself is derived purely from os.cpu_count().
_CLAMP_WARNED: set = set()


#: Process-local resilience telemetry for :func:`run_shards`: how many
#: pooled runs happened, how many shard attempts had to be retried, and how
#: many shards ultimately degraded to in-process execution.  Diagnostic
#: counters only — never read back to make decisions — so workers keeping
#: their own (discarded) copies is correct by construction.
_RESILIENCE: Dict[str, int] = {
    "pool_runs": 0,
    "shard_retries": 0,
    "degraded_shards": 0,
}


def resilience_counters() -> Dict[str, int]:
    """A snapshot copy of the process-local resilience counters."""
    return dict(_RESILIENCE)


def reset_resilience_counters() -> None:
    """Zero the resilience counters (test isolation hook)."""
    for key in _RESILIENCE:
        _RESILIENCE[key] = 0


def effective_worker_count(
    requested: Optional[int], label: str = "parallel shards", warn: bool = True
) -> int:
    """``requested`` clamped to the machine's CPU count (0/None stay 0).

    Returns the worker count a pool should actually be sized to.  The first
    time a ``label`` clamps in this process a :class:`WorkerClampWarning`
    is emitted (suppress with ``warn=False``).  A negative request raises
    :class:`ValueError`.
    """
    if not requested:
        return 0
    if requested < 0:
        raise ValueError(f"{label}: workers must be >= 0, got {requested}")
    cpus = os.cpu_count() or 1
    if requested <= cpus:
        return requested
    if warn and label not in _CLAMP_WARNED:
        _CLAMP_WARNED.add(label)
        warnings.warn(WorkerClampWarning(label, requested, cpus), stacklevel=3)
    return cpus


def run_shards(
    worker: Callable[..., Any],
    shard_args: Sequence[Tuple],
    max_workers: Optional[int],
    *,
    label: str = "parallel shards",
) -> List[Any]:
    """Run ``worker(*args)`` per shard with retries and graceful fallback.

    The fault-tolerance contract of every parallel stage in this module:

    * ``max_workers=0``/``None`` — run in-process, sequentially;
    * a worker crash (``BrokenProcessPool``) or OS failure retries only
      the failed shards, with a fresh pool each round and exponential
      backoff (0.1 s before the first retry, doubling);
    * after two retry rounds the surviving failures degrade to
      in-process execution with a :class:`ParallelDegradedWarning` — the
      run never loses data because a worker died.

    Results are returned in ``shard_args`` order.  Shard functions must be
    pure (workers may be retried and re-executed), which every worker in
    this module is by construction.

    A request for more workers than the machine has CPUs is clamped to
    ``os.cpu_count()`` (with a once-per-label :class:`WorkerClampWarning`)
    — oversubscribed process pools only add scheduling overhead.
    """
    max_workers = effective_worker_count(max_workers, label=label)
    if not max_workers:
        return [worker(*args) for args in shard_args]
    _RESILIENCE["pool_runs"] += 1
    results: List[Any] = [None] * len(shard_args)
    pending = list(range(len(shard_args)))
    last_error: Optional[BaseException] = None
    attempts = 0
    for attempt in range(_MAX_RETRIES + 1):
        if not pending:
            break
        if attempt:
            time.sleep(_BACKOFF * (2 ** (attempt - 1)))
        attempts = attempt + 1
        failed: List[int] = []
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(max_workers, len(pending))
        )
        try:
            futures = {
                index: pool.submit(worker, *shard_args[index]) for index in pending
            }
            for index, future in futures.items():
                try:
                    results[index] = future.result()
                except _RETRYABLE as exc:
                    failed.append(index)
                    last_error = exc
        finally:
            # wait=False so a workload exception raised by one shard
            # propagates without waiting out the shards still running.
            pool.shutdown(wait=False, cancel_futures=True)
        _RESILIENCE["shard_retries"] += len(failed)
        pending = failed
    if pending:
        _RESILIENCE["degraded_shards"] += len(pending)
        warnings.warn(
            ParallelDegradedWarning(label, pending, attempts, last_error),
            stacklevel=2,
        )
        for index in pending:
            results[index] = worker(*shard_args[index])
    return results


def shard_of(entity_id: str, shards: int) -> int:
    """Stable shard index of an entity id (crc32-based, seed-free)."""
    return zlib.crc32(entity_id.strip().encode("utf-8")) % shards


def shard_of_int(key: int, shards: int) -> int:
    """Stable shard index of a non-negative integer key (seed-free).

    Used by the duplicate-detection pipeline to shard packed 64-bit pair
    keys (``i * n + j``, see :mod:`repro.dedup.pipeline`).  Plain modulo is
    deliberate: packed keys are already well spread over the key space, the
    assignment depends only on the key and the shard count, and — like
    :func:`shard_of` — it is identical in every process and on every run,
    which is what makes sharded results order-independent and mergeable.
    """
    return key % shards


def _filter_snapshot(snapshot: Snapshot, shard: int, shards: int, id_attribute: str) -> Snapshot:
    records = [
        record
        for record in snapshot.records
        if shard_of(record.get(id_attribute) or "", shards) == shard
    ]
    return Snapshot(date=snapshot.date, records=records)


def _import_shard(
    shard: int,
    shards: int,
    snapshots: Sequence[Snapshot],
    removal_value: str,
    profile: SchemaProfile,
) -> Tuple[int, Dict[str, dict], List[dict]]:
    """Worker: import one shard's records; returns its clusters and stats."""
    generator = TestDataGenerator(
        removal=RemovalLevel(removal_value), profile=profile
    )
    for snapshot in snapshots:
        generator.import_snapshot(
            _filter_snapshot(snapshot, shard, shards, profile.id_attribute)
        )
    stats = [
        {
            "snapshot_date": s.snapshot_date,
            "rows": s.rows,
            "new_records": s.new_records,
            "new_clusters": s.new_clusters,
            "skipped": s.skipped,
        }
        for s in generator.import_stats
    ]
    return shard, generator._clusters, stats


def import_snapshots_parallel(
    generator: TestDataGenerator,
    snapshots: Sequence[Snapshot],
    shards: int = 4,
    max_workers: Optional[int] = None,
) -> List[ImportStats]:
    """Import ``snapshots`` into ``generator`` using sharded parallelism.

    The generator must be empty (parallel import builds the initial load;
    incremental updates go through the sequential path, which dedups
    against existing clusters).  ``max_workers=0`` runs the shards
    sequentially in-process — same results, no process overhead (useful
    for tests and small loads).  Worker crashes are retried and
    ultimately degrade to in-process import (see :func:`run_shards`).
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if generator.cluster_count:
        raise ValueError(
            "parallel import requires an empty generator; use the "
            "sequential import for incremental updates"
        )
    snapshots = list(snapshots)
    results: List[Tuple[int, Dict[str, dict], List[dict]]] = run_shards(
        _import_shard,
        [
            (shard, shards, snapshots, generator.removal.value, generator.profile)
            for shard in range(shards)
        ],
        max_workers,
        label="parallel snapshot import",
    )
    results.sort(key=lambda item: item[0])
    merged_stats: List[ImportStats] = []
    for shard, clusters, stats in results:
        overlap = set(clusters) & set(generator._clusters)
        if overlap:  # pragma: no cover - shard function guarantees disjoint
            raise RuntimeError(f"shards overlap on ids: {sorted(overlap)[:5]}")
        generator._clusters.update(clusters)
        generator._dirty.update(dict.fromkeys(clusters))  # all new to the store
        if not merged_stats:
            merged_stats = [
                ImportStats(
                    snapshot_date=row["snapshot_date"],
                    rows=row["rows"],
                    new_records=row["new_records"],
                    new_clusters=row["new_clusters"],
                    skipped=row["skipped"],
                )
                for row in stats
            ]
        else:
            for target, row in zip(merged_stats, stats):
                target.rows += row["rows"]
                target.new_records += row["new_records"]
                target.new_clusters += row["new_clusters"]
                target.skipped += row["skipped"]
    generator.import_stats.extend(merged_stats)
    generator._imported_snapshots.extend(s.date for s in snapshots)
    return merged_stats


# ------------------------------------------------------------ parallel scoring


def _score_shard(
    clusters: List[dict],
    version: Optional[int],
    with_plausibility: bool,
    weights_all: Optional[Dict[str, float]],
    weights_primary: Optional[Dict[str, float]],
    all_groups: Tuple[str, ...],
    primary_groups: Tuple[str, ...],
) -> ScoredMaps:
    """Worker: score one shard's clusters with the batched fast paths.

    Runs in a worker process (or inline for ``max_workers=0``); only plain
    dicts/tuples cross the process boundary.  Each invocation builds its own
    pair-deduplication caches — the heavy-tailed value distributions repeat
    within a shard just as they do globally.
    """
    merged: ScoredMaps = {ncid: {} for ncid in (c["ncid"] for c in clusters)}
    if with_plausibility:
        for ncid, maps in _score_plausibility_clusters(clusters, version).items():
            merged[ncid]["plausibility"] = maps
    if weights_all is not None:
        scorer = HeterogeneityScorer(weights_all)
        for ncid, maps in scorer.score_clusters(
            clusters, all_groups, version=version
        ).items():
            merged[ncid]["heterogeneity"] = maps
    if weights_primary is not None:
        scorer = HeterogeneityScorer(weights_primary)
        for ncid, maps in scorer.score_clusters(
            clusters, primary_groups, version=version
        ).items():
            merged[ncid]["heterogeneity_person"] = maps
    return merged


def score_clusters_parallel(
    clusters: Sequence[dict],
    version: Optional[int] = None,
    *,
    with_plausibility: bool = True,
    heterogeneity_all: Optional[HeterogeneityScorer] = None,
    heterogeneity_primary: Optional[HeterogeneityScorer] = None,
    all_groups: Tuple[str, ...] = ("person",),
    primary_groups: Tuple[str, ...] = ("person",),
    shards: int = 4,
    max_workers: Optional[int] = None,
) -> ScoredMaps:
    """Score ``clusters`` in ncid shards; returns ``{ncid: {kind: maps}}``.

    ``clusters`` are the ones to score, which need not be all of them:
    :meth:`~repro.core.versioning.UpdateProcess.update_statistics` passes
    only the clusters holding a record new at ``version``, so the shards
    carry what a version adds.  The entropy-weighted scorers are built by
    the caller over *all* clusters (weights are global) and only their
    weight maps are shipped to the workers.

    Sharding uses :func:`shard_of`, so the partition — and, since scores
    are pure functions of each cluster document, the merged result — is
    identical for every shard count and worker count.  ``max_workers=0``
    runs the shards sequentially in-process (same results, no process
    overhead); the default runs one process per shard.  Worker crashes
    retry the shard with exponential backoff and finally degrade to
    in-process scoring with a :class:`ParallelDegradedWarning` — a dead
    worker can cost time, never the run (see :func:`run_shards`).
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    weights_all = dict(heterogeneity_all.weights) if heterogeneity_all else None
    weights_primary = (
        dict(heterogeneity_primary.weights) if heterogeneity_primary else None
    )
    buckets: List[List[dict]] = [[] for _ in range(shards)]
    for cluster in clusters:
        buckets[shard_of(cluster["ncid"], shards)].append(cluster)
    merged: ScoredMaps = {}
    shard_results = run_shards(
        _score_shard,
        [
            (
                bucket,
                version,
                with_plausibility,
                weights_all,
                weights_primary,
                all_groups,
                primary_groups,
            )
            for bucket in buckets
        ],
        max_workers,
        label="parallel cluster scoring",
    )
    for result in shard_results:
        overlap = set(result) & set(merged)
        if overlap:  # pragma: no cover - shard_of guarantees disjoint buckets
            raise RuntimeError(f"shards overlap on ids: {sorted(overlap)[:5]}")
        merged.update(result)
    return merged
