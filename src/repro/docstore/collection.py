"""Collections: CRUD, indexes and aggregation over documents.

Storage is partitioned: a collection owns N hash shards
(:class:`~repro.docstore.partition.Partition`), each with its own document
map, ``_id`` map and secondary indexes.  ``shards=1`` (the default) is the
classic single-dict store; sharded collections place documents by the
collection's ``shard_key`` (``ncid`` by default — string values hash to a
shard, everything else falls back to an ``_id`` hash) and reads route:
a filter that pins the shard key touches one shard, anything else
scatter-gathers with k-way merges that reproduce the unsharded order
bit-for-bit (:mod:`repro.docstore.planner`).
"""

from __future__ import annotations

import heapq
import itertools
import warnings
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.docstore.aggregation import run_pipeline
from repro.docstore.documents import (
    MISSING,
    PathCopy,
    deep_copy,
    get_path,
    resolve_path,
)
from repro.docstore.errors import (
    DegradedReadError,
    DegradedReadWarning,
    DegradedWriteError,
    DuplicateKeyError,
    QueryError,
)
from repro.docstore.indexes import HashIndex, build_index
from repro.docstore.matching import compile_filter
from repro.docstore.partition import Partition, fallback_shard, shard_key_shard
from repro.docstore.plancache import PlanCache
from repro.docstore.planner import (
    count_sharded,
    execute_partial_group,
    execute_sharded_find,
    iter_matching_ids,
    iter_sharded_matching,
    partial_group_spec,
    plan_read,
    plan_states,
    route_shards,
    split_pushdown,
)
from repro.docstore.views import lazy_document, wrap_value

#: Valid ``Collection(copy_mode=...)`` values: lazy copy-on-read views
#: (the default) or the historical deep-copy-every-result behaviour.
_COPY_MODES = ("lazy", "eager")

#: The update operators :func:`_next_version` evaluates.
_UPDATE_OPERATORS = frozenset(
    ("$set", "$unset", "$inc", "$push", "$addToSet", "$pull", "$rename")
)


class Collection:
    """A named set of documents with optional secondary indexes.

    Documents receive an auto-assigned ``_id`` (an integer) unless the caller
    provides one.  ``_id`` values are unique within the collection.  Reads
    return copy-on-read views (:class:`~repro.docstore.views.DocumentView`)
    so callers can never corrupt the store by mutating a result; pass
    ``copy_mode="eager"`` to restore full deep copies per result.

    ``analysis_mode`` selects how queries are vetted before execution:
    ``"lax"`` (the default) executes them as-is, ``"strict"`` runs the
    static analyzer from :mod:`repro.analysis` first and raises
    :class:`QueryError` — with did-you-mean hints — before a single document
    is scanned.  Attach a :class:`repro.analysis.SchemaPaths` via ``schema``
    to additionally validate dotted field paths in strict mode.

    ``shards``/``shard_key`` select the partition layout (see the module
    docstring); scatter-gather reads scan the partitions on the calling
    thread and k-way merge the results.
    """

    def __init__(
        self,
        name: str,
        analysis_mode: str = "lax",
        schema: Optional[Any] = None,
        shards: int = 1,
        shard_key: str = "ncid",
        copy_mode: str = "lazy",
    ) -> None:
        if shards < 1:
            raise QueryError(f"shards must be >= 1, got {shards}")
        if copy_mode not in _COPY_MODES:
            raise QueryError(
                f"copy_mode must be one of {_COPY_MODES}, got {copy_mode!r}"
            )
        self.name = name
        self.analysis_mode = analysis_mode
        #: Optional ``repro.analysis.SchemaPaths`` for field-path validation.
        self.schema = schema
        self.shard_key = shard_key
        #: ``"lazy"`` = copy-on-read document views, ``"eager"`` = deep copies.
        self.copy_mode = copy_mode
        #: Monotonic write counter: every mutation (and index build) bumps
        #: it, invalidating the plan cache's epoch-scoped entries.
        self._write_epoch = 0
        #: Shape/value plan memo (see :mod:`repro.docstore.plancache`).
        self._plan_cache = PlanCache()
        #: Escape hatch (and benchmark knob): ``False`` forces cold planning.
        self.plan_cache_enabled = True
        self._partitions: List[Partition] = [Partition() for _ in range(shards)]
        #: The last committed epoch as ONE tuple, reassigned atomically at
        #: the end of :meth:`_publish`.  Snapshots read this single
        #: attribute instead of walking ``partition.published`` one shard
        #: at a time, so a snapshot taken while a commit is publishing
        #: sees the whole old epoch or the whole new one — never a mix.
        self._published_states: Tuple[Any, ...] = tuple(
            partition.published for partition in self._partitions
        )
        self._next_internal_id = itertools.count(1)
        #: Sticky count of placements that saw a *list* shard-key value.
        #: Any such document disables shard-key routing permanently (it
        #: matches string equalities but is fallback-placed), which keeps
        #: routing sound for snapshots taken at any epoch.
        self._shard_key_lists = 0
        #: Highest committed WAL sequence number replayed into this
        #: collection (set by recovery; journaling resumes after it).
        self._replayed_seq = 0
        #: Partition indices recovery took dark (corrupt WAL/snapshot).
        #: Reads touching them raise :class:`DegradedReadError` (or skip
        #: them under ``allow_degraded=True``); writes are refused.  Their
        #: partitions are emptied, so ``len``/iteration see healthy shards.
        self._quarantined: set = set()
        #: Reads that opted into degraded results (resilience counter).
        self._degraded_reads = 0
        #: Write-ahead-log hook ``(op, payload, partition) -> None`` set by
        #: :class:`~repro.docstore.database.DurableDatabase`; ``None`` keeps
        #: the collection purely in-memory.  Called *after* the in-memory
        #: write succeeds and serializes immediately.  Inserts and replaces
        #: journal the whole document; an update journals only the
        #: post-states of the paths it wrote (see :class:`PathCopy`).
        self._journal: Optional[Any] = None
        #: Batched journal hook ``(op, [(partition, payload), ...]) -> None``
        #: set alongside ``_journal``; one WAL write + one fsync per batch.
        #: Falls back to per-op ``_journal`` calls when unset.
        self._journal_many: Optional[Any] = None

    # ------------------------------------------------------------ partitions

    @property
    def nshards(self) -> int:
        """Number of hash partitions (1 = unsharded)."""
        return len(self._partitions)

    @property
    def _documents(self) -> Dict[int, dict]:
        """The live document map (merged across shards when sharded).

        For ``shards=1`` this is *the* partition's map (same object the
        planner mutates against); sharded collections return a merged copy
        — used only by oracles and tests, never on a hot path.
        """
        if len(self._partitions) == 1:
            return self._partitions[0].live._documents
        merged: Dict[int, dict] = {}
        for partition in self._partitions:
            merged.update(partition.live._documents)
        return merged

    @property
    def _by_user_id(self) -> Dict[Any, int]:
        if len(self._partitions) == 1:
            return self._partitions[0].live._by_user_id
        merged: Dict[Any, int] = {}
        for partition in self._partitions:
            merged.update(partition.live._by_user_id)
        return merged

    @property
    def _indexes(self) -> Dict[str, Any]:
        """Partition 0's live indexes (every partition has the same specs)."""
        return self._partitions[0].live._indexes

    @_indexes.setter
    def _indexes(self, value: Dict[str, Any]) -> None:
        # Test hook (index spies et al.); only meaningful for shards=1.
        self._bump_epoch()
        self._partitions[0].writable()._indexes = value

    def _bump_epoch(self) -> None:
        """Invalidate epoch-scoped plan-cache entries (called before writes)."""
        self._write_epoch += 1

    @property
    def _materialize(self) -> Any:
        """Per-document result materializer for the current copy mode."""
        return deep_copy if self.copy_mode == "eager" else lazy_document

    @property
    def _copy_value(self) -> Any:
        """Extracted-value materializer for the current copy mode."""
        return deep_copy if self.copy_mode == "eager" else wrap_value

    def _placement(self, stored: dict) -> int:
        """Partition index a stored document belongs to."""
        shards = len(self._partitions)
        if shards == 1:
            return 0
        value = get_path(stored, self.shard_key, default=None)
        if isinstance(value, list):
            self._shard_key_lists += 1
            value = None
        if isinstance(value, str):
            return shard_key_shard(value, shards)
        return fallback_shard(_freeze_id(stored.get("_id")), shards)

    def _route(self, filter_doc: Optional[dict]) -> List[int]:
        """Partition indices a filter must touch (in index order)."""
        shards = len(self._partitions)
        if shards == 1:
            return [0]
        if self._shard_key_lists:
            return list(range(shards))
        routed = route_shards(self.shard_key, shards, filter_doc)
        return list(range(shards)) if routed is None else routed

    def _plan_routed(
        self,
        filter_doc: Optional[dict],
        sort: Optional[List[tuple]] = None,
    ) -> Tuple[List[Any], List[Any]]:
        """Route, then plan the read per touched partition state.

        Served from the per-collection plan cache when enabled: an exactly
        repeated query replays its routed indices and bound plans, a new
        query of a known shape skips option pricing, and any write since
        the last lookup invalidates both (epoch check).
        """
        if self.plan_cache_enabled:
            return self._plan_cache.routed_plans(self, filter_doc, sort)
        states = [self._partitions[i].live for i in self._route(filter_doc)]
        if not states and filter_doc:
            compile_filter(filter_doc)  # malformed filters raise as usual
        return states, plan_states(states, filter_doc, sort)

    # ------------------------------------------------------------ quarantine

    @property
    def quarantined_shards(self) -> List[int]:
        """Partition indices currently quarantined (empty when healthy)."""
        return sorted(self._quarantined)

    def _quarantine_shards(self, indices: Iterable[int]) -> None:
        """Take shards dark: swap in empty partitions with fresh indexes.

        Called by recovery *after* replay.  The partition is replaced, not
        merely flagged, so documents a stale snapshot loaded into the dark
        shard can never be served as live data — the authoritative copy is
        whatever sits in the quarantine directory until ``repair()``.
        """
        specs = self.index_specs()
        self._bump_epoch()
        for index in indices:
            partition = Partition()
            state = partition.live
            for spec in specs:
                built = build_index(spec["kind"], spec["path"])
                built.flush()
                state._indexes[f"{spec['path']}_{spec['kind']}"] = built
            self._partitions[index] = partition
            self._quarantined.add(index)
        # Re-pin the published epoch so snapshots can never resurrect the
        # dark shards' stale states (healthy entries are unchanged).
        self._published_states = tuple(
            partition.published for partition in self._partitions
        )

    def _healthy_route(
        self,
        filter_doc: Optional[dict],
        *,
        allow_degraded: bool = False,
        op: str = "read",
        write: bool = False,
    ) -> List[int]:
        """Route, then enforce the quarantine policy on the touched shards.

        Healthy collections (the overwhelmingly common case) route as
        usual.  When the routing of a degraded collection touches a
        quarantined shard: writes raise :class:`DegradedWriteError`, reads
        raise :class:`DegradedReadError` unless ``allow_degraded`` — which
        instead warns (:class:`DegradedReadWarning`) and returns the
        healthy subset.
        """
        indices = self._route(filter_doc)
        if not self._quarantined:
            return indices
        touched = [index for index in indices if index in self._quarantined]
        if not touched:
            return indices
        if write:
            raise DegradedWriteError(self.name, touched, op)
        if not allow_degraded:
            raise DegradedReadError(self.name, touched, op)
        warnings.warn(
            DegradedReadWarning(
                f"{op} on collection {self.name!r} skipped quarantined "
                f"shard(s) {sorted(touched)}; results cover healthy shards only"
            ),
            stacklevel=3,
        )
        self._degraded_reads += 1
        return [index for index in indices if index not in self._quarantined]

    def _plan_healthy(
        self,
        filter_doc: Optional[dict],
        sort: Optional[List[tuple]] = None,
        *,
        allow_degraded: bool = False,
        op: str = "read",
    ) -> Tuple[List[Any], List[Any]]:
        """:meth:`_plan_routed` with the quarantine policy applied.

        Degraded collections bypass the plan cache entirely: its memoized
        shard routes survive epoch bumps by design and know nothing about
        quarantine, so a cached scatter route could silently read a dark
        shard's (empty) partition without raising.
        """
        if not self._quarantined:
            return self._plan_routed(filter_doc, sort)
        indices = self._healthy_route(
            filter_doc, allow_degraded=allow_degraded, op=op
        )
        states = [self._partitions[i].live for i in indices]
        if not states and filter_doc:
            compile_filter(filter_doc)
        return states, plan_states(states, filter_doc, sort)

    def snapshot(self) -> "CollectionSnapshot":
        """A consistent read-only view of the last published epoch.

        The view pins every partition's ``published`` state: a concurrent
        writer copies before mutating (copy-on-write), so the snapshot's
        results never change — even while a commit publishes a new epoch.
        """
        return CollectionSnapshot(self)

    def _publish(self) -> None:
        """Publish the live state of every partition (commit barrier).

        Per-partition publication (index flushes included) happens first;
        the final tuple assignment is the single atomic step that makes
        the new epoch visible to :meth:`snapshot`.
        """
        for partition in self._partitions:
            partition.publish()
        self._published_states = tuple(
            partition.published for partition in self._partitions
        )

    # ------------------------------------------------------------------ CRUD

    def insert_one(self, document: dict) -> Any:
        """Insert a copy of ``document`` and return its ``_id``."""
        if not isinstance(document, dict):
            raise QueryError(f"documents must be dicts, got {type(document).__name__}")
        return self._insert_owned(deep_copy(document))

    def _insert_owned(self, stored: dict) -> Any:
        """Insert ``stored`` itself, uncopied (recovery hands over parsed docs)."""
        self._bump_epoch()
        internal_id = next(self._next_internal_id)
        if "_id" not in stored:
            stored["_id"] = internal_id
        user_id = _freeze_id(stored["_id"])
        for partition in self._partitions:
            if user_id in partition.live._by_user_id:
                raise DuplicateKeyError(
                    f"duplicate _id {stored['_id']!r} in collection {self.name!r}"
                )
        target = self._placement(stored)
        if target in self._quarantined:
            raise DegradedWriteError(self.name, [target], "insert")
        partition = self._partitions[target]
        state = partition.writable()
        state._documents[internal_id] = stored
        state._by_user_id[user_id] = internal_id
        for index in state._indexes.values():
            index.add(internal_id, stored)
            index.flush()
        self._log("insert", {"doc": stored}, target)
        return stored["_id"]

    def insert_many(self, documents: Iterable[dict]) -> List[Any]:
        """Insert every document; returns the list of assigned ``_id``s.

        Bulk path: documents are validated, placed and id-assigned in
        order, then applied per partition in one pass (one copy-on-write
        clone per partition, one index delta per document, one batched
        journal append per partition instead of one WAL write + fsync per
        op).  Error semantics match the per-op loop exactly: on the first
        invalid document the already-validated prefix is inserted and
        journaled, then the error raises.
        """
        self._bump_epoch()
        assigned: List[Any] = []
        staged: List[Tuple[int, dict, int]] = []  # (partition, stored, iid)
        batch_user_ids: set = set()
        error: Optional[Exception] = None
        for document in documents:
            if not isinstance(document, dict):
                error = QueryError(
                    f"documents must be dicts, got {type(document).__name__}"
                )
                break
            stored = deep_copy(document)
            internal_id = next(self._next_internal_id)
            if "_id" not in stored:
                stored["_id"] = internal_id
            user_id = _freeze_id(stored["_id"])
            duplicate = user_id in batch_user_ids or any(
                user_id in partition.live._by_user_id
                for partition in self._partitions
            )
            if duplicate:
                error = DuplicateKeyError(
                    f"duplicate _id {stored['_id']!r} in collection {self.name!r}"
                )
                break
            batch_user_ids.add(user_id)
            target = self._placement(stored)
            if target in self._quarantined:
                error = DegradedWriteError(self.name, [target], "insert")
                break
            staged.append((target, stored, internal_id))
            assigned.append(stored["_id"])

        touched: Dict[int, Any] = {}
        for target, stored, internal_id in staged:
            state = touched.get(target)
            if state is None:
                state = touched[target] = self._partitions[target].writable()
            state._documents[internal_id] = stored
            state._by_user_id[_freeze_id(stored["_id"])] = internal_id
            for index in state._indexes.values():
                index.add(internal_id, stored)
        # One sorted-run merge per touched partition for the whole batch;
        # flushing here (not on first read) keeps shared-state reads
        # logically read-only, so concurrent ``find``s never race.
        for state in touched.values():
            for index in state._indexes.values():
                index.flush()
        if staged:
            self._log_many(
                "insert",
                [(target, {"doc": stored}) for target, stored, _ in staged],
            )
        if error is not None:
            # Always a QueryError, DuplicateKeyError or DegradedWriteError
            # staged above; raised here so the validated prefix lands first
            # (per-op parity).
            raise error  # repro: ignore[L004]
        return assigned

    def find(
        self,
        filter_doc: Optional[dict] = None,
        projection: Optional[dict] = None,
        sort: Optional[List[tuple]] = None,
        limit: Optional[int] = None,
        skip: int = 0,
        *,
        allow_degraded: bool = False,
    ) -> List[dict]:
        """Return matching documents (deep copies), optionally projected.

        Reads are planned (:mod:`repro.docstore.planner`): equality and
        range conditions resolve through hash/sorted indexes, a
        single-field ``sort`` matching a sorted index streams in index
        order with no sorting, and only the returned ``skip``/``limit``
        window is ever deep-copied.  On a sharded collection a filter
        pinning the shard key routes to a single partition; anything else
        scatter-gathers with an order-preserving k-way merge.

        On a degraded (partially quarantined) collection a query whose
        routing touches a dark shard raises :class:`DegradedReadError`;
        ``allow_degraded=True`` instead returns the healthy shards'
        results with a :class:`DegradedReadWarning`.
        """
        self._check_filter(filter_doc)
        states, plans = self._plan_healthy(
            filter_doc, sort, allow_degraded=allow_degraded, op="find"
        )
        results = list(
            execute_sharded_find(
                states,
                plans,
                skip=skip,
                limit=limit,
                materialize=self._materialize,
            )
        )
        if projection:
            results = list(run_pipeline(results, [{"$project": projection}]))
        return results

    def distinct(
        self,
        path: str,
        filter_doc: Optional[dict] = None,
        *,
        allow_degraded: bool = False,
    ) -> List[Any]:
        """Distinct values of ``path`` over matching documents.

        Array values are expanded element-wise (MongoDB semantics); the
        result is sorted by ``repr`` for determinism.  Without a filter,
        hash indexes on ``path`` whose keys are all strings answer straight
        from the indexes, never touching a document.
        """
        self._check_filter(filter_doc)
        indices = self._healthy_route(
            filter_doc, allow_degraded=allow_degraded, op="distinct"
        )
        if not filter_doc:
            indexes = [
                self._partitions[i].live._indexes.get(f"{path}_hash")
                for i in indices
            ]
            if all(isinstance(index, HashIndex) for index in indexes):
                keys = [key for index in indexes for key in index.keys()]
                if all(key is None or isinstance(key, str) for key in keys):
                    seen = {repr(key): key for key in keys if key is not None}
                    return [seen[key] for key in sorted(seen)]
        seen = {}
        copy_value = self._copy_value
        for document in self._scan(filter_doc, indices=indices):
            value = get_path(document, path, default=None)
            values = value if isinstance(value, list) else [value]
            for element in values:
                if element is not None:
                    seen.setdefault(repr(element), element)
        return [copy_value(seen[key]) for key in sorted(seen)]

    def find_one(
        self,
        filter_doc: Optional[dict] = None,
        *,
        allow_degraded: bool = False,
    ) -> Optional[dict]:
        """Return the first matching document or ``None``."""
        materialize = self._materialize
        for document in self._scan(
            filter_doc, allow_degraded=allow_degraded, op="find_one"
        ):
            return materialize(document)
        return None

    def count_documents(
        self,
        filter_doc: Optional[dict] = None,
        *,
        allow_degraded: bool = False,
    ) -> int:
        """Number of documents matching ``filter_doc``.

        When the filter is fully covered by the chosen index access (no
        residual predicate), this is a pure index count — no document is
        loaded or matched.  Sharded counts sum the per-partition counts.
        """
        if not filter_doc:
            if not self._quarantined:
                return len(self)
            indices = self._healthy_route(
                None, allow_degraded=allow_degraded, op="count_documents"
            )
            return sum(
                len(self._partitions[i].live._documents) for i in indices
            )
        self._check_filter(filter_doc)
        states, plans = self._plan_healthy(
            filter_doc, allow_degraded=allow_degraded, op="count_documents"
        )
        return count_sharded(states, plans)

    def _check_update(self, update: dict) -> None:
        if self.analysis_mode == "strict":
            from repro.analysis import analyze_update, require_clean

            require_clean(
                analyze_update(update, self.schema),
                f"update for collection {self.name!r}",
            )

    def update_one(self, filter_doc: dict, update: dict) -> int:
        """Apply ``update`` to the first match; returns 0 or 1.

        The update applies fully or not at all: operators build the next
        version by path copying (:class:`PathCopy`), and only a version
        every operator succeeded on is indexed, installed and journaled.
        """
        self._check_update(update)
        self._bump_epoch()
        for index, internal_id in self._scan_partitions(
            filter_doc, write=True, op="update_one"
        ):
            self._update_document(index, internal_id, update)
            return 1
        return 0

    def update_many(self, filter_doc: dict, update: dict) -> int:
        """Apply ``update`` to every match; returns the match count.

        Documents are updated one at a time: when the update fails on one,
        the documents before it stay updated (and journaled) and it raises.
        """
        self._check_update(update)
        self._bump_epoch()
        touched = list(
            self._scan_partitions(filter_doc, write=True, op="update_many")
        )
        for index, internal_id in touched:
            self._update_document(index, internal_id, update)
        return len(touched)

    def _update_document(self, index: int, internal_id: int, update: dict) -> None:
        old = self._partitions[index].live._documents[internal_id]
        version = _next_version(old, update)
        self._install(index, internal_id, old, version)

    def _replay_update(self, doc_id: Any, writes: List[list]) -> None:
        """Apply a journaled ``update`` record; an absent ``_id`` is a no-op."""
        self._bump_epoch()
        for index, internal_id in self._scan_partitions(
            {"_id": doc_id}, write=True, op="update_one"
        ):
            old = self._partitions[index].live._documents[internal_id]
            version = PathCopy(old)
            version.apply(writes)
            self._install(index, internal_id, old, version)
            return

    def _install(
        self, index: int, internal_id: int, old: dict, version: PathCopy
    ) -> None:
        """Index, install and journal a document's next version.

        An update that wrote nothing changes and journals nothing.
        """
        if not version.writes:
            return
        written = [write[0] for write in version.writes]
        target = self._place_version(index, internal_id, old, version.document, written)
        if target == index:
            self._log(
                "update", {"id": old["_id"], "writes": version.writes}, index
            )
        else:
            # A document that moved shards is journaled whole to its new
            # shard's log, so that log replays without the old shard's.
            self._log(
                "replace", {"id": old["_id"], "doc": version.document}, target
            )

    def replace_one(self, filter_doc: dict, replacement: dict) -> int:
        """Replace the first matching document wholesale (keeps its ``_id``)."""
        return self._replace_owned(filter_doc, deep_copy(replacement))

    def _replace_owned(self, filter_doc: dict, stored: dict) -> int:
        """:meth:`replace_one` with ``stored`` kept as is (uncopied)."""
        self._bump_epoch()
        for index, internal_id in self._scan_partitions(
            filter_doc, write=True, op="replace_one"
        ):
            old = self._partitions[index].live._documents[internal_id]
            stored["_id"] = old["_id"]
            target = self._place_version(index, internal_id, old, stored, None)
            self._log("replace", {"id": stored["_id"], "doc": stored}, target)
            return 1
        return 0

    def delete_many(self, filter_doc: dict) -> int:
        """Delete every matching document; returns the delete count."""
        self._bump_epoch()
        doomed = list(
            self._scan_partitions(filter_doc, write=True, op="delete_many")
        )
        for index, internal_id in doomed:
            state = self._partitions[index].writable()
            document = state._documents[internal_id]
            for spec_index in state._indexes.values():
                spec_index.remove(internal_id, document)
            del state._by_user_id[_freeze_id(document["_id"])]
            del state._documents[internal_id]
            self._log("delete", {"id": document["_id"]}, index)
        return len(doomed)

    def _place_version(
        self,
        index: int,
        internal_id: int,
        old: dict,
        new: dict,
        written: Optional[List[str]],
    ) -> int:
        """Swap ``old`` for ``new`` in the indexes and the document map.

        ``written`` lists the dotted paths that changed (``None``: any), so
        only indexes over those paths are maintained.  A document whose
        shard-key value changed moves to its new shard, which is returned.
        """
        target = index if len(self._partitions) == 1 else self._placement(new)
        if target in self._quarantined:
            # Fail-stop: a shard-key rewrite cannot move a document into a
            # shard whose journal is dark (the op could never be replayed).
            raise DegradedWriteError(self.name, [target], "migrate")
        state = self._partitions[index].writable()
        if target == index:
            if written is None:
                affected = list(state._indexes.values())
            else:
                affected = [
                    spec_index
                    for spec_index in state._indexes.values()
                    if any(_paths_overlap(path, spec_index.path) for path in written)
                ]
            for spec_index in affected:
                spec_index.remove(internal_id, old)
                spec_index.add(internal_id, new)
                spec_index.flush()
            state._documents[internal_id] = new
            return index
        for spec_index in state._indexes.values():
            spec_index.remove(internal_id, old)
        del state._documents[internal_id]
        del state._by_user_id[_freeze_id(old["_id"])]
        state = self._partitions[target].writable()
        state._documents[internal_id] = new
        state._by_user_id[_freeze_id(new["_id"])] = internal_id
        for spec_index in state._indexes.values():
            spec_index.add(internal_id, new)
            spec_index.flush()
        return target

    def aggregate(
        self, pipeline: List[dict], *, allow_degraded: bool = False
    ) -> List[dict]:
        """Run an aggregation ``pipeline`` over the collection.

        In strict analysis mode the pipeline is statically vetted first —
        unknown stages/operators, malformed specs, unknown field paths and
        stage-order hazards raise :class:`QueryError` before any document is
        streamed.

        Leading ``$match``/``$sort``/``$skip``/``$limit`` stages are pushed
        down into the query planner: they run through index accesses and
        windowed, lazily-copied reads, so the remaining stages see an
        already-narrowed stream instead of a deep copy of the whole
        collection.  On a sharded scatter, an eligible ``$group`` (or
        ``$count``) immediately after the pushdown is computed as exact
        per-partition partials and combined — bit-identical to streaming
        the merged scan through the stage.
        """
        if self.analysis_mode == "strict":
            from repro.analysis import analyze_pipeline, require_clean

            require_clean(
                analyze_pipeline(pipeline, self.schema),
                f"pipeline for collection {self.name!r}",
            )
        pushdown = split_pushdown(pipeline)
        rest = pushdown.rest
        states, plans = self._plan_healthy(
            pushdown.filter_doc,
            pushdown.sort_spec,
            allow_degraded=allow_degraded,
            op="aggregate",
        )
        for plan in plans:
            plan.pushdown = list(pushdown.pushed)
        if (
            len(states) > 1
            and rest
            and pushdown.sort_spec is None
            and pushdown.skip == 0
            and pushdown.limit is None
            and isinstance(rest[0], dict)
            and len(rest[0]) == 1
        ):
            (stage_name, stage_spec), = rest[0].items()
            if stage_name == "$group":
                parsed = partial_group_spec(stage_spec)
                if parsed is not None:
                    groups = execute_partial_group(
                        states, plans, parsed, copy_value=self._copy_value
                    )
                    return list(run_pipeline(groups, rest[1:]))
            elif stage_name == "$count" and isinstance(stage_spec, str):
                count = count_sharded(states, plans)
                return list(run_pipeline([{stage_spec: count}], rest[1:]))
        source: Iterable[dict] = execute_sharded_find(
            states,
            plans,
            skip=pushdown.skip,
            limit=pushdown.limit,
            materialize=self._materialize,
        )
        return list(run_pipeline(source, rest))

    def all(self, *, allow_degraded: bool = False) -> Iterator[dict]:
        """Iterate every document (materialized views) in insertion order.

        On a degraded collection this raises :class:`DegradedReadError`
        up front (unless ``allow_degraded``, which warns): quarantined
        partitions are empty, so the iteration itself is naturally
        healthy-shards-only either way.
        """
        if self._quarantined:
            self._healthy_route(None, allow_degraded=allow_degraded, op="all")
        materialize = self._materialize
        return (materialize(doc) for doc in self._ordered_documents())

    # --------------------------------------------------------------- indexes

    def create_index(self, path: str, kind: str = "hash") -> str:
        """Create (or return) an index on dotted ``path``.

        ``kind`` is ``"hash"`` for equality lookups or ``"sorted"`` for range
        scans.  Returns the index name ``{path}_{kind}``.  On a sharded
        collection every partition gets its own index over its documents.
        """
        name = f"{path}_{kind}"
        if name in self._partitions[0].live._indexes:
            return name
        if self._quarantined:
            # An index build touches every partition (and is journaled to
            # partition 0's WAL), so a degraded collection refuses it.
            raise DegradedWriteError(
                self.name, sorted(self._quarantined), "create_index"
            )
        self._bump_epoch()
        for partition in self._partitions:
            state = partition.writable()
            if name in state._indexes:
                continue
            index = build_index(kind, path)
            for internal_id, document in state._documents.items():
                index.add(internal_id, document)
            index.flush()
            state._indexes[name] = index
        self._log("index", {"path": path, "kind": kind}, 0)
        return name

    def index_names(self) -> List[str]:
        """Sorted names of the collection's indexes."""
        return sorted(self._partitions[0].live._indexes)

    def explain(
        self,
        filter_doc: Optional[dict] = None,
        sort: Optional[List[tuple]] = None,
        pipeline: Optional[List[dict]] = None,
    ) -> dict:
        """Describe how a query (or pipeline) would execute.

        Returns the chosen plan — ``"full_scan"`` / ``"id_lookup"`` /
        ``"index_lookup"`` / ``"index_range"`` / ``"index_order"`` (or
        ``"mixed"`` when a scatter picks different plans per shard) — plus
        the index used, the residual predicate the candidates are matched
        against, the candidate count (how many documents would actually be
        examined), pushed-down pipeline stages when ``pipeline`` is given,
        sharding telemetry (``shards_touched`` / ``total_shards`` /
        ``routing``), and index-usage hints from
        :func:`repro.analysis.analyze_index_usage`.
        """
        remaining: List[dict] = []
        pushed: List[str] = []
        if pipeline is not None:
            pushdown = split_pushdown(pipeline)
            query_filter, query_sort = pushdown.filter_doc, pushdown.sort_spec
            pushed = pushdown.pushed
            remaining = pushdown.rest
        else:
            query_filter, query_sort = filter_doc, sort
        states, plans = self._plan_routed(query_filter, query_sort)
        for plan in plans:
            plan.pushdown = list(pushed)
        total = len(self)
        shards = len(self._partitions)
        if plans:
            description = plans[0].describe(total)
            description["candidates"] = sum(
                len(plan.candidate_ids)
                if plan.candidate_ids is not None
                else len(state._documents)
                for plan, state in zip(plans, states)
            )
            if len(plans) > 1:
                names = {plan.plan_name for plan in plans}
                if len(names) > 1:
                    description["plan"] = "mixed"
                description["indexes_used"] = sorted(
                    {name for plan in plans for name in plan.indexes_used}
                )
        else:  # routing proved the result empty; no partition is read
            description = {
                "plan": "pruned",
                "candidates": 0,
                "documents": total,
                "index": None,
                "indexes_used": [],
                "residual": query_filter,
                "order": "none",
                "order_index": None,
                "pushdown": list(pushed),
            }
        description["shards_touched"] = len(states)
        description["total_shards"] = shards
        if len(states) == shards:
            description["routing"] = "scatter" if shards > 1 else "single"
        elif not states:
            description["routing"] = "pruned"
        else:
            description["routing"] = "single" if len(states) == 1 else "subset"
        description["remaining_stages"] = [
            next(iter(stage)) if isinstance(stage, dict) and stage else "?"
            for stage in remaining
        ]
        description["plan_cache"] = self._plan_cache.stats()
        description["materialization"] = self.copy_mode
        description["quarantined_shards"] = sorted(self._quarantined)
        from repro.analysis import analyze_index_usage

        description["hints"] = [
            diagnostic.render()
            for diagnostic in analyze_index_usage(
                filter_doc=filter_doc,
                sort=sort,
                pipeline=pipeline,
                indexes=self.index_specs(),
                shard_key=self.shard_key if shards > 1 else None,
                shards=shards,
            )
        ]
        return description

    def index_specs(self) -> List[dict]:
        """Serializable descriptions of the collection's indexes."""
        return [
            {"path": index.path, "kind": index.kind}
            for index in self._partitions[0].live._indexes.values()
        ]

    # ------------------------------------------------------------- internals

    def _log(self, op: str, payload: dict, partition_index: int) -> None:
        journal = self._journal
        if journal is not None:
            journal(op, payload, partition_index)

    def _log_many(self, op: str, entries: List[Tuple[int, dict]]) -> None:
        """Journal a batch of ``(partition, payload)`` records in order.

        Prefers the batched hook (one WAL write + one fsync per partition
        per batch); falls back to per-op journaling when only the plain
        hook is attached.
        """
        journal_many = self._journal_many
        if journal_many is not None:
            journal_many(op, entries)
            return
        journal = self._journal
        if journal is not None:
            for partition_index, payload in entries:
                journal(op, payload, partition_index)

    def _ordered_documents(self) -> Iterator[dict]:
        if len(self._partitions) == 1:
            documents = self._partitions[0].live._documents
            for internal_id in sorted(documents):
                yield documents[internal_id]
            return
        states = [partition.live for partition in self._partitions]
        streams = [_sorted_id_state_pairs(state) for state in states]
        for _internal_id, state in heapq.merge(*streams, key=lambda pair: pair[0]):
            yield state._documents[_internal_id]

    def _check_filter(self, filter_doc: Optional[dict]) -> None:
        if self.analysis_mode == "strict" and filter_doc:
            from repro.analysis import analyze_filter, require_clean

            require_clean(
                analyze_filter(filter_doc, self.schema),
                f"filter for collection {self.name!r}",
            )

    def _scan(
        self,
        filter_doc: Optional[dict],
        *,
        allow_degraded: bool = False,
        op: str = "read",
        indices: Optional[List[int]] = None,
    ) -> Iterator[dict]:
        for index, internal_id in self._scan_partitions(
            filter_doc, allow_degraded=allow_degraded, op=op, indices=indices
        ):
            yield self._partitions[index].live._documents[internal_id]

    def _scan_partitions(
        self,
        filter_doc: Optional[dict],
        *,
        allow_degraded: bool = False,
        op: str = "read",
        write: bool = False,
        indices: Optional[List[int]] = None,
    ) -> Iterator[Tuple[int, int]]:
        """``(partition index, internal id)`` of matches, ascending by id.

        Pass ``indices`` to reuse an already-policy-checked route (avoids
        a second :class:`DegradedReadWarning` from e.g. ``distinct``).
        """
        self._check_filter(filter_doc)
        if indices is None:
            indices = self._healthy_route(
                filter_doc, allow_degraded=allow_degraded, op=op, write=write
            )
        if not indices and filter_doc:
            compile_filter(filter_doc)
        if len(indices) == 1:
            state = self._partitions[indices[0]].live
            plan = plan_read(state, filter_doc)
            for internal_id in iter_matching_ids(state, plan):
                yield indices[0], internal_id
            return
        states = [self._partitions[i].live for i in indices]
        plans = plan_states(states, filter_doc)
        by_state = {id(state): index for state, index in zip(states, indices)}
        for state, internal_id in iter_sharded_matching(states, plans):
            yield by_state[id(state)], internal_id

    def __len__(self) -> int:
        return sum(len(partition.live._documents) for partition in self._partitions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Collection(name={self.name!r}, documents={len(self)}, "
            f"shards={len(self._partitions)})"
        )


class CollectionSnapshot:
    """A consistent, lock-free read view over the last published epoch.

    Pins every partition's ``published`` state at construction time.
    Writers never mutate a published state (the first write after a commit
    copies it), so every read through the snapshot sees exactly the epoch
    that was committed when the snapshot was taken — while the live
    collection keeps changing underneath.  Reads are bit-identical to the
    same queries against an unsharded collection holding that epoch.
    """

    def __init__(self, collection: Collection) -> None:
        self.name = collection.name
        self.shard_key = collection.shard_key
        #: Inherited at snapshot time; lazy views over a *published* state
        #: are stable forever (writers copy-on-write, never mutate it).
        self.copy_mode = collection.copy_mode
        self._collection = collection
        # One attribute read pins the whole epoch: `_published_states` is
        # reassigned as a single tuple at commit time, so a concurrent
        # publish can never hand this snapshot a cross-partition mix.
        self._states = list(collection._published_states)
        #: Quarantine set pinned at snapshot time.  Snapshots are strict:
        #: there is no degraded opt-in — a scatter over a degraded epoch
        #: raises, because a snapshot is exactly the API that promises a
        #: complete, consistent epoch.
        self._quarantined = frozenset(collection._quarantined)

    @property
    def _materialize(self) -> Any:
        return deep_copy if self.copy_mode == "eager" else lazy_document

    @property
    def _copy_value(self) -> Any:
        return deep_copy if self.copy_mode == "eager" else wrap_value

    def _routed(
        self,
        filter_doc: Optional[dict],
        sort: Optional[List[tuple]] = None,
    ) -> Tuple[List[Any], List[Any]]:
        shards = len(self._states)
        routed: Optional[List[int]] = None
        # _shard_key_lists is sticky (never decremented), so a flag read at
        # query time can only be *more* conservative than at snapshot time.
        if shards > 1 and not self._collection._shard_key_lists:
            routed = route_shards(self.shard_key, shards, filter_doc)
        if self._quarantined:
            touched = [
                index
                for index in (routed if routed is not None else range(shards))
                if index in self._quarantined
            ]
            if touched:
                raise DegradedReadError(self.name, touched, "snapshot read")
        states = (
            self._states if routed is None else [self._states[i] for i in routed]
        )
        if not states and filter_doc:
            compile_filter(filter_doc)
        return states, plan_states(states, filter_doc, sort)

    def find(
        self,
        filter_doc: Optional[dict] = None,
        projection: Optional[dict] = None,
        sort: Optional[List[tuple]] = None,
        limit: Optional[int] = None,
        skip: int = 0,
    ) -> List[dict]:
        """Planned read over the snapshot (same semantics as live ``find``)."""
        states, plans = self._routed(filter_doc, sort)
        results = list(
            execute_sharded_find(
                states, plans, skip=skip, limit=limit,
                materialize=self._materialize,
            )
        )
        if projection:
            results = list(run_pipeline(results, [{"$project": projection}]))
        return results

    def find_one(self, filter_doc: Optional[dict] = None) -> Optional[dict]:
        states, plans = self._routed(filter_doc)
        materialize = self._materialize
        for state, internal_id in iter_sharded_matching(states, plans):
            return materialize(state._documents[internal_id])
        return None

    def count_documents(self, filter_doc: Optional[dict] = None) -> int:
        if not filter_doc:
            return len(self)
        states, plans = self._routed(filter_doc)
        return count_sharded(states, plans)

    def distinct(self, path: str, filter_doc: Optional[dict] = None) -> List[Any]:
        seen: Dict[str, Any] = {}
        states, plans = self._routed(filter_doc)
        for state, internal_id in iter_sharded_matching(states, plans):
            value = get_path(state._documents[internal_id], path, default=None)
            values = value if isinstance(value, list) else [value]
            for element in values:
                if element is not None:
                    seen.setdefault(repr(element), element)
        return [seen[key] for key in sorted(seen)]

    def aggregate(self, pipeline: List[dict]) -> List[dict]:
        """Aggregation over the snapshot, with the same pushdown rules."""
        pushdown = split_pushdown(pipeline)
        rest = pushdown.rest
        states, plans = self._routed(pushdown.filter_doc, pushdown.sort_spec)
        for plan in plans:
            plan.pushdown = list(pushdown.pushed)
        if (
            len(states) > 1
            and rest
            and pushdown.sort_spec is None
            and pushdown.skip == 0
            and pushdown.limit is None
            and isinstance(rest[0], dict)
            and len(rest[0]) == 1
        ):
            (stage_name, stage_spec), = rest[0].items()
            if stage_name == "$group":
                parsed = partial_group_spec(stage_spec)
                if parsed is not None:
                    groups = execute_partial_group(
                        states, plans, parsed, copy_value=self._copy_value
                    )
                    return list(run_pipeline(groups, rest[1:]))
            elif stage_name == "$count" and isinstance(stage_spec, str):
                count = count_sharded(states, plans)
                return list(run_pipeline([{stage_spec: count}], rest[1:]))
        source: Iterable[dict] = execute_sharded_find(
            states, plans, skip=pushdown.skip, limit=pushdown.limit,
            materialize=self._materialize,
        )
        return list(run_pipeline(source, rest))

    def all(self) -> Iterator[dict]:
        """Iterate the epoch's documents (materialized) in insertion order."""
        if self._quarantined:
            raise DegradedReadError(
                self.name, sorted(self._quarantined), "snapshot all"
            )
        materialize = self._materialize
        streams = [_sorted_id_state_pairs(state) for state in self._states]
        for _internal_id, state in heapq.merge(*streams, key=lambda pair: pair[0]):
            yield materialize(state._documents[_internal_id])

    def __len__(self) -> int:
        return sum(len(state._documents) for state in self._states)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CollectionSnapshot(name={self.name!r}, documents={len(self)})"


def _sorted_id_state_pairs(state: Any) -> Iterator[Tuple[int, Any]]:
    """One partition's ``(internal id, state)`` pairs in ascending id order.

    A generator *function* (not an inline genexp) so each stream captures
    its own ``state`` — a comprehension-scoped closure would late-bind it.
    """
    for internal_id in sorted(state._documents):
        yield internal_id, state


def _next_version(document: dict, update: dict) -> PathCopy:
    """Evaluate ``update``'s operators into ``document``'s next version.

    Operators run in spec order, each reading the version built so far;
    ``document`` itself is never modified, so an operator that raises
    leaves nothing half-applied.  A write that would change nothing
    (``$unset`` of an absent path, ``$addToSet`` of a present element,
    ``$pull`` that matches nothing) is skipped and never journaled.
    """
    if not update or not all(key.startswith("$") for key in update):
        raise QueryError("updates must use operators like $set / $unset / $inc / $push")
    version = PathCopy(document)
    current = version.document
    for op, spec in update.items():
        if op not in _UPDATE_OPERATORS:
            raise QueryError(f"unknown update operator {op!r}")
        if not isinstance(spec, dict):
            raise QueryError(f"{op} takes a document of paths, got {spec!r}")
        if op == "$set":
            for path, value in spec.items():
                if path == "_id":
                    raise QueryError("_id is immutable")
                version.set(path, deep_copy(value))
        elif op == "$unset":
            for path in spec:
                if path == "_id":
                    raise QueryError("_id is immutable")
                version.unset(path)
        elif op == "$inc":
            for path, delta in spec.items():
                value = get_path(current, path, 0) or 0
                version.set(path, value + delta)
        elif op in ("$push", "$addToSet"):
            for path, value in spec.items():
                array = get_path(current, path)
                if array is None:
                    version.set(path, [deep_copy(value)])
                elif not isinstance(array, list):
                    raise QueryError(f"{op} target {path!r} is not an array")
                elif op == "$push" or value not in array:
                    version.set(f"{path}.{len(array)}", deep_copy(value))
        elif op == "$pull":
            for path, value in spec.items():
                array = get_path(current, path)
                if array is None:
                    continue
                if not isinstance(array, list):
                    raise QueryError(f"$pull target {path!r} is not an array")
                kept = [element for element in array if element != value]
                if len(kept) != len(array):
                    version.set(path, kept)
        else:  # $rename
            for path, new_path in spec.items():
                if path == "_id" or new_path == "_id":
                    raise QueryError("_id is immutable")
                value = resolve_path(current, path)
                if value is MISSING:  # renaming an absent path is a no-op
                    continue
                version.unset(path)
                version.set(new_path, value)
    return version


def _strip_numeric_segments(path: str) -> str:
    return ".".join(part for part in path.split(".") if not part.isdigit())


def _paths_overlap(update_path: str, index_path: str) -> bool:
    """Whether writing ``update_path`` can change keys at ``index_path``.

    True when either is a dotted prefix of the other (writing ``a`` rewrites
    ``a.b``; writing ``a.b`` changes what an index on ``a`` sees).  Numeric
    segments are stripped first so ``tags.0`` overlaps an index on ``tags``.
    """
    a = _strip_numeric_segments(update_path)
    b = _strip_numeric_segments(index_path)
    return a == b or a.startswith(b + ".") or b.startswith(a + ".")


def _freeze_id(value: Any) -> Any:
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze_id(v)) for k, v in value.items()))
    if isinstance(value, list):
        return tuple(_freeze_id(v) for v in value)
    return value
