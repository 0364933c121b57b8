"""Collections: CRUD, indexes and aggregation over documents.

A collection holds one live state: a document map, an ``_id`` map and the
secondary indexes.  Writes change them in place, and reads are planned over
the collection itself by :mod:`repro.docstore.planner`.  A stored document
is never mutated: an update installs a new version
(:class:`~repro.docstore.documents.PathCopy`), so a view handed out earlier
keeps showing the version it was built over.
"""

from __future__ import annotations

import itertools
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
    DegradedWriteError,
    DuplicateKeyError,
    QueryError,
)
from repro.docstore.indexes import HashIndex, build_index
from repro.docstore.planner import (
    count_matching,
    execute_find,
    iter_matching_ids,
    plan_read,
    split_pushdown,
)
from repro.docstore.views import lazy_document, wrap_value

#: The update operators :func:`_next_version` evaluates.
_UPDATE_OPERATORS = frozenset(
    ("$set", "$unset", "$inc", "$push", "$addToSet", "$pull", "$rename")
)


class Collection:
    """A named set of documents with optional secondary indexes.

    Documents receive an auto-assigned ``_id`` (an integer) unless the caller
    provides one.  ``_id`` values are unique within the collection.  Reads
    return copy-on-read views (:class:`~repro.docstore.views.DocumentView`)
    so callers can never corrupt the store by mutating a result;
    :func:`repro.docstore.views.thaw` turns one into a plain deep copy.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        # The planner reads these three names (plan_read, execute_find, ...).
        #: Internal id -> stored document, in insertion (= id) order.
        self._documents: Dict[int, dict] = {}
        #: Frozen user ``_id`` -> internal id.
        self._by_user_id: Dict[Any, int] = {}
        #: Index name (``{path}_{kind}``) -> hash or sorted index.
        self._indexes: Dict[str, Any] = {}
        self._next_internal_id = itertools.count(1)
        #: Why recovery took the collection dark (a corrupt WAL or
        #: snapshot), or ``None`` while it is healthy.  Reads of a dark
        #: collection raise :class:`DegradedReadError`, writes
        #: :class:`DegradedWriteError`.
        self._quarantine: Optional[str] = None
        #: Write-ahead-log hook ``(op, payload) -> None`` set by
        #: :class:`~repro.docstore.database.DurableDatabase`; ``None`` keeps
        #: the collection purely in-memory.  Called once a write is
        #: validated and *before* it is installed, and serializes
        #: immediately, so a write the journal rejects (an unencodable
        #: value, a failed append) changes nothing.  Inserts and replaces
        #: journal the whole document; an update journals only the
        #: post-states of the paths it wrote (see :class:`PathCopy`).
        self._journal: Optional[Any] = None
        #: Batched journal hook ``(op, [payload, ...]) -> None``; set and
        #: cleared together with ``_journal``.  One WAL write + one fsync
        #: per batch.
        self._journal_many: Optional[Any] = None

    # ------------------------------------------------------------ quarantine

    @property
    def quarantined(self) -> bool:
        """Whether recovery took this collection dark (lifted by ``repair()``)."""
        return self._quarantine is not None

    def _take_dark(self, reason: str) -> None:
        """Quarantine the collection: empty its maps, rebuild its indexes empty.

        Called by recovery *after* replay.  The documents are dropped, not
        merely flagged, so data a stale snapshot loaded can never be served
        as live data — the authoritative copy is whatever sits in the
        quarantine directory until ``repair()``.  The indexes stay listed in
        :meth:`index_specs`.
        """
        self._documents = {}
        self._by_user_id = {}
        self._indexes = {
            name: build_index(index.kind, index.path)
            for name, index in self._indexes.items()
        }
        self._quarantine = reason

    def _check_healthy(self, op: str, write: bool = False) -> None:
        """Raise the typed quarantine error when the collection is dark."""
        if self._quarantine is None:
            return
        if write:
            raise DegradedWriteError(self.name, op, self._quarantine)
        raise DegradedReadError(self.name, op, self._quarantine)

    # ------------------------------------------------------------------ CRUD

    def insert_one(self, document: dict) -> Any:
        """Insert a copy of ``document`` and return its ``_id``."""
        if not isinstance(document, dict):
            raise QueryError(f"documents must be dicts, got {type(document).__name__}")
        return self._insert_owned(deep_copy(document))

    def _insert_owned(self, stored: dict) -> Any:
        """Insert ``stored`` itself, uncopied (recovery hands over parsed docs)."""
        self._check_healthy("insert", write=True)
        internal_id = next(self._next_internal_id)
        if "_id" not in stored:
            stored["_id"] = internal_id
        user_id = _freeze_id(stored["_id"])
        if user_id in self._by_user_id:
            raise DuplicateKeyError(
                f"duplicate _id {stored['_id']!r} in collection {self.name!r}"
            )
        self._log("insert", {"doc": stored})
        self._documents[internal_id] = stored
        self._by_user_id[user_id] = internal_id
        for index in self._indexes.values():
            index.add(internal_id, stored)
            index.flush()
        return stored["_id"]

    def insert_many(self, documents: Iterable[dict]) -> List[Any]:
        """Insert every document; returns the list of assigned ``_id``s.

        Bulk path: documents are validated and id-assigned in order,
        journaled with one batched append (instead of one WAL write + fsync
        per op), then applied in one pass (one index delta per document,
        one sorted-index merge).  Error semantics match the per-op loop
        exactly: on the first invalid document the already-validated
        prefix is journaled and inserted, then the error raises.  A prefix
        the journal rejects (an unencodable value, a failed append) is not
        inserted at all.
        """
        self._check_healthy("insert", write=True)
        assigned: List[Any] = []
        staged: List[Tuple[dict, int]] = []  # (stored, internal id)
        stored_ids = self._by_user_id
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
            if user_id in batch_user_ids or user_id in stored_ids:
                error = DuplicateKeyError(
                    f"duplicate _id {stored['_id']!r} in collection {self.name!r}"
                )
                break
            batch_user_ids.add(user_id)
            staged.append((stored, internal_id))
            assigned.append(stored["_id"])

        if staged:
            self._log_many("insert", [{"doc": stored} for stored, _ in staged])
            for stored, internal_id in staged:
                self._documents[internal_id] = stored
                self._by_user_id[_freeze_id(stored["_id"])] = internal_id
                for index in self._indexes.values():
                    index.add(internal_id, stored)
            # One sorted-run merge for the whole batch; flushing here (not
            # on first read) keeps the index read methods free of side
            # effects.
            for index in self._indexes.values():
                index.flush()
        if error is not None:
            # Always a QueryError or DuplicateKeyError staged above; raised
            # here so the validated prefix lands first (per-op parity).
            raise error  # repro: ignore[L004]
        return assigned

    def find(
        self,
        filter_doc: Optional[dict] = None,
        projection: Optional[dict] = None,
        sort: Optional[List[tuple]] = None,
        limit: Optional[int] = None,
        skip: int = 0,
    ) -> List[dict]:
        """Return matching documents as copy-on-read views, optionally projected.

        Reads are planned (:mod:`repro.docstore.planner`): equality and
        range conditions resolve through hash/sorted indexes, a
        single-field ``sort`` matching a sorted index streams in index
        order with no sorting, and only the documents in the returned
        ``skip``/``limit`` window are wrapped
        (:class:`~repro.docstore.views.DocumentView`).
        """
        self._check_healthy("find")
        results = list(
            execute_find(
                self, plan_read(self, filter_doc, sort), skip=skip, limit=limit
            )
        )
        if projection:
            results = list(run_pipeline(results, [{"$project": projection}]))
        return results

    def distinct(self, path: str, filter_doc: Optional[dict] = None) -> List[Any]:
        """Distinct values of ``path`` over matching documents.

        Array values are expanded element-wise (MongoDB semantics); the
        result is sorted by ``repr`` for determinism.  Without a filter, a
        hash index on ``path`` whose keys are all strings answers straight
        from the index, never touching a document.
        """
        self._check_healthy("distinct")
        if not filter_doc:
            index = self._indexes.get(f"{path}_hash")
            if isinstance(index, HashIndex):
                keys = list(index.keys())
                if all(key is None or isinstance(key, str) for key in keys):
                    seen = {repr(key): key for key in keys if key is not None}
                    return [seen[key] for key in sorted(seen)]
        return _distinct_values(self._scan(filter_doc, "distinct"), path)

    def find_one(self, filter_doc: Optional[dict] = None) -> Optional[dict]:
        """Return the first matching document or ``None``."""
        for document in self._scan(filter_doc, "find_one"):
            return lazy_document(document)
        return None

    def count_documents(self, filter_doc: Optional[dict] = None) -> int:
        """Number of documents matching ``filter_doc``.

        When the filter is fully covered by the chosen index access (no
        residual predicate), this is a pure index count — no document is
        loaded or matched.
        """
        if not filter_doc:
            self._check_healthy("count_documents")
            return len(self)
        self._check_healthy("count_documents")
        return count_matching(self, plan_read(self, filter_doc))

    def update_one(self, filter_doc: dict, update: dict) -> int:
        """Apply ``update`` to the first match; returns 0 or 1.

        The update applies fully or not at all: operators build the next
        version by path copying (:class:`PathCopy`), and only a version
        every operator succeeded on is journaled, indexed and installed.
        """
        for internal_id in self._matching_ids(filter_doc, "update_one", write=True):
            self._update_document(internal_id, update)
            return 1
        return 0

    def update_many(self, filter_doc: dict, update: dict) -> int:
        """Apply ``update`` to every match; returns the match count.

        Documents are updated one at a time: when the update fails on one,
        the documents before it stay updated (and journaled) and it raises.
        """
        touched = list(self._matching_ids(filter_doc, "update_many", write=True))
        for internal_id in touched:
            self._update_document(internal_id, update)
        return len(touched)

    def _update_document(self, internal_id: int, update: dict) -> None:
        old = self._documents[internal_id]
        self._install([(internal_id, old, _next_version(old, update))])

    def write_by_id(self, batch: Iterable[Tuple[Any, List[list]]]) -> int:
        """Apply post-state writes to documents by ``_id``, as one batch.

        ``batch`` pairs an ``_id`` with its writes in order, each
        ``[path, value]`` (the post-state of a path) or ``[path]`` (a
        removal): the shape an ``update`` record journals.  Each ``_id`` is
        looked up directly, with no filter planning; an absent one is
        skipped.  Every value is copied once.

        All-or-nothing: every document's next version is staged first, so
        a write to ``_id`` or one addressing a list by a key raises
        :class:`QueryError` with nothing changed.  The batch's ``update``
        records are then journaled with one append, one record per
        document, and only then installed, maintaining just the indexes
        the writes overlap.  Returns the number of documents changed.
        """
        self._check_healthy("write_by_id", write=True)
        return self._write_by_id(
            ((doc_id, _owned_writes(writes)) for doc_id, writes in batch), strict=True
        )

    def _replay_update(self, doc_id: Any, writes: List[list]) -> None:
        """Apply a journaled ``update`` record through :meth:`write_by_id`'s path.

        The parsed writes are installed uncopied.  An absent ``_id`` is a
        no-op, and a write addressing a list by a key is skipped (see
        :meth:`PathCopy.apply`).
        """
        self._write_by_id([(doc_id, writes)], strict=False)

    def _write_by_id(
        self, batch: Iterable[Tuple[Any, List[list]]], strict: bool
    ) -> int:
        """Stage every listed document's next version, then :meth:`_install`.

        Writes to one ``_id`` listed twice build one version.
        """
        by_user_id = self._by_user_id
        documents = self._documents
        staged: Dict[int, Tuple[int, dict, PathCopy]] = {}
        for doc_id, writes in batch:
            internal_id = by_user_id.get(_freeze_id(doc_id))
            if internal_id is None:
                continue
            entry = staged.get(internal_id)
            if entry is None:
                old = documents[internal_id]
                entry = staged[internal_id] = (internal_id, old, PathCopy(old))
            entry[2].apply(writes, strict=strict)
        return self._install(list(staged.values()))

    def _install(self, versions: List[Tuple[int, dict, PathCopy]]) -> int:
        """Journal (one append), index and install documents' next versions.

        ``versions`` holds ``(internal id, current document, next
        version)``.  A version that wrote nothing changes and journals
        nothing.  Returns the number of documents changed.
        """
        changed = [entry for entry in versions if entry[2].writes]
        self._log_many(
            "update",
            [{"id": old["_id"], "writes": version.writes} for _, old, version in changed],
        )
        for internal_id, old, version in changed:
            written = [write[0] for write in version.writes]
            self._place_version(internal_id, old, version.document, written)
        return len(changed)

    def replace_one(self, filter_doc: dict, replacement: dict) -> int:
        """Replace the first matching document wholesale (keeps its ``_id``)."""
        return self._replace_owned(filter_doc, deep_copy(replacement))

    def _replace_owned(self, filter_doc: dict, stored: dict) -> int:
        """:meth:`replace_one` with ``stored`` kept as is (uncopied)."""
        for internal_id in self._matching_ids(filter_doc, "replace_one", write=True):
            old = self._documents[internal_id]
            stored["_id"] = old["_id"]
            self._log("replace", {"id": stored["_id"], "doc": stored})
            self._place_version(internal_id, old, stored, None)
            return 1
        return 0

    def delete_many(self, filter_doc: dict) -> int:
        """Delete every matching document; returns the delete count."""
        doomed = list(self._matching_ids(filter_doc, "delete_many", write=True))
        for internal_id in doomed:
            document = self._documents[internal_id]
            self._log("delete", {"id": document["_id"]})
            for spec_index in self._indexes.values():
                spec_index.remove(internal_id, document)
            del self._by_user_id[_freeze_id(document["_id"])]
            del self._documents[internal_id]
        return len(doomed)

    def _place_version(
        self,
        internal_id: int,
        old: dict,
        new: dict,
        written: Optional[List[str]],
    ) -> None:
        """Swap ``old`` for ``new`` in the indexes and the document map.

        ``written`` lists the dotted paths that changed (``None``: any), so
        only indexes over those paths are maintained.
        """
        if written is None:
            affected = list(self._indexes.values())
        else:
            affected = [
                spec_index
                for spec_index in self._indexes.values()
                if any(_paths_overlap(path, spec_index.path) for path in written)
            ]
        for spec_index in affected:
            spec_index.remove(internal_id, old)
            spec_index.add(internal_id, new)
            spec_index.flush()
        self._documents[internal_id] = new

    def aggregate(self, pipeline: List[dict]) -> List[dict]:
        """Run an aggregation ``pipeline`` over the collection.

        Leading ``$match``/``$sort``/``$skip``/``$limit`` stages are pushed
        down into the query planner: they run through index accesses and
        windowed, lazily-copied reads, so the remaining stages see an
        already-narrowed stream instead of a deep copy of the whole
        collection.
        """
        pushdown = split_pushdown(pipeline)
        self._check_healthy("aggregate")
        plan = plan_read(self, pushdown.filter_doc, pushdown.sort_spec)
        plan.pushdown = list(pushdown.pushed)
        source: Iterable[dict] = execute_find(
            self, plan, skip=pushdown.skip, limit=pushdown.limit
        )
        return list(run_pipeline(source, pushdown.rest))

    def all(self) -> Iterator[dict]:
        """Iterate every document (materialized views) in insertion order."""
        self._check_healthy("all")
        return (lazy_document(doc) for doc in self._ordered_documents())

    # --------------------------------------------------------------- indexes

    def create_index(self, path: str, kind: str = "hash") -> str:
        """Create (or return) an index on dotted ``path``.

        ``kind`` is ``"hash"`` for equality lookups or ``"sorted"`` for range
        scans.  Returns the index name ``{path}_{kind}``.
        """
        name = f"{path}_{kind}"
        if name in self._indexes:
            return name
        self._check_healthy("create_index", write=True)
        index = build_index(kind, path)
        for internal_id, document in self._documents.items():
            index.add(internal_id, document)
        index.flush()
        self._log("index", {"path": path, "kind": kind})
        self._indexes[name] = index
        return name

    def index_names(self) -> List[str]:
        """Sorted names of the collection's indexes."""
        return sorted(self._indexes)

    def explain(
        self,
        filter_doc: Optional[dict] = None,
        sort: Optional[List[tuple]] = None,
        pipeline: Optional[List[dict]] = None,
    ) -> dict:
        """Describe how a query (or pipeline) would execute.

        Returns the chosen plan — ``"full_scan"`` / ``"id_lookup"`` /
        ``"index_lookup"`` / ``"index_range"`` / ``"index_order"`` — plus
        the index used, the residual predicate the candidates are matched
        against, the candidate count (how many documents would actually be
        examined), pushed-down pipeline stages when ``pipeline`` is given,
        and index-usage hints from
        :func:`repro.analysis.analyze_index_usage`.
        """
        self._check_healthy("explain")
        remaining: List[dict] = []
        pushed: List[str] = []
        if pipeline is not None:
            pushdown = split_pushdown(pipeline)
            query_filter, query_sort = pushdown.filter_doc, pushdown.sort_spec
            pushed = pushdown.pushed
            remaining = pushdown.rest
        else:
            query_filter, query_sort = filter_doc, sort
        plan = plan_read(self, query_filter, query_sort)
        plan.pushdown = list(pushed)
        description = plan.describe(len(self))
        description["remaining_stages"] = [
            next(iter(stage)) if isinstance(stage, dict) and stage else "?"
            for stage in remaining
        ]
        from repro.analysis import analyze_index_usage

        description["hints"] = [
            diagnostic.render()
            for diagnostic in analyze_index_usage(
                filter_doc=filter_doc,
                sort=sort,
                pipeline=pipeline,
                indexes=self.index_specs(),
            )
        ]
        return description

    def index_specs(self) -> List[dict]:
        """Serializable descriptions of the collection's indexes."""
        return [
            {"path": index.path, "kind": index.kind}
            for index in self._indexes.values()
        ]

    # ------------------------------------------------------------- internals

    def _log(self, op: str, payload: dict) -> None:
        journal = self._journal
        if journal is not None:
            journal(op, payload)

    def _log_many(self, op: str, payloads: List[dict]) -> None:
        """Journal a batch of ``op`` records in order (one WAL write)."""
        journal_many = self._journal_many
        if journal_many is not None:
            journal_many(op, payloads)

    def _ordered_documents(self) -> Iterator[dict]:
        # The ids are fixed at the first ``next()``: one deleted since is
        # skipped, one updated since is yielded in its new version.
        documents = self._documents
        for internal_id in sorted(documents):
            document = documents.get(internal_id)
            if document is not None:
                yield document

    def _scan(self, filter_doc: Optional[dict], op: str) -> Iterator[dict]:
        documents = self._documents
        for internal_id in self._matching_ids(filter_doc, op):
            yield documents[internal_id]

    def _matching_ids(
        self, filter_doc: Optional[dict], op: str, write: bool = False
    ) -> Iterator[int]:
        """Internal ids of the matches, ascending."""
        self._check_healthy(op, write)
        yield from iter_matching_ids(self, plan_read(self, filter_doc))

    def __len__(self) -> int:
        return len(self._documents)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Collection(name={self.name!r}, documents={len(self)})"


def _distinct_values(documents: Iterable[dict], path: str) -> List[Any]:
    """Distinct non-null values of ``path``, arrays expanded, sorted by repr.

    Container values come back wrapped (:func:`wrap_value`), so a caller
    that mutates one can never reach the stored container.
    """
    seen: Dict[str, Any] = {}
    for document in documents:
        value = get_path(document, path, default=None)
        values = value if isinstance(value, list) else [value]
        for element in values:
            if element is not None:
                seen.setdefault(repr(element), element)
    return [wrap_value(seen[key]) for key in sorted(seen)]


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


def _owned_writes(writes: List[list]) -> List[list]:
    """Validated copies of live ``[path, value]`` / ``[path]`` writes."""
    owned: List[list] = []
    for write in writes:
        if (
            not isinstance(write, (list, tuple))
            or len(write) not in (1, 2)
            or not isinstance(write[0], str)
        ):
            raise QueryError(f"a write is [path, value] or [path], got {write!r}")
        path = write[0]
        if path == "_id" or path.startswith("_id."):
            raise QueryError("_id is immutable")
        owned.append([path, deep_copy(write[1])] if len(write) == 2 else [path])
    return owned


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
