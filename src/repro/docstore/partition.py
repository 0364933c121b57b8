"""A collection's storage: document map, indexes and COW epochs.

Each :class:`~repro.docstore.collection.Collection` owns one
:class:`Partition`, whose :class:`PartitionState` holds the document map,
the ``_id`` map and the secondary indexes, shaped exactly as the query
planner reads them (:func:`~repro.docstore.planner.plan_read`,
:func:`~repro.docstore.planner.iter_matching_ids`, ...).

The partition also carries the snapshot-isolation machinery.  ``live`` is
the state writers mutate; ``published`` is the state handed to snapshot
readers.  :meth:`Partition.publish` (called by ``Database.commit``) makes
the current live state the published one in a single reference assignment
— atomic under the GIL, so a concurrent reader sees either the old epoch
or the new one, never a mix.  The first write after a publish copies the
state's maps (:meth:`PartitionState.clone`: shallow document map, cloned
indexes).  Documents themselves are never mutated in place: an update
installs a new version that copies only the paths it writes
(:class:`~repro.docstore.documents.PathCopy`), so a published epoch and
every view handed out of it stay unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["PartitionState", "Partition"]


class PartitionState:
    """One epoch of a collection: documents, id map and indexes.

    Attribute names deliberately match the private storage attributes the
    planner reads on a collection (``_documents`` / ``_by_user_id`` /
    ``_indexes``), so a state object *is* a valid planner target.
    """

    __slots__ = ("_documents", "_by_user_id", "_indexes")

    def __init__(
        self,
        documents: Optional[Dict[int, dict]] = None,
        by_user_id: Optional[Dict[Any, int]] = None,
        indexes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._documents: Dict[int, dict] = {} if documents is None else documents
        self._by_user_id: Dict[Any, int] = {} if by_user_id is None else by_user_id
        self._indexes: Dict[str, Any] = {} if indexes is None else indexes

    def clone(self) -> "PartitionState":
        """Copy for copy-on-write: new maps, cloned indexes, shared docs.

        Document dicts are shared between the clone and the original for
        good: writers replace a document with a new version instead of
        mutating it, so cloning is O(collection) in map entries, not in
        document bytes.
        """
        return PartitionState(
            documents=dict(self._documents),
            by_user_id=dict(self._by_user_id),
            indexes={name: index.clone() for name, index in self._indexes.items()},
        )

    def __len__(self) -> int:
        return len(self._documents)


class Partition:
    """A collection's storage, with copy-on-write epochs.

    The first write after a publish clones the state's maps; writes then
    replace whole entries (a new document version, a deleted id) and never
    mutate a stored document, so no per-document ownership is tracked.
    """

    __slots__ = ("live", "published")

    def __init__(self) -> None:
        state = PartitionState()
        #: The state writers mutate (after :meth:`writable` privatizes it).
        self.live = state
        #: The last published epoch; what snapshot readers iterate.
        self.published = state

    def writable(self) -> PartitionState:
        """The live state, copied first if a reader could be holding it."""
        if self.live is self.published:
            self.live = self.published.clone()
        return self.live

    def publish(self) -> None:
        """Atomically make the live state the published epoch.

        A single reference assignment: concurrent readers that already
        grabbed the old ``published`` keep a consistent epoch; new readers
        get the new one.  After publishing, the next write copies.

        Sorted indexes merge their buffered additions first (normally a
        no-op — every write path flushes at its end), so a published
        epoch's runs are final: snapshot readers never trigger (and so
        never race on) a deferred merge.
        """
        for index in self.live._indexes.values():
            index.flush()
        self.published = self.live

    def __len__(self) -> int:
        return len(self.live._documents)
