"""Hash and sorted indexes over dotted document paths."""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterator, List, Set, Tuple

from repro.docstore.documents import iter_index_keys, resolve_path
from repro.docstore.errors import UnknownIndexKind


class HashIndex:
    """Equality index: ``frozen key -> set of document ids``.

    Arrays are indexed multikey-style (one entry per element); an absent
    field is indexed under ``None``.
    """

    kind = "hash"

    def __init__(self, path: str) -> None:
        self.path = path
        self._buckets: Dict[Any, Set[int]] = {}

    def add(self, doc_id: int, document: dict) -> None:
        """Index ``document`` under ``doc_id``."""
        for key in iter_index_keys(document, self.path):
            self._buckets.setdefault(key, set()).add(doc_id)

    def remove(self, doc_id: int, document: dict) -> None:
        """Remove ``document``'s entries for ``doc_id``."""
        for key in iter_index_keys(document, self.path):
            bucket = self._buckets.get(key)
            if bucket is None:
                continue
            bucket.discard(doc_id)
            if not bucket:
                del self._buckets[key]

    def flush(self) -> None:
        """No-op: hash buckets are maintained eagerly on every ``add``."""

    def lookup(self, key: Any) -> Set[int]:
        """Document ids whose indexed field equals ``key`` (pre-frozen)."""
        return set(self._buckets.get(key, ()))

    def estimate(self, key: Any) -> int:
        """Bucket size for ``key`` (pre-frozen) without materializing a set."""
        return len(self._buckets.get(key, ()))

    def keys(self) -> Iterator[Any]:
        """Iterate the distinct (frozen) keys present in the index."""
        return iter(self._buckets)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


class SortedIndex:
    """Ordered index supporting range scans over comparable keys.

    Keys that are not mutually comparable with the existing population are
    bucketed by type first, so mixed int/str fields do not raise.  Booleans
    live in the ``number`` bucket: Python compares them freely with ints and
    floats, so splitting them out would make range candidate sets miss
    documents the filter language matches.  Frozen lists and documents
    share the ``tuple`` bucket in a type-ranked form (:func:`_sortable`),
    so ``[1]`` and ``["a"]`` sort there without raising either.

    Beyond raw ranges the index keeps two per-document books the query
    planner relies on:

    * which documents were indexed from a *list* value (multikey entries) —
      needed both for exact two-sided range candidate sets under MongoDB's
      any-element array semantics and to disable index-ordered streaming
      (a list sorts as a list, not as its smallest element);
    * how many live keys each document contributed, so the planner can tell
      which documents are absent from the index (missing / ``None`` values
      sort before everything and are streamed separately).

    Additions are buffered: ``add`` appends to a pending list instead of
    paying an O(n) ``insort`` memmove per key, and :meth:`flush` (called by
    :meth:`remove` and by every collection write path once its batch of
    ``add`` calls is done) merges all pending keys in one extend-and-Timsort
    pass per touched type bucket — Timsort sees the sorted prefix, so N
    buffered inserts cost O(n + N log N) once instead of O(n·N).  The
    per-document books (``_key_counts``, ``_list_entries``) stay eagerly
    maintained, so :meth:`indexed_ids` and :attr:`multikey` never force a
    merge.

    Because writers flush at the end of each mutation (not readers on first
    use), the query methods are free of side effects under collection
    usage.  They still call :meth:`flush` defensively — for standalone index
    use where nothing else flushes — but under collection usage the pending
    list is always empty by the time a reader arrives, so that call reduces
    to a pure emptiness check.
    """

    kind = "sorted"

    def __init__(self, path: str) -> None:
        self.path = path
        # One sorted list of (key, doc_id) per key type name.
        self._by_type: Dict[str, List[Tuple[Any, int]]] = {}
        # Buffered additions: (type name, (key, doc_id)) awaiting merge.
        self._pending: List[Tuple[str, Tuple[Any, int]]] = []
        # doc_id -> number of times added with a list value (multikey).
        self._list_entries: Dict[int, int] = {}
        # doc_id -> number of non-None keys currently in the index.
        self._key_counts: Dict[int, int] = {}

    @staticmethod
    def _type_name(key: Any) -> str:
        if isinstance(key, (bool, int, float)):
            return "number"
        return type(key).__name__

    def flush(self) -> None:
        """Merge buffered additions into the sorted runs (one pass each).

        Mutates the index, so only writers (and single-owner standalone
        users) may call it; collection read paths rely on every write
        having flushed already.
        """
        if not self._pending:
            return
        touched: Dict[str, List[Tuple[Any, int]]] = {}
        for type_name, entry in self._pending:
            touched.setdefault(type_name, []).append(entry)
        self._pending = []
        for type_name, batch in touched.items():
            entries = self._by_type.setdefault(type_name, [])
            entries.extend(batch)
            entries.sort()

    def _delete(self, doc_id: int, key: Any) -> None:
        entries = self._by_type.get(self._type_name(key))
        if not entries:
            return
        entry = (_sortable(key), doc_id)
        position = bisect.bisect_left(entries, entry)
        if position < len(entries) and entries[position] == entry:
            entries.pop(position)
            count = self._key_counts.get(doc_id, 0) - 1
            if count > 0:
                self._key_counts[doc_id] = count
            else:
                self._key_counts.pop(doc_id, None)

    def add(self, doc_id: int, document: dict) -> None:
        """Index ``document`` under ``doc_id`` (buffered until :meth:`flush`)."""
        value = resolve_path(document, self.path)
        if isinstance(value, list):
            self._list_entries[doc_id] = self._list_entries.get(doc_id, 0) + 1
        for key in iter_index_keys(document, self.path):
            if key is None:
                continue
            self._pending.append((self._type_name(key), (_sortable(key), doc_id)))
            self._key_counts[doc_id] = self._key_counts.get(doc_id, 0) + 1

    def remove(self, doc_id: int, document: dict) -> None:
        """Remove ``document``'s entries for ``doc_id``."""
        self.flush()
        value = resolve_path(document, self.path)
        if isinstance(value, list):
            count = self._list_entries.get(doc_id, 0) - 1
            if count > 0:
                self._list_entries[doc_id] = count
            else:
                self._list_entries.pop(doc_id, None)
        for key in iter_index_keys(document, self.path):
            if key is None:
                continue
            self._delete(doc_id, key)

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Set[int]:
        """Document ids with an indexed key inside ``[low, high]``.

        Either bound may be ``None`` (open).  The scan is restricted to the
        type bucket of whichever bound is given; a fully open range scans all
        buckets.
        """
        self.flush()
        hits: Set[int] = set()
        low, high = _sortable(low), _sortable(high)
        reference = low if low is not None else high
        buckets: Iterator[List[Tuple[Any, int]]]
        if reference is None:
            buckets = iter(self._by_type.values())
        else:
            bucket = self._by_type.get(self._type_name(reference))
            buckets = iter([bucket] if bucket else [])
        for entries in buckets:
            start = 0
            end = len(entries)
            if low is not None:
                start = _bisect_key(entries, low, left=include_low)
            if high is not None:
                end = _bisect_key(entries, high, left=not include_high)
            for key, doc_id in entries[start:end]:
                hits.add(doc_id)
        return hits

    def range_ids(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Set[int]:
        """Exact candidate ids for a conjunction of range conditions.

        Unlike :meth:`range`, this is safe to use as the *complete* candidate
        set for ``{"$gte": low, "$lte": high}`` under MongoDB's any-element
        array semantics: a document with value ``[1, 20]`` matches
        ``{"$gte": 2, "$lte": 10}`` (element 20 satisfies the lower bound,
        element 1 the upper) even though no single key falls inside
        ``[2, 10]``.  Multikey documents are therefore re-checked one bound
        at a time.
        """
        hits = self.range(low, high, include_low, include_high)
        if low is not None and high is not None and self._list_entries:
            lows = self.range(low, None, include_low, True)
            highs = self.range(None, high, True, include_high)
            hits |= set(self._list_entries) & lows & highs
        return hits

    def count_range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> int:
        """Upper bound on ``len(range_ids(...))`` without building the set."""
        self.flush()
        total = 0
        low, high = _sortable(low), _sortable(high)
        reference = low if low is not None else high
        if reference is None:
            total = sum(len(entries) for entries in self._by_type.values())
        else:
            entries = self._by_type.get(self._type_name(reference), [])
            start = 0
            end = len(entries)
            if low is not None:
                start = _bisect_key(entries, low, left=include_low)
            if high is not None:
                end = _bisect_key(entries, high, left=not include_high)
            total = max(end - start, 0)
        return total + len(self._list_entries)

    @property
    def multikey(self) -> bool:
        """Whether any indexed document has a list value at the path."""
        return bool(self._list_entries)

    def indexed_ids(self) -> Set[int]:
        """Ids of documents contributing at least one non-``None`` key."""
        return set(self._key_counts)

    def order_usable(self) -> bool:
        """Whether index order equals the filter language's sort order.

        True when no document is multikey (a list value sorts as a list,
        not as its elements) and every key lives in the ``number`` or
        ``str`` buckets, whose relative order (numbers before strings)
        matches the sort routine's total order over mixed types.
        """
        if self._list_entries:
            return False
        self.flush()
        return set(self._by_type) <= {"number", "str"}

    def ordered_ids(self, reverse: bool = False) -> Iterator[int]:
        """Document ids in sort order (only valid when :meth:`order_usable`).

        Ascending streams numbers then strings.  Descending must mirror a
        *stable* reverse sort: keys descend, but documents sharing a key keep
        ascending id order — so equal-key runs are emitted in index order
        while the runs themselves are walked back to front.
        """
        self.flush()
        buckets = [self._by_type.get("number", []), self._by_type.get("str", [])]
        if not reverse:
            for entries in buckets:
                for _key, doc_id in entries:
                    yield doc_id
            return
        for entries in reversed(buckets):
            end = len(entries)
            while end > 0:
                key = entries[end - 1][0]
                start = _bisect_key(entries, key, left=True)
                for _key, doc_id in entries[start:end]:
                    yield doc_id
                end = start

    def first_ids(self, count: int) -> List[int]:
        """Ids of the ``count`` smallest keys (across all buckets, in order)."""
        self.flush()
        merged: List[Tuple[Any, int]] = []
        for entries in self._by_type.values():
            merged.extend(entries[:count])
        # Keys within a bucket are comparable; across buckets sort by type.
        merged.sort(key=lambda pair: (self._type_name(pair[0]), pair[0]))
        return [doc_id for _key, doc_id in merged[:count]]

    def __len__(self) -> int:
        return len(self._pending) + sum(
            len(entries) for entries in self._by_type.values()
        )


def _sortable(key: Any) -> Any:
    """``key`` as its type bucket stores it.

    A tuple (a frozen list or document) may hold elements that do not
    compare, such as ``(1,)`` and ``("a",)``.  Pairing each element with a
    type rank makes any two JSON-shaped keys comparable, while elements of
    one type keep their natural order.  Other keys are stored as they are.
    """
    if not isinstance(key, tuple):
        return key
    return tuple(_ranked(element) for element in key)


def _ranked(value: Any) -> Tuple[int, Any]:
    if value is None:
        return (0, 0)
    if isinstance(value, (bool, int, float)):
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    return (3, _sortable(value))


def _bisect_key(entries: List[Tuple[Any, int]], key: Any, left: bool) -> int:
    """Bisect a ``(key, doc_id)`` list on ``key`` only."""
    low, high = 0, len(entries)
    while low < high:
        mid = (low + high) // 2
        mid_key = entries[mid][0]
        if mid_key < key or (not left and mid_key == key):
            low = mid + 1
        else:
            high = mid
    return low


def build_index(kind: str, path: str):
    """Factory used by collections and the persistence layer."""
    if kind == "hash":
        return HashIndex(path)
    if kind == "sorted":
        return SortedIndex(path)
    raise UnknownIndexKind(
        f"unknown index kind {kind!r} (expected 'hash' or 'sorted')"
    )
