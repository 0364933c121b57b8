"""Dotted-path access to nested documents.

Documents are plain dicts whose values may be scalars, lists or further
dicts.  Paths use MongoDB's dotted notation (``"meta.hashes"`` or
``"records.2.person.last_name"``); a numeric path segment indexes into a
list.
"""

from __future__ import annotations

import copy
from typing import Any, Iterator, List, Tuple

from repro.docstore.errors import QueryError

#: Sentinel distinguishing "path resolves to None" from "path is absent".
MISSING = object()


def get_path(document: Any, path: str, default: Any = None) -> Any:
    """Return the value at dotted ``path`` inside ``document``.

    Returns ``default`` when any segment of the path is absent.  If an
    intermediate value is a list and the next segment is *not* numeric, the
    lookup is broadcast over the list's elements and a list of hits is
    returned (MongoDB's array traversal semantics) — unless no element
    matches, in which case ``default`` is returned.
    """
    value = resolve_path(document, path)
    return default if value is MISSING else value


def resolve_path(document: Any, path: str) -> Any:
    """Like :func:`get_path` but returns :data:`MISSING` for absent paths."""
    segments = path.split(".") if path else []
    return _resolve(document, segments)


def _resolve(value: Any, segments: List[str]) -> Any:
    if not segments:
        return value
    head, rest = segments[0], segments[1:]
    if isinstance(value, dict):
        if head not in value:
            return MISSING
        return _resolve(value[head], rest)
    if isinstance(value, list):
        if head.isdigit():
            index = int(head)
            if index >= len(value):
                return MISSING
            return _resolve(value[index], rest)
        hits = []
        for element in value:
            resolved = _resolve(element, segments)
            if resolved is not MISSING:
                hits.append(resolved)
        return hits if hits else MISSING
    return MISSING


def set_path(document: dict, path: str, value: Any) -> None:
    """Set ``value`` at dotted ``path``, creating intermediate dicts."""
    segments = path.split(".")
    target = document
    for segment in segments[:-1]:
        if isinstance(target, list):
            target = target[int(segment)]
            continue
        if segment not in target or not isinstance(target[segment], (dict, list)):
            target[segment] = {}
        target = target[segment]
    last = segments[-1]
    if isinstance(target, list):
        target[int(last)] = value
    else:
        target[last] = value


def unset_path(document: dict, path: str) -> bool:
    """Remove the value at dotted ``path``; returns True when removed."""
    segments = path.split(".")
    target: Any = document
    for segment in segments[:-1]:
        if isinstance(target, dict):
            if segment not in target:
                return False
            target = target[segment]
        elif isinstance(target, list) and segment.isdigit():
            index = int(segment)
            if index >= len(target):
                return False
            target = target[index]
        else:
            return False
    last = segments[-1]
    if isinstance(target, dict) and last in target:
        del target[last]
        return True
    return False


#: Immutable JSON scalar types :func:`deep_copy` shares instead of copying.
_SHARED_TYPES = frozenset((str, int, float, bool, type(None)))


def deep_copy(document: Any) -> Any:
    """Deep-copy a document or value.

    JSON-shaped values are copied here: plain ``dict`` and ``list`` are
    rebuilt recursively, and ``str``, ``int``, ``float``, ``bool`` and
    ``None`` are shared, being immutable.  Every other type (views,
    tuples, sets, subclasses) goes through :func:`copy.deepcopy`.  The
    result equals ``copy.deepcopy(document)`` and shares no container
    with it; unlike ``copy.deepcopy``, a container referenced twice is
    copied twice, and a cyclic value is not supported (JSON has neither).
    """
    kind = document.__class__
    if kind is dict:
        return {key: deep_copy(value) for key, value in document.items()}
    if kind is list:
        return [deep_copy(value) for value in document]
    if kind in _SHARED_TYPES:
        return document
    return copy.deepcopy(document)


class PathCopy:
    """The next version of a stored document, copied along written paths.

    Stored documents are never mutated in place: snapshots and lazy views
    may hold the previous version.  The root and each container on a
    written path are shallow-copied once per version; every untouched
    subtree stays shared with the previous version.

    :attr:`writes` journals what was written, in order: ``[path, value]``
    for the post-state of a path, ``[path]`` for a removal.  List elements
    are addressed by position.  Writing at or past the end of a list pads
    it with ``None`` and appends (MongoDB's positional ``$set``), so
    replaying the writes over any version converges on the same result.
    """

    __slots__ = ("document", "writes", "_private")

    def __init__(self, document: dict) -> None:
        self.document = dict(document)
        self.writes: List[list] = []
        #: Containers this version owns (safe to mutate), keyed by ``id``;
        #: holding them keeps an id from being reused while it is listed.
        self._private = {id(self.document): self.document}

    def set(self, path: str, value: Any) -> None:
        """Write ``value`` at ``path``, creating missing containers."""
        *parents, last = path.split(".")
        target = self.document
        for segment in parents:
            target = self._private_child(target, segment)
        _assign(target, last, value)
        self.writes.append([path, value])

    def unset(self, path: str) -> bool:
        """Remove the dict entry at ``path``; True when one was removed."""
        *parents, last = path.split(".")
        target: Any = self.document
        for segment in parents:
            if isinstance(target, list) and not segment.isdigit():
                return False
            target = _child(target, segment)
        if not isinstance(target, dict) or last not in target:
            return False
        target = self.document
        for segment in parents:
            target = self._private_child(target, segment)
        del target[last]
        self.writes.append([path])
        return True

    def apply(self, writes: List[list], strict: bool = False) -> None:
        """Apply :attr:`writes`-shaped post-states in order.

        A live write (``strict``) that addresses a list by a key raises
        :class:`QueryError`.  Replay skips such a write instead: replaying
        from the state the update saw cannot produce one, but a stale log
        replayed over a newer snapshot can, where the container became a
        list later, and a later write of the same log then replaces it.
        """
        for write in writes:
            try:
                if len(write) == 2:
                    self.set(write[0], write[1])
                else:
                    self.unset(write[0])
            except QueryError:
                if strict:
                    raise

    def _private_child(self, parent: Any, segment: str) -> Any:
        """``parent``'s container at ``segment``, owned by this version.

        A shared container is shallow-copied into ``parent``; a missing or
        scalar one is replaced by a new dict.
        """
        child = _child(parent, segment)
        if isinstance(child, (dict, list)):
            if id(child) in self._private:
                return child
            child = child.copy()
        else:
            child = {}
        self._private[id(child)] = child
        _assign(parent, segment, child)
        return child


def _child(parent: Any, segment: str) -> Any:
    """The value at one path segment, or :data:`MISSING`."""
    if isinstance(parent, dict):
        return parent.get(segment, MISSING)
    if isinstance(parent, list):
        position = _position(segment)
        return parent[position] if position < len(parent) else MISSING
    return MISSING


def _assign(parent: Any, segment: str, value: Any) -> None:
    """Set one segment of a dict, or of a list (padding with ``None``)."""
    if isinstance(parent, dict):
        parent[segment] = value
        return
    position = _position(segment)
    if position < len(parent):
        parent[position] = value
        return
    parent.extend([None] * (position - len(parent)))
    parent.append(value)


def _position(segment: str) -> int:
    if not segment.isdigit():
        raise QueryError(f"list position must be a non-negative integer, got {segment!r}")
    return int(segment)


def iter_index_keys(document: dict, path: str) -> Iterator[Any]:
    """Yield every value ``path`` takes inside ``document`` for indexing.

    Arrays are expanded into one key per element (multikey indexes).  An
    absent path yields a single ``None`` key so missing values are indexed
    and ``{"field": None}`` queries can use the index.
    """
    value = resolve_path(document, path)
    if value is MISSING:
        yield None
        return
    if isinstance(value, list):
        if not value:
            yield None
            return
        for element in value:
            yield _freeze(element)
        return
    yield _freeze(value)


def _freeze(value: Any) -> Any:
    """Convert ``value`` into a hashable key for hash indexes."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


def flatten(document: dict, prefix: str = "") -> List[Tuple[str, Any]]:
    """Flatten a nested document into ``(dotted_path, scalar)`` pairs."""
    items: List[Tuple[str, Any]] = []
    for key, value in document.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            items.extend(flatten(value, path))
        else:
            items.append((path, value))
    return items
