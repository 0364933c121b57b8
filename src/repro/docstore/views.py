"""Copy-on-read document materialization: the one way reads return documents.

Every read (``find``, ``find_one``, ``aggregate``, ``all``, ``distinct``
values) wraps what it returns instead of deep-copying it.  Results stay
safe to mutate while the copying is deferred: a view is a ``dict``/``list``
*subclass* whose own storage is a cheap C-level shallow copy of the stored
container, so

* top-level mutations land in the view's private table, never in the
  stored document;
* nested containers are wrapped lazily on first access (and memoized), so
  a mutation at any depth only ever touches view-owned storage;
* equality, iteration, ``json.dumps`` and pickling all behave exactly like
  the plain containers a deep copy produces (``__reduce__`` rebuilds
  plain ``dict``/``list``, so ``copy.deepcopy`` and pickle escape the view
  types entirely);
* raw-copy APIs — ``dict(view)``, ``{**view}``, ``plain.update(view)``,
  ``view.copy()``, ``view | other``, list concatenation / repetition /
  slicing — produce plain containers whose nested values are themselves
  views, never the stored containers.  The ``DocumentView.__iter__``
  override opts out of CPython's raw dict-copy fast path (taken only when
  ``tp_iter`` is dict's own), routing those APIs through the wrapping
  accessors; ``list(view)`` already iterates because the list fast path
  requires an exact ``list``.

The stored document is only copied level-by-level along the paths a caller
actually touches — untouched subtrees are shared with the stored version.
That sharing is safe because the store never mutates a stored document:
an update installs a new version that copies only the paths it writes
(:class:`~repro.docstore.documents.PathCopy`), so a view keeps showing
the version it was built over.  ``thaw`` forces a
fully independent plain-container deep copy; the eager deep-copying reads
survive only as the full-scan oracle in :mod:`repro.docstore._reference`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

from .documents import deep_copy

__all__ = ["DocumentView", "ListView", "lazy_document", "thaw", "wrap_value"]


class DocumentView(dict):
    """A lazily-copying read view over a stored document.

    Invariant: every container reachable through this view's accessors is
    either view-owned (a fresh shallow copy) or itself a view, so no
    mutation made through the mapping API can reach the stored document.
    """

    __slots__ = ("_wrapped_all",)

    def __init__(self, source: Dict[str, Any]) -> None:
        dict.__init__(self, source)
        self._wrapped_all = False

    # -- lazy wrapping ------------------------------------------------

    def _wrap_everything(self) -> None:
        if self._wrapped_all:
            return
        for key, value in dict.items(self):
            kind = value.__class__
            if kind is dict:
                dict.__setitem__(self, key, DocumentView(value))
            elif kind is list:
                dict.__setitem__(self, key, ListView(value))
        self._wrapped_all = True

    def __getitem__(self, key: Any) -> Any:
        value = dict.__getitem__(self, key)
        kind = value.__class__
        if kind is dict:
            value = DocumentView(value)
            dict.__setitem__(self, key, value)
        elif kind is list:
            value = ListView(value)
            dict.__setitem__(self, key, value)
        return value

    # -- accessors that must not leak raw stored containers -----------

    def get(self, key: Any, default: Any = None) -> Any:
        try:
            return self[key]
        except KeyError:
            return default

    def setdefault(self, key: Any, default: Any = None) -> Any:
        if dict.__contains__(self, key):
            return self[key]
        dict.__setitem__(self, key, default)
        return default

    def pop(self, *args: Any) -> Any:
        value = dict.pop(self, *args)
        return wrap_value(value)

    def popitem(self) -> Tuple[Any, Any]:
        key, value = dict.popitem(self)
        return key, wrap_value(value)

    def items(self) -> Any:
        self._wrap_everything()
        return dict.items(self)

    def values(self) -> Any:
        self._wrap_everything()
        return dict.values(self)

    def __iter__(self) -> Iterator[Any]:
        # Overriding ``__iter__`` does double duty: CPython's dict-merge
        # fast path (behind ``dict(view)``, ``{**view}`` and
        # ``plain.update(view)``) only copies the raw table when the
        # source's ``tp_iter`` is dict's own, so this override routes all
        # of those through ``keys()`` + ``__getitem__`` — which wrap — and
        # no raw stored container can leak through a C-level copy.
        return dict.__iter__(self)

    # -- raw-copy APIs that would bypass the wrapping accessors --------

    def copy(self) -> Dict[str, Any]:
        """A plain dict whose container values are (safe) views."""
        self._wrap_everything()
        return dict.copy(self)

    def __or__(self, other: Any) -> Dict[str, Any]:
        result = self.copy()
        result.update(other)
        return result

    def __ror__(self, other: Any) -> Dict[str, Any]:
        result = dict(other)
        result.update(self)
        return result

    # -- escape back to plain containers -------------------------------

    def __reduce__(self) -> Tuple[Any, ...]:
        # deepcopy/pickle rebuild a plain, fully independent dict.
        return (dict, (), None, None, iter(self.items()))


class ListView(list):
    """The array analogue of :class:`DocumentView`."""

    __slots__ = ("_wrapped_all",)

    def __init__(self, source: List[Any]) -> None:
        list.__init__(self, source)
        self._wrapped_all = False

    def _wrap_everything(self) -> None:
        if self._wrapped_all:
            return
        for position in range(list.__len__(self)):
            value = list.__getitem__(self, position)
            kind = value.__class__
            if kind is dict:
                list.__setitem__(self, position, DocumentView(value))
            elif kind is list:
                list.__setitem__(self, position, ListView(value))
        self._wrapped_all = True

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            self._wrap_everything()
            return list.__getitem__(self, index)
        value = list.__getitem__(self, index)
        kind = value.__class__
        if kind is dict:
            value = DocumentView(value)
            list.__setitem__(self, index, value)
        elif kind is list:
            value = ListView(value)
            list.__setitem__(self, index, value)
        return value

    def __iter__(self) -> Iterator[Any]:
        self._wrap_everything()
        return list.__iter__(self)

    def __reversed__(self) -> Iterator[Any]:
        self._wrap_everything()
        return list.__reversed__(self)

    def pop(self, index: int = -1) -> Any:
        return wrap_value(list.pop(self, index))

    def sort(self, *args: Any, **kwargs: Any) -> None:
        # Wrap first so ``key=`` callables never see raw stored containers.
        self._wrap_everything()
        list.sort(self, *args, **kwargs)

    # -- raw-copy APIs that would bypass the wrapping accessors --------
    # (``list(view)`` / ``plain.extend(view)`` need no override: CPython's
    # list fast path requires an *exact* list, so they already iterate.)

    def copy(self) -> List[Any]:
        """A plain list whose container elements are (safe) views."""
        self._wrap_everything()
        return list.copy(self)

    def __add__(self, other: Any) -> List[Any]:
        if isinstance(other, ListView):
            other = other.copy()
        return self.copy() + other

    def __radd__(self, other: Any) -> List[Any]:
        # Reached for ``plain + view``: reflected ops run first because
        # ``ListView`` subclasses ``list``.
        return other + self.copy()

    def __mul__(self, count: Any) -> List[Any]:
        return self.copy() * count

    __rmul__ = __mul__

    def __reduce__(self) -> Tuple[Any, ...]:
        self._wrap_everything()
        return (list, (), None, iter(list.__iter__(self)), None)


def wrap_value(value: Any) -> Any:
    """Wrap a container extracted from a stored document; scalars pass through."""
    kind = value.__class__
    if kind is dict:
        return DocumentView(value)
    if kind is list:
        return ListView(value)
    return value


def lazy_document(document: Dict[str, Any]) -> Dict[str, Any]:
    """The default read materializer: a :class:`DocumentView` over ``document``."""
    return DocumentView(document)


def thaw(document: Any) -> Any:
    """Force a fully independent plain-container deep copy of ``document``."""
    return deep_copy(document)
