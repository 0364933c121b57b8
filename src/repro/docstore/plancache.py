"""Per-collection plan caching keyed by query shape and query value.

Warm reads used to pay the whole planning pipeline on every call:
``compile_filter`` over the full filter, conjunct splitting, option
pricing against every index, candidate materialization, residual
recompilation.  This module memoizes that work at three grains:

* **Predicate cache** (module-level, process-local): ``compile_filter``
  results keyed by a type-tagged deep-freeze of the filter document.
  Compiled predicates are pure closures over the filter, so the cache is
  safe to share across collections and epochs.
* **Shape templates** (per collection): the planner's *decision* — which
  access path wins, which conjuncts it covers, and a constant-free recipe
  for re-fetching the candidate set — keyed by the filter's shape: its
  structure and operator skeleton with every constant replaced by the
  classification the planner actually branches on (``None``-ness,
  list-ness, sorted-range type class).  A template re-binds to any
  collection state and any same-shaped constants via
  :func:`repro.docstore.planner.bind_template`, which recomputes all
  value-dependent pieces, so cached decisions can never change results —
  only skip the pricing pass.
* **Bound plans** (per collection): fully bound plans (candidate ids
  included) keyed by the frozen query, so an exactly repeated read skips
  planning entirely.

Shape templates and bound plans are invalidated wholesale whenever the
collection's write epoch moves (every mutation and index build bumps it).
Caches are size-bounded with FIFO eviction.  Like
the collection itself, the caches may only be shared across threads for
*reads*; the write path (which bumps the epoch) requires external
serialization, as documented on :class:`repro.docstore.Collection`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.docstore.matching import Predicate, _is_operator_doc, compile_filter
from repro.docstore.planner import (
    _RANGE_TYPES,
    Plan,
    PlanChoice,
    _range_class,
    _split_conjuncts,
    bind_template,
    plan_read,
    plan_read_with_choice,
)

__all__ = ["PlanCache", "cached_predicate", "freeze_query", "query_shape"]

#: Sentinels distinguishing "absent" from legitimately-``None`` values.
_UNHASHABLE = object()
_MISSING = object()

#: Process-local memo of compiled filter predicates, keyed by
#: :func:`freeze_query`-style frozen filter documents.  Invariant: a
#: ``Predicate`` is a pure closure over its (logically immutable) filter
#: document, so concurrent lookups may race only on insertion order, never
#: on correctness; the cache must never be keyed by anything that can
#: change meaning across collections, epochs, or processes.
_PREDICATE_CACHE: Dict[Any, Predicate] = {}
_PREDICATE_CACHE_LIMIT = 1024


# ------------------------------------------------------------- freezing


def freeze_value(value: Any) -> Any:
    """A hashable, type-tagged snapshot of a filter value.

    Scalars carry their exact type name so ``1``/``True``/``1.0`` (equal
    and hash-equal in Python) freeze to distinct keys — their compiled
    predicates differ.  Returns the ``_UNHASHABLE`` sentinel when the
    value contains something that cannot be frozen.
    """
    kind = value.__class__
    if value is None or kind is bool or kind is int or kind is float or kind is str:
        return (kind.__name__, value)
    if isinstance(value, dict):
        items = []
        for key, item in value.items():
            frozen = freeze_value(item)
            if frozen is _UNHASHABLE:
                return _UNHASHABLE
            items.append((key, frozen))
        return ("d", tuple(items))
    if isinstance(value, (list, tuple)):
        parts = []
        for item in value:
            frozen = freeze_value(item)
            if frozen is _UNHASHABLE:
                return _UNHASHABLE
            parts.append(frozen)
        return ("l", tuple(parts))
    if isinstance(value, (set, frozenset)):
        frozen_items = [freeze_value(item) for item in value]
        if any(item is _UNHASHABLE for item in frozen_items):
            return _UNHASHABLE
        return ("s", tuple(sorted(frozen_items, key=repr)))
    try:
        hash(value)
    except TypeError:
        return _UNHASHABLE
    return ("o", type(value).__name__, value)


def freeze_query(
    filter_doc: Optional[dict], sort: Optional[Sequence[Tuple[str, int]]]
) -> Any:
    """Cache key for one logical read, or ``_UNHASHABLE``."""
    frozen_filter = freeze_value(filter_doc) if filter_doc else None
    if frozen_filter is _UNHASHABLE:
        return _UNHASHABLE
    frozen_sort: Any = None
    if sort:
        try:
            frozen_sort = tuple(tuple(item) for item in sort)
            hash(frozen_sort)
        except TypeError:
            return _UNHASHABLE
    return (frozen_filter, frozen_sort)


# ---------------------------------------------------------------- shapes


def _operand_tag(op: str, operand: Any) -> Any:
    """The operand classification planning branches on, and nothing more."""
    if op == "$in":
        if isinstance(operand, (list, tuple)):
            return (
                "in",
                tuple(
                    (
                        element is None,
                        isinstance(element, list),
                        _range_class(element),
                        isinstance(element, _RANGE_TYPES),
                    )
                    for element in operand
                ),
            )
        if isinstance(operand, (set, frozenset)):
            tags = sorted(
                (
                    element is None,
                    isinstance(element, list),
                    _range_class(element) or "",
                    isinstance(element, _RANGE_TYPES),
                )
                for element in operand
            )
            return ("in-set", tuple(tags))
        return ("in-other", type(operand).__name__)
    return (
        operand is None,
        isinstance(operand, list),
        _range_class(operand),
        isinstance(operand, _RANGE_TYPES),
    )


def query_shape(filter_doc: dict) -> Any:
    """The filter's structure with constants reduced to planning tags.

    Mirrors ``_split_conjuncts``'s walk exactly, so equal shapes guarantee
    an identical clause/atom skeleton (same clause positions, same atom
    operators and operand classifications) — the invariant that makes a
    cached :class:`~repro.docstore.planner.PlanChoice` sound to re-bind.
    """
    parts: List[Any] = []
    for key, condition in filter_doc.items():
        if (
            key == "$and"
            and isinstance(condition, (list, tuple))
            and condition
            and all(isinstance(sub, dict) for sub in condition)
        ):
            parts.append(("and", tuple(query_shape(sub) for sub in condition)))
        elif isinstance(key, str) and key.startswith("$"):
            # One opaque clause; its content only ever reaches the residual,
            # which is rebuilt from the live filter at bind time.
            parts.append(("top", key, condition.__class__.__name__))
        elif _is_operator_doc(condition):
            parts.append(
                (
                    "ops",
                    key,
                    tuple(
                        (op, _operand_tag(op, operand))
                        for op, operand in condition.items()
                    ),
                )
            )
        else:
            parts.append(("eq", key, _operand_tag("$eq", condition)))
    return tuple(parts)


# ------------------------------------------------------------ predicates


def cached_predicate(filter_doc: dict) -> Predicate:
    """``compile_filter`` through the process-local predicate memo.

    Raises exactly like ``compile_filter`` for malformed filters (only
    successful compiles are cached).
    """
    key = freeze_value(filter_doc)
    if key is _UNHASHABLE:
        return compile_filter(filter_doc)
    predicate = _PREDICATE_CACHE.get(key)
    if predicate is None:
        predicate = compile_filter(filter_doc)
        if len(_PREDICATE_CACHE) >= _PREDICATE_CACHE_LIMIT:
            _PREDICATE_CACHE.pop(next(iter(_PREDICATE_CACHE)), None)
        _PREDICATE_CACHE[key] = predicate
    return predicate


# ------------------------------------------------------------ plan cache


def _fresh_plan(plan: Plan) -> Plan:
    """A copy of a cached plan with its own ``pushdown`` list.

    Callers *reassign* ``plan.pushdown`` (never mutate the other fields),
    so everything else can be shared.  Built by direct construction:
    ``dataclasses.replace`` costs several microseconds of dataclass
    machinery, which is real money on a sub-10µs warm point read.
    """
    return Plan(
        plan.access,
        plan.candidate_ids,
        plan.index_name,
        plan.indexes_used,
        plan.residual,
        plan.residual_predicate,
        plan.order,
        plan.order_index,
        plan.reverse,
        plan.sort_spec,
        [],
    )


class PlanCache:
    """Epoch-invalidated planning memo for one collection."""

    __slots__ = (
        "epoch",
        "hits",
        "misses",
        "invalidated",
        "_plans",
        "_templates",
    )

    #: FIFO bound for each per-collection map.
    LIMIT = 512

    def __init__(self) -> None:
        self.epoch = 0
        self.hits = 0
        self.misses = 0
        self.invalidated = 0
        # frozen query -> pristine bound plan
        self._plans: Dict[Any, Plan] = {}
        # query shape -> Optional[PlanChoice] (None = full-scan decision)
        self._templates: Dict[Any, Optional[PlanChoice]] = {}

    def stats(self) -> Dict[str, int]:
        """The counters ``Collection.explain`` reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidated": self.invalidated,
        }

    # -- lookup --------------------------------------------------------

    def plan(
        self,
        collection: Any,
        filter_doc: Optional[dict],
        sort: Optional[Sequence[Tuple[str, int]]] = None,
    ) -> Plan:
        """The bound plan for a read of ``collection``'s live state, memoized."""
        epoch = collection._write_epoch
        if epoch != self.epoch:
            if self._plans or self._templates:
                self.invalidated += 1
                self._plans.clear()
                self._templates.clear()
            self.epoch = epoch

        state = collection._partition.live
        if filter_doc is not None and not isinstance(filter_doc, dict):
            return plan_read(state, filter_doc, sort)
        key = freeze_query(filter_doc, sort)
        if key is _UNHASHABLE:
            return plan_read(state, filter_doc, sort)

        plan = self._plans.get(key)
        if plan is not None:
            self.hits += 1
            return _fresh_plan(plan)

        self.misses += 1
        plan = self._build_plan(state, filter_doc, sort)
        if plan is None:
            return plan_read(state, filter_doc, sort)
        if len(self._plans) >= self.LIMIT:
            self._plans.pop(next(iter(self._plans)), None)
        self._plans[key] = plan
        return _fresh_plan(plan)

    # -- internals -----------------------------------------------------

    def _build_plan(
        self,
        state: Any,
        filter_doc: Optional[dict],
        sort: Optional[Sequence[Tuple[str, int]]],
    ) -> Optional[Plan]:
        """Template-driven plan, or ``None`` to fall back to cold planning."""
        shape = query_shape(filter_doc) if filter_doc else ()
        template = self._templates.get(shape, _MISSING)
        if template is _MISSING:
            plan, choice = plan_read_with_choice(
                state, filter_doc, sort, predicate_for=cached_predicate
            )
            if len(self._templates) >= self.LIMIT:
                self._templates.pop(next(iter(self._templates)), None)
            self._templates[shape] = choice
            return plan
        choice: Optional[PlanChoice] = template  # type: ignore[assignment]
        clauses, atoms = _split_conjuncts(filter_doc) if filter_doc else ([], [])
        return bind_template(
            state, choice, filter_doc, clauses, atoms, sort, cached_predicate
        )
