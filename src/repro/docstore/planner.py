"""Cost-based query planning and execution for collection reads.

The planner turns a filter document (plus an optional sort specification or
an aggregation-pipeline head) into an access-path :class:`Plan`:

* **id_lookup** — a top-level ``_id`` equality resolves through the unique
  id map to at most one document;
* **index_lookup** — an equality or ``$in`` condition resolves through a
  hash index to a candidate set;
* **index_range** — ``$gt/$gte/$lt/$lte`` bounds (and point equalities when
  only a sorted index exists) resolve through a sorted index;
* **index_order** — a single-field sort is served in index order with no
  sorting at all;
* **full_scan** — nothing narrows the read.

The planner decomposes the filter into *conjuncts* (top-level conditions
plus flattened top-level ``$and`` branches, one clause per ``$``-operator),
derives an indexable *atom* from each conjunct where possible, prices every
usable index access without materializing it (hash-bucket sizes, bisect
positions in sorted indexes), and picks the cheapest candidate set.  All
other conjuncts form the **residual** filter, which is the only predicate
evaluated against candidate documents.

A chosen access path is always *exact* for the conjuncts it covers — the
candidate set equals the set of documents matching those conjuncts, under
MongoDB's any-element array semantics — so covered conjuncts are dropped
from the residual.  The few shapes where an index access would be a strict
superset (equality with ``None``, whose bucket also holds documents with
empty-list values) still narrow the scan but keep their conjunct in the
residual.  Conditions that an index could *miss* documents for (literal
list equality through a multikey hash index, mixed-type range bounds) are
never planned against an index in the first place.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.docstore.documents import _freeze, resolve_path
from repro.docstore.errors import QueryError
from repro.docstore.indexes import HashIndex, SortedIndex
from repro.docstore.matching import Predicate, _is_operator_doc, compile_filter
from repro.docstore.views import lazy_document

#: Access-path names reported by ``Collection.explain``.
FULL_SCAN = "full_scan"
ID_LOOKUP = "id_lookup"
INDEX_LOOKUP = "index_lookup"
INDEX_RANGE = "index_range"
INDEX_ORDER = "index_order"

_RANGE_OPS = frozenset({"$gt", "$gte", "$lt", "$lte"})
#: Operand types a sorted index can seek to (share a type bucket).
_RANGE_TYPES = (bool, int, float, str)

#: Deterministic tie-break between equally cheap access paths.
_ACCESS_RANK = {ID_LOOKUP: 0, INDEX_LOOKUP: 1, INDEX_RANGE: 2}


@dataclasses.dataclass(frozen=True)
class _Atom:
    """One indexable conjunct: a single operator condition on one path."""

    path: str
    op: str  # "$eq" | "$in" | "$gt" | "$gte" | "$lt" | "$lte"
    operand: Any
    clause: int  # position in the conjunct clause list


@dataclasses.dataclass
class _Option:
    """One way to obtain a candidate set, priced but not yet materialized."""

    access: str
    index_name: Optional[str]
    estimate: int
    covered: frozenset  # clause positions the candidate set enforces exactly
    fetch: Callable[[], Iterable[int]]


@dataclasses.dataclass
class Plan:
    """How a read will execute; produced by :func:`plan_read`."""

    access: str
    candidate_ids: Optional[List[int]]  # ascending; None means scan everything
    index_name: Optional[str]
    indexes_used: List[str]
    residual: Optional[dict]  # conjuncts not enforced by the access path
    residual_predicate: Optional[Predicate]
    order: str = "none"  # "none" | "index" | "sort"
    order_index: Optional[str] = None
    reverse: bool = False
    sort_spec: Optional[List[Tuple[str, int]]] = None
    pushdown: List[str] = dataclasses.field(default_factory=list)

    @property
    def plan_name(self) -> str:
        """The access-path name ``explain`` reports."""
        if self.order == "index" and self.access == FULL_SCAN:
            return INDEX_ORDER
        return self.access

    def describe(self, total: int) -> dict:
        """Serializable description for ``Collection.explain``."""
        candidates = (
            len(self.candidate_ids) if self.candidate_ids is not None else total
        )
        return {
            "plan": self.plan_name,
            "candidates": candidates,
            "documents": total,
            "index": self.index_name,
            "indexes_used": list(self.indexes_used),
            "residual": self.residual,
            "order": self.order,
            "order_index": self.order_index,
            "pushdown": list(self.pushdown),
        }


# --------------------------------------------------------------- decompose


def _split_conjuncts(filter_doc: dict) -> Tuple[List[dict], List[_Atom]]:
    """Decompose a (pre-validated) filter into conjunct clauses and atoms.

    Every clause is an independent filter document; their conjunction is
    semantically identical to ``filter_doc`` (operator docs are split per
    operator, top-level ``$and`` branches are flattened recursively).
    """
    clauses: List[dict] = []
    atoms: List[_Atom] = []

    def walk(doc: dict) -> None:
        for key, condition in doc.items():
            if (
                key == "$and"
                and isinstance(condition, (list, tuple))
                and condition
                and all(isinstance(sub, dict) for sub in condition)
            ):
                for sub in condition:
                    walk(sub)
            elif isinstance(key, str) and key.startswith("$"):
                clauses.append({key: condition})
            elif _is_operator_doc(condition):
                for op, operand in condition.items():
                    position = len(clauses)
                    clauses.append({key: {op: operand}})
                    if op == "$eq" or op == "$in" or op in _RANGE_OPS:
                        atoms.append(_Atom(str(key), op, operand, position))
            else:
                position = len(clauses)
                clauses.append({key: condition})
                atoms.append(_Atom(str(key), "$eq", condition, position))

    walk(filter_doc)
    return clauses, atoms


def _eq_exact(operand: Any) -> bool:
    """Whether a hash/sorted point access enforces equality exactly.

    ``None`` is the one inexact case: absent fields *and* empty-list values
    are both indexed under the ``None`` key, but an empty list does not
    equal ``None`` — so the bucket is a strict superset.
    """
    return operand is not None


def _hash_usable(operand: Any) -> bool:
    """Whether a hash bucket for ``operand`` finds every matching document.

    List operands are excluded: a multikey index stores the *elements* of an
    array value, so the frozen tuple of a literal list equality would miss
    documents whose whole array equals the operand.
    """
    return not isinstance(operand, list)


# ----------------------------------------------------------------- options


def _bound_strictness(op: str, operand: Any) -> Tuple[Any, int]:
    """Sort key making the strictest lower/upper bound comparable."""
    exclusive = op in ("$gt", "$lt")
    return (operand, 1 if exclusive else 0)


def _range_class(operand: Any) -> Optional[str]:
    if isinstance(operand, (bool, int, float)):
        return "number"
    if isinstance(operand, str):
        return "str"
    return None


def _range_options(
    path: str, atoms: List[_Atom], index: SortedIndex, name: str
) -> List[_Option]:
    """Options served by a sorted index for one path's range atoms."""
    by_class: Dict[str, Dict[str, List[_Atom]]] = {}
    for atom in atoms:
        type_class = _range_class(atom.operand)
        if type_class is None:
            continue
        side = "low" if atom.op in ("$gt", "$gte") else "high"
        by_class.setdefault(type_class, {"low": [], "high": []})[side].append(atom)

    options: List[_Option] = []
    for sides in by_class.values():
        lows, highs = sides["low"], sides["high"]
        low = max(lows, key=lambda a: _bound_strictness(a.op, a.operand), default=None)
        high = min(
            highs,
            key=lambda a: (a.operand, -1 if a.op == "$lt" else 0),
            default=None,
        )
        low_value = low.operand if low is not None else None
        high_value = high.operand if high is not None else None
        include_low = low is None or low.op == "$gte"
        include_high = high is None or high.op == "$lte"
        covered = frozenset(a.clause for a in lows + highs)
        if low is not None and high is not None:
            fetch = lambda i=index, lo=low_value, hi=high_value, il=include_low, ih=include_high: i.range_ids(
                lo, hi, il, ih
            )
        else:
            fetch = lambda i=index, lo=low_value, hi=high_value, il=include_low, ih=include_high: i.range(
                lo, hi, il, ih
            )
        options.append(
            _Option(
                access=INDEX_RANGE,
                index_name=name,
                estimate=index.count_range(
                    low_value, high_value, include_low, include_high
                ),
                covered=covered,
                fetch=fetch,
            )
        )
    return options


def _collect_options(collection: Any, atoms: List[_Atom]) -> List[_Option]:
    options: List[_Option] = []
    range_atoms: Dict[str, List[_Atom]] = {}

    for atom in atoms:
        if atom.op in _RANGE_OPS:
            if isinstance(atom.operand, _RANGE_TYPES):
                range_atoms.setdefault(atom.path, []).append(atom)
            continue

        if atom.op == "$eq":
            if atom.path == "_id":
                frozen = _freeze(atom.operand)
                options.append(
                    _Option(
                        access=ID_LOOKUP,
                        index_name=None,
                        estimate=0,
                        covered=frozenset([atom.clause]),
                        fetch=lambda c=collection, k=frozen: (
                            [c._by_user_id[k]] if k in c._by_user_id else []
                        ),
                    )
                )
                continue
            hash_index = collection._indexes.get(f"{atom.path}_hash")
            if isinstance(hash_index, HashIndex) and _hash_usable(atom.operand):
                frozen = _freeze(atom.operand)
                options.append(
                    _Option(
                        access=INDEX_LOOKUP,
                        index_name=f"{atom.path}_hash",
                        estimate=hash_index.estimate(frozen),
                        covered=(
                            frozenset([atom.clause])
                            if _eq_exact(atom.operand)
                            else frozenset()
                        ),
                        fetch=lambda i=hash_index, k=frozen: i.lookup(k),
                    )
                )
            sorted_index = collection._indexes.get(f"{atom.path}_sorted")
            if isinstance(sorted_index, SortedIndex) and isinstance(
                atom.operand, _RANGE_TYPES
            ):
                # A point read through a sorted index: range [v, v] is exact
                # even for multikey documents (a key equals v iff some
                # element equals v).
                options.append(
                    _Option(
                        access=INDEX_RANGE,
                        index_name=f"{atom.path}_sorted",
                        estimate=sorted_index.count_range(
                            atom.operand, atom.operand, True, True
                        ),
                        covered=frozenset([atom.clause]),
                        fetch=lambda i=sorted_index, v=atom.operand: i.range(
                            v, v, True, True
                        ),
                    )
                )
            continue

        if atom.op == "$in":
            if not isinstance(atom.operand, (list, tuple, set)):
                continue  # compile_filter already rejected it
            elements = list(atom.operand)
            hash_index = collection._indexes.get(f"{atom.path}_hash")
            if isinstance(hash_index, HashIndex) and all(
                _hash_usable(element) for element in elements
            ):
                frozen = [_freeze(element) for element in elements]
                options.append(
                    _Option(
                        access=INDEX_LOOKUP,
                        index_name=f"{atom.path}_hash",
                        estimate=sum(hash_index.estimate(k) for k in frozen),
                        covered=(
                            frozenset([atom.clause])
                            if all(_eq_exact(element) for element in elements)
                            else frozenset()
                        ),
                        fetch=lambda i=hash_index, ks=frozen: set().union(
                            *(i.lookup(k) for k in ks)
                        )
                        if ks
                        else set(),
                    )
                )

    for path, path_atoms in range_atoms.items():
        index = collection._indexes.get(f"{path}_sorted")
        if isinstance(index, SortedIndex):
            options.extend(_range_options(path, path_atoms, index, f"{path}_sorted"))

    return options


# -------------------------------------------------------------------- plan


def _rebuild_filter(clauses: List[dict]) -> Optional[dict]:
    if not clauses:
        return None
    if len(clauses) == 1:
        return clauses[0]
    return {"$and": clauses}


def plan_read(
    collection: Any,
    filter_doc: Optional[dict] = None,
    sort: Optional[Sequence[Tuple[str, int]]] = None,
) -> Plan:
    """Choose the cheapest access path for a filter (+ optional sort).

    Compiles the full filter first so every malformed-filter ``QueryError``
    surfaces exactly as it would on the unplanned path.
    """
    filter_doc = filter_doc or {}
    full_predicate = compile_filter(filter_doc) if filter_doc else None

    candidate_ids: Optional[List[int]] = None
    index_name: Optional[str] = None
    access = FULL_SCAN
    residual: Optional[dict] = filter_doc if filter_doc else None
    residual_predicate: Optional[Predicate] = full_predicate

    if filter_doc:
        clauses, atoms = _split_conjuncts(filter_doc)
        options = _collect_options(collection, atoms)
        if options:
            winner = min(
                options,
                key=lambda o: (
                    o.estimate,
                    _ACCESS_RANK[o.access],
                    o.index_name or "",
                ),
            )
            candidate_ids = sorted(set(winner.fetch()))
            access = winner.access
            index_name = winner.index_name
            remaining = [
                clause
                for position, clause in enumerate(clauses)
                if position not in winner.covered
            ]
            residual = _rebuild_filter(remaining)
            if residual is None:
                residual_predicate = None
            elif len(remaining) == len(clauses):
                # Nothing was dropped; reuse the already-compiled predicate
                # (clause splitting preserves conjunction semantics).
                residual_predicate = full_predicate
            else:
                residual_predicate = compile_filter(residual)

    order = "none"
    order_index: Optional[str] = None
    reverse = False
    sort_spec = [tuple(item) for item in sort] if sort else None
    if sort_spec:
        order = "sort"
        if len(sort_spec) == 1 and candidate_ids is None:
            field, direction = sort_spec[0]
            index = collection._indexes.get(f"{field}_sorted")
            if isinstance(index, SortedIndex) and index.order_usable():
                order = "index"
                order_index = f"{field}_sorted"
                reverse = direction == -1

    return Plan(
        access=access,
        candidate_ids=candidate_ids,
        index_name=index_name,
        indexes_used=[name for name in (index_name, order_index) if name],
        residual=residual,
        residual_predicate=residual_predicate,
        order=order,
        order_index=order_index,
        reverse=reverse,
        sort_spec=sort_spec,  # type: ignore[arg-type]
    )


# --------------------------------------------------------------- execution


def iter_matching_ids(collection: Any, plan: Plan) -> Iterator[int]:
    """Ids of matching documents in ascending (scan) order."""
    documents = collection._documents
    ids: Iterable[int] = (
        plan.candidate_ids if plan.candidate_ids is not None else sorted(documents)
    )
    predicate = plan.residual_predicate
    for internal_id in ids:
        document = documents.get(internal_id)
        if document is None:
            continue
        if predicate is None or predicate(document):
            yield internal_id


def _ordered_id_stream(collection: Any, plan: Plan) -> Iterator[int]:
    """Matching ids in index order (missing/None values sort first)."""
    index = collection._indexes[plan.order_index]
    indexed = index.indexed_ids()
    missing = [i for i in sorted(collection._documents) if i not in indexed]
    if plan.reverse:
        stream: Iterator[int] = itertools.chain(
            index.ordered_ids(reverse=True), missing
        )
    else:
        stream = itertools.chain(missing, index.ordered_ids(reverse=False))
    predicate = plan.residual_predicate
    documents = collection._documents
    for internal_id in stream:
        document = documents.get(internal_id)
        if document is None:
            continue
        if predicate is None or predicate(document):
            yield internal_id


def _sort_key(value: Any) -> tuple:
    from repro.docstore.aggregation import _sort_key as aggregation_sort_key

    return aggregation_sort_key(value)


def execute_find(
    collection: Any,
    plan: Plan,
    skip: int = 0,
    limit: Optional[int] = None,
) -> Iterator[dict]:
    """Stream the documents a planned read returns, as lazy views.

    Only the returned window is wrapped, each document in a copy-on-read
    :class:`~repro.docstore.views.DocumentView` (zero-copy until the
    caller mutates).  Sorted reads order internal ids over the stored
    documents and wrap after ``skip``/``limit`` are applied.
    """
    documents = collection._documents

    if plan.order == "index":
        window = itertools.islice(
            _ordered_id_stream(collection, plan),
            skip,
            None if limit is None else skip + limit,
        )
        for internal_id in window:
            yield lazy_document(documents[internal_id])
        return

    if plan.order == "sort" and plan.sort_spec:
        matching = list(iter_matching_ids(collection, plan))
        for field, direction in reversed(plan.sort_spec):
            matching.sort(
                key=lambda i, field=field: _sort_key(
                    resolve_path(documents[i], field)
                ),
                reverse=direction == -1,
            )
        if skip:
            matching = matching[skip:]
        if limit is not None:
            matching = matching[:limit]
        for internal_id in matching:
            yield lazy_document(documents[internal_id])
        return

    window = itertools.islice(
        iter_matching_ids(collection, plan),
        skip,
        None if limit is None else skip + limit,
    )
    for internal_id in window:
        yield lazy_document(documents[internal_id])


def count_matching(collection: Any, plan: Plan) -> int:
    """Number of documents a planned read matches.

    A pure index count when the access path covers the whole filter (no
    residual predicate): no document is loaded or matched.
    """
    if plan.residual is None and plan.candidate_ids is not None:
        return len(plan.candidate_ids)
    return sum(1 for _ in iter_matching_ids(collection, plan))


# --------------------------------------------------------------- pushdown


def _sort_spec_list(spec: Any) -> Optional[List[Tuple[str, int]]]:
    """A ``$sort`` stage spec as a sort list, or None when not pushable."""
    if not isinstance(spec, dict) or not spec:
        return None
    result: List[Tuple[str, int]] = []
    for field, direction in spec.items():
        if not isinstance(field, str):
            return None
        if isinstance(direction, bool) or direction not in (1, -1):
            return None
        result.append((field, direction))
    return result


@dataclasses.dataclass
class Pushdown:
    """The head of an aggregation pipeline absorbed into the planner."""

    filter_doc: Optional[dict]
    sort_spec: Optional[List[Tuple[str, int]]]
    skip: int
    limit: Optional[int]
    rest: List[dict]
    pushed: List[str]  # stage names, in original order


def split_pushdown(pipeline: Sequence[dict]) -> Pushdown:
    """Peel leading ``$match``/``$sort``/``$skip``/``$limit`` stages.

    Stages are absorbed only when doing so cannot change semantics:

    * every leading ``$match`` is collected (a ``$match`` commutes with a
      stable ``$sort``, so matches after the sort are pushed too);
    * at most one ``$sort`` — a second sort would resort *stably over the
      first*, which a single pushed sort cannot express;
    * consecutive ``$skip``/``$limit`` stages fold into one window, after
      which no further ``$match``/``$sort`` may move;
    * a malformed stage spec stops pushdown so the pipeline raises exactly
      as it would have unplanned.
    """
    matches: List[dict] = []
    sort_spec: Optional[List[Tuple[str, int]]] = None
    skip = 0
    limit: Optional[int] = None
    pushed: List[str] = []
    consumed = 0
    window_started = False

    for stage in pipeline:
        if not isinstance(stage, dict) or len(stage) != 1:
            break
        (name, spec), = stage.items()
        if name == "$match" and not window_started:
            if not isinstance(spec, dict):
                break
            try:
                compile_filter(spec)
            except QueryError:
                break
            matches.append(spec)
        elif name == "$sort" and sort_spec is None and not window_started:
            candidate = _sort_spec_list(spec)
            if candidate is None:
                break
            sort_spec = candidate
        elif name == "$skip":
            if isinstance(spec, bool) or not isinstance(spec, int):
                break
            amount = max(spec, 0)
            skip += amount
            if limit is not None:
                limit = max(limit - amount, 0)
            window_started = True
        elif name == "$limit":
            if isinstance(spec, bool) or not isinstance(spec, int):
                break
            amount = max(spec, 0)
            limit = amount if limit is None else min(limit, amount)
            window_started = True
        else:
            break
        pushed.append(name)
        consumed += 1

    if not matches:
        filter_doc: Optional[dict] = None
    elif len(matches) == 1:
        filter_doc = matches[0]
    else:
        filter_doc = {"$and": matches}

    return Pushdown(
        filter_doc=filter_doc,
        sort_spec=sort_spec,
        skip=skip,
        limit=limit,
        rest=list(pipeline[consumed:]),
        pushed=pushed,
    )
