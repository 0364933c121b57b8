"""Index-usage hints: query shapes that can never use an existing index.

:func:`analyze_index_usage` inspects the *shape* of a filter / sort spec /
aggregation pipeline against a collection's index specs (as returned by
``Collection.index_specs()``) and emits ``I4xx`` warnings — never errors,
the query still runs — whenever an index that exists can never serve it:

* ``I401`` — a range operator on a path that only has a hash index;
* ``I402`` — a condition on an indexed path built entirely from operators
  no index kind can serve (``$ne``, ``$regex``, ``$exists``, …);
* ``I403`` — ``$or`` / ``$nor`` over indexed paths (only top-level
  conditions and ``$and`` branches are planned through indexes);
* ``I404`` — a sort that cannot stream in index order (multi-field, or a
  single field with only a hash index);
* ``I405`` — a pipeline ``$match`` over indexed paths positioned after a
  non-pushdown stage, so it can never reach the planner.

``Collection.explain()`` surfaces these hints alongside the chosen plan;
the analyzer is also importable on its own for tooling (and through
``ncvoter-testdata check``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set

from repro.analysis.diagnostics import WARNING, Diagnostic
from repro.analysis.registry import PUSHDOWN_STAGES
from repro.docstore.matching import _is_operator_doc

_EQ_OPS = frozenset({"$eq", "$in"})
_RANGE_OPS = frozenset({"$gt", "$gte", "$lt", "$lte"})
_LOGICAL = ("$and", "$or", "$nor")


def analyze_index_usage(
    filter_doc: Optional[dict] = None,
    *,
    sort: Optional[Any] = None,
    pipeline: Optional[Sequence[dict]] = None,
    indexes: Iterable[dict] = (),
) -> List[Diagnostic]:
    """Warnings for query/pipeline shapes that cannot use existing indexes.

    ``indexes`` is an iterable of ``{"path": ..., "kind": ...}`` specs.  A
    collection without indexes yields no hints — there is nothing to miss.
    """
    kinds = _index_kinds(indexes)
    diagnostics: List[Diagnostic] = []
    if not kinds:
        return diagnostics
    if filter_doc:
        _filter_hints(filter_doc, kinds, "$", diagnostics)
    if sort:
        _sort_hints(sort, kinds, "sort", diagnostics)
    if pipeline:
        _pipeline_hints(pipeline, kinds, diagnostics)
    return diagnostics


def _index_kinds(indexes: Iterable[dict]) -> Dict[str, Set[str]]:
    kinds: Dict[str, Set[str]] = {}
    for spec in indexes or ():
        if isinstance(spec, dict) and "path" in spec and "kind" in spec:
            kinds.setdefault(str(spec["path"]), set()).add(str(spec["kind"]))
    return kinds


def _filter_hints(
    filter_doc: Any,
    kinds: Dict[str, Set[str]],
    where: str,
    out: List[Diagnostic],
) -> None:
    if not isinstance(filter_doc, dict):
        return
    for key, condition in filter_doc.items():
        if key == "$and" and isinstance(condition, list):
            for position, branch in enumerate(condition):
                _filter_hints(branch, kinds, f"{where}.$and[{position}]", out)
        elif key in ("$or", "$nor") and isinstance(condition, list):
            indexed = sorted(
                path
                for branch in condition
                for path in _referenced_paths(branch)
                if path in kinds
            )
            if indexed:
                out.append(
                    Diagnostic(
                        "I403",
                        WARNING,
                        f"{where}.{key}",
                        f"{key} disables index access for indexed "
                        f"path(s) {', '.join(repr(p) for p in indexed)}",
                        hint="only top-level conditions and $and branches "
                        "are planned through indexes",
                    )
                )
        elif not key.startswith("$"):
            _field_hints(key, condition, kinds, where, out)


def _field_hints(
    path: str,
    condition: Any,
    kinds: Dict[str, Set[str]],
    where: str,
    out: List[Diagnostic],
) -> None:
    index_kinds = kinds.get(path)
    if not index_kinds:
        return
    if not _is_operator_doc(condition):
        return  # plain equality: any index kind serves it
    ops = list(condition)
    servable = any(
        op in _EQ_OPS or (op in _RANGE_OPS and "sorted" in index_kinds)
        for op in ops
    )
    if servable:
        return
    ranges = [op for op in ops if op in _RANGE_OPS]
    if ranges:
        out.append(
            Diagnostic(
                "I401",
                WARNING,
                f"{where}.{path}",
                f"range operator(s) {', '.join(ranges)} cannot use the "
                f"hash index on {path!r}",
                hint=f"create a sorted index on {path!r} to serve range conditions",
            )
        )
        return
    out.append(
        Diagnostic(
            "I402",
            WARNING,
            f"{where}.{path}",
            f"operator(s) {', '.join(ops)} cannot be served by any index "
            f"on {path!r}; the condition runs as a residual predicate over "
            "a full scan",
            hint="restate the condition with $eq / $in / range operators "
            "if possible",
        )
    )


def _sort_hints(
    sort_spec: Any,
    kinds: Dict[str, Set[str]],
    where: str,
    out: List[Diagnostic],
) -> None:
    fields = _sort_fields(sort_spec)
    if not fields:
        return
    if len(fields) == 1:
        field = fields[0]
        field_kinds = kinds.get(field)
        if field_kinds and "sorted" not in field_kinds:
            out.append(
                Diagnostic(
                    "I404",
                    WARNING,
                    f"{where}.{field}",
                    f"sort on {field!r} cannot stream from the hash index; "
                    "documents are sorted in memory",
                    hint=f"create a sorted index on {field!r} to enable "
                    "index-ordered reads",
                )
            )
        return
    indexed = [field for field in fields if "sorted" in kinds.get(field, set())]
    if indexed:
        out.append(
            Diagnostic(
                "I404",
                WARNING,
                where,
                "multi-field sort cannot stream in index order even though "
                f"{', '.join(repr(f) for f in indexed)} "
                "has a sorted index; documents are sorted in memory",
                hint="only single-field sorts can use a sorted index",
            )
        )


def _pipeline_hints(
    pipeline: Sequence[dict],
    kinds: Dict[str, Set[str]],
    out: List[Diagnostic],
) -> None:
    blocked_by: Optional[str] = None
    for position, stage in enumerate(pipeline):
        if not isinstance(stage, dict) or len(stage) != 1:
            return  # malformed; the pipeline analyzer reports it
        name, spec = next(iter(stage.items()))
        where = f"stage[{position}].{name}"
        if blocked_by is None:
            if name not in PUSHDOWN_STAGES:
                blocked_by = name
                continue
            if name == "$match":
                _filter_hints(spec, kinds, where, out)
            elif name == "$sort":
                _sort_hints(spec, kinds, where, out)
            continue
        if name == "$match":
            indexed = sorted(
                path for path in _referenced_paths(spec) if path in kinds
            )
            if indexed:
                out.append(
                    Diagnostic(
                        "I405",
                        WARNING,
                        where,
                        f"$match over indexed path(s) "
                        f"{', '.join(repr(p) for p in indexed)} runs after "
                        f"{blocked_by} and cannot be pushed down to indexes",
                        hint=f"move the $match before {blocked_by} if it "
                        "does not depend on computed fields",
                    )
                )


def _referenced_paths(filter_doc: Any) -> Set[str]:
    """Field paths a filter document mentions, at any logical depth."""
    paths: Set[str] = set()
    if not isinstance(filter_doc, dict):
        return paths
    for key, value in filter_doc.items():
        if key in _LOGICAL and isinstance(value, list):
            for branch in value:
                paths |= _referenced_paths(branch)
        elif not key.startswith("$"):
            paths.add(key)
    return paths


def _sort_fields(sort_spec: Any) -> List[str]:
    """Sort field names from a find-style list or a ``$sort`` dict."""
    if isinstance(sort_spec, dict):
        if sort_spec and all(isinstance(key, str) for key in sort_spec):
            return list(sort_spec)
        return []
    if isinstance(sort_spec, (list, tuple)):
        fields = []
        for item in sort_spec:
            if (
                isinstance(item, (list, tuple))
                and len(item) == 2
                and isinstance(item[0], str)
            ):
                fields.append(item[0])
            else:
                return []
        return fields
    return []
