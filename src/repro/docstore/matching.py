"""The query (filter) language of the document store.

A filter is a dict mapping dotted field paths to either a literal value
(equality) or an operator document such as ``{"$gte": 3}``.  Logical
combinators ``$and`` / ``$or`` / ``$nor`` take lists of filters; ``$not``
inverts an operator document.  Array fields match when any element matches
(MongoDB semantics), plus ``$elemMatch`` / ``$size`` / ``$all`` for explicit
array conditions.

Filters are *compiled*: :func:`compile_filter` validates the whole filter
document up front — unknown operators, operands of the wrong shape, invalid
``$regex`` patterns and condition dicts mixing ``$``-operators with plain
keys all raise :class:`~repro.docstore.errors.QueryError` before a single
document is examined — and returns a predicate of pre-bound closures, so
per-document work never re-parses the filter (and never re-compiles a
regular expression).
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List

from repro.docstore.documents import MISSING, resolve_path
from repro.docstore.errors import QueryError

Predicate = Callable[[dict], bool]

#: A compiled condition: value of a field -> does it satisfy the condition.
ValueTest = Callable[[Any], bool]

_COMPARABLE = (int, float, str)


def _compare(op: str, candidate: Any, reference: Any) -> bool:
    """Ordered comparison that never raises on mixed types (returns False)."""
    try:
        if op == "$gt":
            return candidate > reference
        if op == "$gte":
            return candidate >= reference
        if op == "$lt":
            return candidate < reference
        if op == "$lte":
            return candidate <= reference
    except TypeError:
        return False
    raise QueryError(f"unknown comparison operator {op!r}")


def _values_equal(value: Any, condition: Any) -> bool:
    if value is MISSING:
        return condition is None
    if isinstance(value, list) and not isinstance(condition, list):
        return any(_values_equal(v, condition) for v in value)
    return value == condition


def _is_operator_doc(condition: Any) -> bool:
    return isinstance(condition, dict) and bool(condition) and all(
        isinstance(k, str) and k.startswith("$") for k in condition
    )


def _is_mixed_doc(condition: Any) -> bool:
    """A condition dict mixing ``$``-operators with plain keys."""
    if not isinstance(condition, dict) or not condition:
        return False
    dollar = sum(
        1 for k in condition if isinstance(k, str) and k.startswith("$")
    )
    return 0 < dollar < len(condition)


def _compile_comparison(op: str, reference: Any) -> ValueTest:
    def test(value: Any) -> bool:
        if value is MISSING:
            return False
        if isinstance(value, list):
            return any(
                isinstance(v, _COMPARABLE) and _compare(op, v, reference)
                for v in value
            )
        return _compare(op, value, reference)

    return test


def _compile_in(condition: Any) -> ValueTest:
    if not isinstance(condition, (list, tuple, set)):
        raise QueryError("$in requires a list")

    def test(value: Any) -> bool:
        if isinstance(value, list):
            return any(v in condition for v in value)
        if value is MISSING:
            return None in condition
        return value in condition

    return test


def _compile_regex(condition: Any) -> ValueTest:
    if not isinstance(condition, str):
        raise QueryError(
            f"$regex pattern must be a string, got {type(condition).__name__}"
        )
    try:
        pattern = re.compile(condition)
    except re.error as exc:
        raise QueryError(f"invalid $regex pattern {condition!r}: {exc}") from exc

    def test(value: Any) -> bool:
        if value is MISSING or value is None:
            return False
        if isinstance(value, list):
            return any(isinstance(v, str) and pattern.search(v) for v in value)
        return isinstance(value, str) and bool(pattern.search(value))

    return test


def _compile_all(condition: Any) -> ValueTest:
    if not isinstance(condition, (list, tuple)):
        raise QueryError("$all requires a list")

    def test(value: Any) -> bool:
        if not isinstance(value, list):
            return all(_values_equal(value, c) for c in condition)
        return all(any(_values_equal(v, c) for v in value) for c in condition)

    return test


def _compile_operator(op: str, condition: Any) -> ValueTest:
    """Compile one ``$op: operand`` pair into a value test.

    All operand validation happens here, at compile time.
    """
    if op == "$exists":
        expected = bool(condition)
        return lambda value: (value is not MISSING) == expected
    if op == "$eq":
        return lambda value: _values_equal(value, condition)
    if op == "$ne":
        return lambda value: not _values_equal(value, condition)
    if op in ("$gt", "$gte", "$lt", "$lte"):
        return _compile_comparison(op, condition)
    if op == "$in":
        return _compile_in(condition)
    if op == "$nin":
        inner = _compile_in(condition)
        return lambda value: not inner(value)
    if op == "$regex":
        return _compile_regex(condition)
    if op == "$size":
        if isinstance(condition, bool) or not isinstance(condition, int):
            raise QueryError(
                f"$size requires an integer, got {type(condition).__name__}"
            )
        if condition < 0:
            raise QueryError(f"$size may not be negative, got {condition}")
        return lambda value: isinstance(value, list) and len(value) == condition
    if op == "$all":
        return _compile_all(condition)
    if op == "$elemMatch":
        if not isinstance(condition, dict):
            raise QueryError("$elemMatch requires a filter document")
        element_predicate = compile_filter(condition)
        return lambda value: isinstance(value, list) and any(
            isinstance(v, dict) and element_predicate(v) for v in value
        )
    if op == "$not":
        negated = _compile_condition(condition)
        return lambda value: not negated(value)
    raise QueryError(f"unknown operator {op!r}")


def _compile_condition(condition: Any) -> ValueTest:
    """Compile a field condition (operator doc or literal) into a value test."""
    if _is_mixed_doc(condition):
        raise QueryError(
            f"condition {condition!r} mixes $-operators with plain keys; "
            "use {'$eq': {...}} for a literal document match"
        )
    if _is_operator_doc(condition):
        tests = [
            _compile_operator(op, operand) for op, operand in condition.items()
        ]
        if len(tests) == 1:
            return tests[0]
        return lambda value: all(test(value) for test in tests)
    return lambda value: _values_equal(value, condition)


def _compile_logical(op: str, condition: Any) -> List[Predicate]:
    if not isinstance(condition, (list, tuple)):
        raise QueryError(f"{op} requires a list of filter documents")
    return [compile_filter(sub) for sub in condition]


def compile_filter(filter_doc: Dict[str, Any]) -> Predicate:
    """Compile ``filter_doc`` into a ``document -> bool`` predicate.

    Raises :class:`QueryError` for malformed filters — unknown operators,
    invalid operands, bad ``$regex`` patterns, mixed operator/plain condition
    dicts — *before* any document is matched.
    """
    if filter_doc is None:
        filter_doc = {}
    if not isinstance(filter_doc, dict):
        raise QueryError(f"filter must be a dict, got {type(filter_doc).__name__}")

    clauses: List[Predicate] = []
    for key, condition in filter_doc.items():
        if key == "$and":
            subs = _compile_logical(key, condition)
            clauses.append(lambda doc, subs=subs: all(s(doc) for s in subs))
        elif key == "$or":
            subs = _compile_logical(key, condition)
            clauses.append(lambda doc, subs=subs: any(s(doc) for s in subs))
        elif key == "$nor":
            subs = _compile_logical(key, condition)
            clauses.append(lambda doc, subs=subs: not any(s(doc) for s in subs))
        elif not isinstance(key, str):
            raise QueryError(f"filter field names must be strings, got {key!r}")
        elif key.startswith("$"):
            raise QueryError(f"unknown top-level operator {key!r}")
        else:
            test = _compile_condition(condition)
            clauses.append(
                lambda doc, key=key, test=test: test(resolve_path(doc, key))
            )

    def predicate(document: dict) -> bool:
        return all(clause(document) for clause in clauses)

    return predicate


def matches(document: dict, filter_doc: Dict[str, Any]) -> bool:
    """One-shot convenience wrapper around :func:`compile_filter`."""
    return compile_filter(filter_doc)(document)
