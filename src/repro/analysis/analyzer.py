"""Static analysis of filters and aggregation pipelines.

The analyzer walks a query specification *without executing it* and returns
:class:`~repro.analysis.diagnostics.Diagnostic` records for everything that
would fail — or silently misbehave — at evaluation time:

* unknown operators, stages and accumulators (with did-you-mean hints,
  Damerau-Levenshtein over the supported-operator registries);
* operands of the wrong shape (``$in`` without a list, negative ``$size``,
  ``$regex`` patterns that do not compile, ``$group`` without ``_id``);
* vacuous predicates (``$in: []``, ``$or: []``) that can only mean a
  mistake;
* condition dicts mixing ``$``-operators with plain keys;
* unknown dotted field paths, validated against a
  :class:`~repro.analysis.schemas.SchemaPaths`;
* stage-order hazards: a ``$match``/``$sort`` touching a field an earlier
  ``$project``/``$group`` dropped, or a ``$sort`` after ``$limit``.

Diagnostic codes: ``Q0xx`` for filter problems and ``P1xx`` for pipeline
problems.  ``error`` severity means the spec would raise or silently match
nothing it should match; ``warning`` flags legal-but-suspicious constructs.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, List, Optional

from repro.analysis.diagnostics import ERROR, WARNING, Diagnostic
from repro.analysis.registry import (
    ACCUMULATORS,
    EXPRESSION_OPERATORS,
    FILTER_OPERATORS,
    PIPELINE_STAGES,
    TOP_LEVEL_OPERATORS,
    did_you_mean,
)
from repro.analysis.schemas import SchemaPaths, normalize_path


def _covers(paths: Iterable[str], norm: str) -> bool:
    """Whether ``norm`` equals, extends or prefixes any path in ``paths``."""
    for available in paths:
        if (
            norm == available
            or norm.startswith(available + ".")
            or available.startswith(norm + ".")
        ):
            return True
    return False


class _Scope:
    """What the analyzer knows about the document shape at a pipeline point.

    Starts as the collection schema; ``$project`` / ``$group`` / ``$count``
    narrow it to an explicit field set, ``$addFields`` extends it,
    ``$replaceRoot`` may make it opaque (no checks beyond that point).
    """

    def __init__(self, schema: Optional[SchemaPaths]) -> None:
        self.schema = schema
        #: Explicit output fields of the last reshaping stage (None = the
        #: original schema still applies).
        self.allowed: Optional[set] = None
        self.added: set = set()
        self.removed: set = set()
        self.opaque = schema is None

    def check(self, path: str, location: str) -> Optional[Diagnostic]:
        """Diagnostic for a field reference, or ``None`` when it is fine."""
        if self.opaque:
            return None
        norm = normalize_path(path)
        if not norm or norm.startswith("$"):  # $$variables are not checked
            return None
        if _covers(self.added, norm):
            return None
        if _covers(self.removed, norm):
            return Diagnostic(
                "P105",
                ERROR,
                location,
                f"field {path!r} was removed by an earlier $project stage",
            )
        if self.allowed is not None:
            if _covers(self.allowed, norm):
                return None
            produced = ", ".join(sorted(self.allowed)) or "<nothing>"
            return Diagnostic(
                "P105",
                ERROR,
                location,
                f"field {path!r} is not produced by the preceding "
                f"$group/$project stage",
                hint=f"available fields: {produced}",
            )
        if self.schema is not None and not self.schema.knows(norm):
            close = self.schema.suggest_path(norm)
            return Diagnostic(
                "Q007",
                ERROR,
                location,
                f"unknown field path {path!r} "
                f"(schema {self.schema.name!r})",
                hint=f"did you mean {close!r}?" if close else None,
            )
        return None

    def element_scope(self, path: str) -> "_Scope":
        """The scope of array elements at ``path`` (for ``$elemMatch``)."""
        if (
            self.schema is not None
            and not self.opaque
            and self.allowed is None
            and not _covers(self.added, normalize_path(path))
        ):
            return _Scope(self.schema.descend(path))
        return _Scope(None)

    def reshape(self, fields: Iterable[str]) -> None:
        """The document now has exactly ``fields`` (after $project/$group)."""
        self.allowed = {normalize_path(f) for f in fields}
        self.added = set()
        self.removed = set()
        self.opaque = False

    def make_opaque(self) -> None:
        self.allowed = None
        self.added = set()
        self.removed = set()
        self.opaque = True


class _Analyzer:
    """Shared walker state: collected diagnostics plus the current scope."""

    def __init__(self, schema: Optional[SchemaPaths]) -> None:
        self.scope = _Scope(schema)
        self.diagnostics: List[Diagnostic] = []

    # ------------------------------------------------------------- reporting

    def report(
        self,
        code: str,
        severity: str,
        location: str,
        message: str,
        hint: Optional[str] = None,
    ) -> None:
        self.diagnostics.append(Diagnostic(code, severity, location, message, hint))

    def check_field(self, path: str, location: str) -> None:
        diagnostic = self.scope.check(path, location)
        if diagnostic is not None:
            self.diagnostics.append(diagnostic)

    # --------------------------------------------------------------- filters

    def filter(self, filter_doc: Any, location: str) -> None:
        if filter_doc is None:
            return
        if not isinstance(filter_doc, dict):
            self.report(
                "Q008",
                ERROR,
                location,
                f"filter must be a dict, got {type(filter_doc).__name__}",
            )
            return
        for key, condition in filter_doc.items():
            if key in TOP_LEVEL_OPERATORS:
                self._logical(key, condition, f"{location}.{key}")
            elif isinstance(key, str) and key.startswith("$"):
                self.report(
                    "Q002",
                    ERROR,
                    f"{location}.{key}",
                    f"unknown top-level operator {key!r}",
                    hint=did_you_mean(key, TOP_LEVEL_OPERATORS | FILTER_OPERATORS),
                )
            else:
                self.check_field(str(key), f"{location}.{key}")
                self._condition(str(key), condition, f"{location}.{key}")

    def _logical(self, op: str, condition: Any, location: str) -> None:
        if not isinstance(condition, (list, tuple)):
            self.report(
                "Q003",
                ERROR,
                location,
                f"{op} requires a list of filter documents, got "
                f"{type(condition).__name__}",
            )
            return
        if not condition:
            outcome = "matches no document" if op == "$or" else "matches every document"
            self.report(
                "Q005", WARNING, location, f"vacuous {op}: [] ({outcome})"
            )
            return
        for index, sub in enumerate(condition):
            if not isinstance(sub, dict):
                self.report(
                    "Q008",
                    ERROR,
                    f"{location}[{index}]",
                    f"{op} members must be filter documents, got "
                    f"{type(sub).__name__}",
                )
            else:
                self.filter(sub, f"{location}[{index}]")

    def _condition(self, field: str, condition: Any, location: str) -> None:
        if not isinstance(condition, dict) or not condition:
            return  # literal equality — any value is fine
        dollar_keys = [
            k for k in condition if isinstance(k, str) and k.startswith("$")
        ]
        if dollar_keys and len(dollar_keys) != len(condition):
            plain = sorted(set(condition) - set(dollar_keys))
            self.report(
                "Q006",
                ERROR,
                location,
                f"condition mixes $-operators {sorted(dollar_keys)} with "
                f"plain keys {plain}; it would silently degrade to literal "
                "equality",
                hint="wrap the literal document in {'$eq': ...} or split the "
                "condition",
            )
            return
        if not dollar_keys:
            return  # literal sub-document equality
        for op, operand in condition.items():
            self._operator(field, op, operand, f"{location}.{op}")

    def _operator(self, field: str, op: str, operand: Any, location: str) -> None:
        if op not in FILTER_OPERATORS:
            self.report(
                "Q001",
                ERROR,
                location,
                f"unknown operator {op!r}",
                hint=did_you_mean(op, FILTER_OPERATORS),
            )
            return
        if op in ("$in", "$nin", "$all"):
            if not isinstance(operand, (list, tuple, set)):
                self.report(
                    "Q003",
                    ERROR,
                    location,
                    f"{op} requires a list, got {type(operand).__name__}",
                )
            elif not operand:
                outcome = {
                    "$in": "matches no document",
                    "$nin": "matches every document",
                    "$all": "matches every document",
                }[op]
                self.report(
                    "Q005", WARNING, location, f"vacuous {op}: [] ({outcome})"
                )
        elif op == "$regex":
            if not isinstance(operand, str):
                self.report(
                    "Q004",
                    ERROR,
                    location,
                    f"$regex pattern must be a string, got "
                    f"{type(operand).__name__}",
                )
            else:
                try:
                    re.compile(operand)
                except re.error as exc:
                    self.report(
                        "Q004",
                        ERROR,
                        location,
                        f"invalid $regex pattern {operand!r}: {exc}",
                    )
        elif op == "$size":
            if isinstance(operand, bool) or not isinstance(operand, int):
                self.report(
                    "Q003",
                    ERROR,
                    location,
                    f"$size requires an integer, got {type(operand).__name__}",
                )
            elif operand < 0:
                self.report(
                    "Q003", ERROR, location, f"$size may not be negative, got {operand}"
                )
        elif op == "$elemMatch":
            if not isinstance(operand, dict):
                self.report(
                    "Q003",
                    ERROR,
                    location,
                    f"$elemMatch requires a filter document, got "
                    f"{type(operand).__name__}",
                )
            else:
                inner = _Analyzer(None)
                inner.scope = self.scope.element_scope(field)
                inner.filter(operand, location)
                self.diagnostics.extend(inner.diagnostics)
        elif op == "$not":
            self._condition(field, operand, location)

    # ------------------------------------------------------------- pipelines

    def pipeline(self, pipeline: Any) -> None:
        if not isinstance(pipeline, (list, tuple)):
            self.report(
                "P102",
                ERROR,
                "pipeline",
                f"pipeline must be a list of stages, got "
                f"{type(pipeline).__name__}",
            )
            return
        limit_seen = False
        for index, stage in enumerate(pipeline):
            location = f"stage[{index}]"
            if not isinstance(stage, dict) or len(stage) != 1:
                self.report(
                    "P102",
                    ERROR,
                    location,
                    f"each pipeline stage must be a single-key dict, got "
                    f"{stage!r}",
                )
                continue
            (name, spec), = stage.items()
            location = f"{location}.{name}"
            if name not in PIPELINE_STAGES:
                self.report(
                    "P101",
                    ERROR,
                    location,
                    f"unknown pipeline stage {name!r}",
                    hint=did_you_mean(name, PIPELINE_STAGES),
                )
                continue
            if name == "$sort" and limit_seen:
                self.report(
                    "P106",
                    WARNING,
                    location,
                    "$sort after $limit sorts only the truncated stream; "
                    "move the $sort before the $limit to sort the full input",
                )
            if name == "$limit":
                limit_seen = True
            self._stage(name, spec, location)

    def _stage(self, name: str, spec: Any, location: str) -> None:
        if name == "$match":
            self.filter(spec, location)
        elif name in ("$addFields", "$set"):
            if not isinstance(spec, dict) or not spec:
                self.report(
                    "P102",
                    ERROR,
                    location,
                    f"{name} requires a non-empty dict of field: expression",
                )
                return
            for field, expression in spec.items():
                self.expression(expression, f"{location}.{field}")
            self.scope.added.update(normalize_path(f) for f in spec)
        elif name == "$project":
            self._stage_project(spec, location)
        elif name == "$group":
            self._stage_group(spec, location)
        elif name == "$unwind":
            self._stage_unwind(spec, location)
        elif name == "$sort":
            self._stage_sort(spec, location)
        elif name in ("$skip", "$limit"):
            if isinstance(spec, bool) or not isinstance(spec, int):
                self.report(
                    "P102",
                    ERROR,
                    location,
                    f"{name} requires an integer, got {type(spec).__name__}",
                )
            elif spec < 0:
                self.report(
                    "P102", ERROR, location, f"{name} may not be negative, got {spec}"
                )
        elif name == "$count":
            if not isinstance(spec, str) or not spec:
                self.report(
                    "P102",
                    ERROR,
                    location,
                    f"$count requires a non-empty output field name, got "
                    f"{spec!r}",
                )
                return
            self.scope.reshape({spec})
        elif name == "$replaceRoot":
            self._stage_replace_root(spec, location)
        elif name == "$sortByCount":
            self.expression(spec, location)
            self.scope.reshape({"_id", "count"})

    def _stage_project(self, spec: Any, location: str) -> None:
        if not isinstance(spec, dict) or not spec:
            self.report(
                "P102", ERROR, location, "$project requires a non-empty dict"
            )
            return
        include_mode = any(
            rule in (1, True) or isinstance(rule, (str, dict))
            for field, rule in spec.items()
            if field != "_id"
        )
        for field, rule in spec.items():
            field_location = f"{location}.{field}"
            if rule in (0, False, 1, True):
                if field != "_id":
                    self.check_field(field, field_location)
            else:
                self.expression(rule, field_location)
        if include_mode:
            produced = {
                field
                for field, rule in spec.items()
                if field != "_id" and rule not in (0, False)
            }
            if spec.get("_id", 1) not in (0, False):
                produced.add("_id")
            self.scope.reshape(produced)
        else:
            self.scope.removed.update(
                normalize_path(field)
                for field, rule in spec.items()
                if rule in (0, False)
            )

    def _stage_group(self, spec: Any, location: str) -> None:
        if not isinstance(spec, dict):
            self.report(
                "P102",
                ERROR,
                location,
                f"$group requires a dict, got {type(spec).__name__}",
            )
            return
        if "_id" not in spec:
            self.report(
                "P102",
                ERROR,
                location,
                "$group requires an _id expression (use None for a single "
                "group over all documents)",
            )
        else:
            self.expression(spec["_id"], f"{location}._id")
        for field, accumulator in spec.items():
            if field == "_id":
                continue
            field_location = f"{location}.{field}"
            if not isinstance(accumulator, dict) or len(accumulator) != 1:
                self.report(
                    "P102",
                    ERROR,
                    field_location,
                    f"accumulator for {field!r} must be a single-op dict "
                    "like {'$sum': expr}",
                )
                continue
            (op, expression), = accumulator.items()
            if op not in ACCUMULATORS:
                self.report(
                    "P104",
                    ERROR,
                    f"{field_location}.{op}",
                    f"unknown accumulator {op!r}",
                    hint=did_you_mean(op, ACCUMULATORS),
                )
                continue
            self.expression(expression, f"{field_location}.{op}")
        fields = {f for f in spec if f != "_id"}
        fields.add("_id")
        self.scope.reshape(fields)

    def _stage_unwind(self, spec: Any, location: str) -> None:
        if isinstance(spec, dict):
            path = spec.get("path")
        else:
            path = spec
        if not isinstance(path, str) or not path.startswith("$"):
            self.report(
                "P102",
                ERROR,
                location,
                f"$unwind path must be a string starting with '$', got "
                f"{path!r}",
            )
            return
        self.check_field(path[1:], location)

    def _stage_sort(self, spec: Any, location: str) -> None:
        if not isinstance(spec, dict) or not spec:
            self.report(
                "P102",
                ERROR,
                location,
                "$sort requires a non-empty dict of field: direction",
            )
            return
        for field, direction in spec.items():
            field_location = f"{location}.{field}"
            if direction not in (1, -1) or isinstance(direction, bool):
                self.report(
                    "P102",
                    ERROR,
                    field_location,
                    f"sort direction must be 1 or -1, got {direction!r}",
                )
            self.check_field(field, field_location)

    def _stage_replace_root(self, spec: Any, location: str) -> None:
        if not isinstance(spec, dict) or "newRoot" not in spec:
            self.report(
                "P102",
                ERROR,
                location,
                "$replaceRoot requires {'newRoot': <expression>}",
            )
            return
        new_root = spec["newRoot"]
        self.expression(new_root, f"{location}.newRoot")
        if (
            isinstance(new_root, str)
            and new_root.startswith("$")
            and not new_root.startswith("$$")
            and self.scope.schema is not None
            and self.scope.allowed is None
            and not self.scope.opaque
        ):
            self.scope.schema = self.scope.schema.descend(new_root[1:])
            self.scope.added = set()
            self.scope.removed = set()
        else:
            self.scope.make_opaque()

    # ----------------------------------------------------------- expressions

    def expression(self, expression: Any, location: str) -> None:
        if isinstance(expression, str) and expression.startswith("$"):
            if not expression.startswith("$$"):
                self.check_field(expression[1:], location)
            return
        if isinstance(expression, dict):
            if len(expression) == 1:
                (op, operand), = expression.items()
                if isinstance(op, str) and op.startswith("$"):
                    self._expression_operator(op, operand, f"{location}.{op}")
                    return
            for key, value in expression.items():
                self.expression(value, f"{location}.{key}")
            return
        if isinstance(expression, (list, tuple)):
            for index, item in enumerate(expression):
                self.expression(item, f"{location}[{index}]")

    def _expression_operator(self, op: str, operand: Any, location: str) -> None:
        if op not in EXPRESSION_OPERATORS:
            self.report(
                "P103",
                ERROR,
                location,
                f"unknown expression operator {op!r}",
                hint=did_you_mean(op, EXPRESSION_OPERATORS),
            )
            return
        if op == "$literal":
            return
        if op in ("$subtract", "$divide", "$ifNull"):
            if not isinstance(operand, (list, tuple)) or len(operand) != 2:
                self.report(
                    "Q003",
                    ERROR,
                    location,
                    f"{op} requires a list of exactly 2 operands",
                )
                return
            self.expression(list(operand), location)
            return
        if op == "$cond":
            if isinstance(operand, dict):
                missing = {"if", "then", "else"} - set(operand)
                if missing:
                    self.report(
                        "Q003",
                        ERROR,
                        location,
                        f"$cond dict form is missing keys: {sorted(missing)}",
                    )
                    return
                for key in ("if", "then", "else"):
                    self.expression(operand[key], f"{location}.{key}")
                return
            if not isinstance(operand, (list, tuple)) or len(operand) != 3:
                self.report(
                    "Q003",
                    ERROR,
                    location,
                    "$cond requires [if, then, else] or "
                    "{'if': .., 'then': .., 'else': ..}",
                )
                return
            self.expression(list(operand), location)
            return
        if op in ("$add", "$multiply", "$concat", "$min", "$max", "$avg"):
            if not isinstance(operand, (list, tuple)):
                self.report(
                    "Q003",
                    ERROR,
                    location,
                    f"{op} requires a list of operands, got "
                    f"{type(operand).__name__}",
                )
                return
            self.expression(list(operand), location)
            return
        # $size takes a single expression operand.
        self.expression(operand, location)


def analyze_filter(
    filter_doc: Any, schema: Optional[SchemaPaths] = None
) -> List[Diagnostic]:
    """Statically analyze a filter document; returns diagnostics in order."""
    analyzer = _Analyzer(schema)
    analyzer.filter(filter_doc, "$")
    return analyzer.diagnostics


def analyze_pipeline(
    pipeline: Any, schema: Optional[SchemaPaths] = None
) -> List[Diagnostic]:
    """Statically analyze an aggregation pipeline; returns diagnostics."""
    analyzer = _Analyzer(schema)
    analyzer.pipeline(pipeline)
    return analyzer.diagnostics
