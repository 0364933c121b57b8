"""Dedup-pipeline usage hints: detection code that will not scale.

:func:`analyze_dedup_usage` inspects Python source (AST-level, nothing is
executed) and emits ``I408`` warnings — the detection-pipeline sibling of
the ``I401``–``I405`` index-usage hints — wherever the candidate
*universe* fed to ``score_candidates_packed(...)`` is quadratic or
window-bound: all pairs from ``itertools.combinations(...)`` (bare or
wrapped in ``pack_pairs(...)``), or a lone
``sorted_neighborhood_candidates(...)`` result — including its
tuple-unpacked first element — either nested in the call or through a
straight-line local assignment.  On large registers the fix is not a
faster loop but a sub-quadratic generator: the MinHash–LSH pass
(:mod:`repro.dedup.lsh`).

Like the index-usage hints these are warnings, never errors — the code is
correct, it is just the path that stops scaling first.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.diagnostics import WARNING, Diagnostic

#: All-pairs universes: O(n²) candidates no scoring loop can outrun.
ALLPAIRS_GENERATORS = frozenset({"combinations"})

#: Window-bound generators whose recall a lone pass caps (I408).
SNM_ONLY_GENERATORS = frozenset({"sorted_neighborhood_candidates"})

#: The packed scorer — already fast, but only as good as its candidates.
PACKED_PAIR_SCORERS = frozenset({"score_candidates_packed"})

_LSH_HINT = (
    "generate candidates sub-quadratically with the MinHash-LSH pass: "
    "lsh_candidates(records, attributes, bands=..., rows=...) or "
    'DetectionPipeline(candidate_passes=("snm", "lsh"))'
)


def _called_name(node: ast.Call) -> Optional[str]:
    """The terminal function name of a call, for ``f(...)`` and ``m.f(...)``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _keys_argument(node: ast.Call) -> Optional[ast.expr]:
    """The candidate-keys argument of a scoring call: the second
    positional argument, or ``keys=``."""
    if len(node.args) >= 2:
        return node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "keys":
            return keyword.value
    return None


_TRACKED_GENERATORS = ALLPAIRS_GENERATORS | SNM_ONLY_GENERATORS


def _generator_of_expression(value: ast.expr) -> Optional[str]:
    """The tracked generator a value expression carries, if any.

    Handles the bare call, ``pack_pairs(combinations(...), n)`` and the
    ``sorted_neighborhood_candidates(...)[0]`` keys projection.
    """
    if isinstance(value, ast.Call):
        name = _called_name(value)
        if name in _TRACKED_GENERATORS:
            return name
        if name == "pack_pairs" and value.args:
            inner = value.args[0]
            if isinstance(inner, ast.Call):
                inner_name = _called_name(inner)
                if inner_name in ALLPAIRS_GENERATORS:
                    return inner_name
        return None
    if isinstance(value, ast.Subscript):
        inner = value.value
        if isinstance(inner, ast.Call):
            name = _called_name(inner)
            if name in SNM_ONLY_GENERATORS:
                return name
    return None


class _Scope:
    """Straight-line ``name = <tracked generator>(...)`` bindings of one
    scope."""

    def __init__(self) -> None:
        self.generated: Dict[str, str] = {}  # variable -> generator name

    def record_assignment(self, node: Union[ast.Assign, ast.AnnAssign]) -> None:
        value = node.value
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        generator = _generator_of_expression(value) if value else None
        for target in targets:
            if isinstance(target, ast.Name):
                if generator is not None:
                    self.generated[target.id] = generator
                else:
                    # Any other rebinding kills the tracked provenance.
                    self.generated.pop(target.id, None)
            elif isinstance(target, ast.Tuple):
                self._record_tuple_target(target, value, generator)

    def _record_tuple_target(
        self,
        target: ast.Tuple,
        value: Optional[ast.expr],
        generator: Optional[str],
    ) -> None:
        """``keys, stats = sorted_neighborhood_candidates(...)`` binds keys.

        The generators return ``(keys, stats)`` tuples, so only the first
        tuple element carries candidate provenance; every other unpacked
        name is a rebinding that clears whatever it previously tracked.
        """
        first_is_keys = (
            generator in SNM_ONLY_GENERATORS
            and isinstance(value, ast.Call)
        )
        for position, element in enumerate(target.elts):
            if not isinstance(element, ast.Name):
                continue
            if position == 0 and first_is_keys:
                self.generated[element.id] = generator
            else:
                self.generated.pop(element.id, None)


class _DedupUsageVisitor(ast.NodeVisitor):
    """Walks one module, keeping a per-function assignment scope."""

    def __init__(self, filename: str) -> None:
        self.filename = filename
        self.findings: List[Diagnostic] = []
        self._scopes: List[_Scope] = [_Scope()]

    # -- scope management ---------------------------------------------------

    def _in_new_scope(self, node: ast.AST) -> None:
        self._scopes.append(_Scope())
        self.generic_visit(node)
        self._scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._in_new_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._in_new_scope(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._in_new_scope(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)  # report nested calls first
        self._scopes[-1].record_assignment(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        self._scopes[-1].record_assignment(node)

    # -- the hint -----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = _called_name(node)
        if name in PACKED_PAIR_SCORERS:
            origin = self._keys_argument_origin(node)
            if origin in ALLPAIRS_GENERATORS:
                self._report(
                    node,
                    f"all pairs from {origin}() feed {name}(); the O(n^2) "
                    "candidate universe dominates runtime on large "
                    "registers no matter how fast each pair is scored",
                )
            elif origin in SNM_ONLY_GENERATORS:
                self._report(
                    node,
                    f"{name}() scores candidates from a lone {origin}() "
                    "pass; on large registers the fixed-window "
                    "neighbourhood caps recall while pair counts keep "
                    "growing with n*window",
                )
        self.generic_visit(node)

    def _report(self, node: ast.Call, message: str) -> None:
        self.findings.append(
            Diagnostic(
                "I408",
                WARNING,
                f"{self.filename}:{node.lineno}",
                message,
                hint=_LSH_HINT,
            )
        )

    def _keys_argument_origin(self, node: ast.Call) -> Optional[str]:
        """The generator behind the candidate-keys argument, if traceable."""
        argument = _keys_argument(node)
        if argument is None:
            return None
        direct = _generator_of_expression(argument)
        if direct is not None:
            return direct
        if isinstance(argument, ast.Name):
            for scope in reversed(self._scopes):
                if argument.id in scope.generated:
                    return scope.generated[argument.id]
        return None


def analyze_dedup_usage(
    source: str, filename: str = "<source>"
) -> List[Diagnostic]:
    """``I408`` hints for candidate shapes that stop scaling.

    ``source`` is Python source text; returns one warning per
    ``score_candidates_packed`` call whose keys argument is (or was
    assigned from, in the same or an enclosing scope) an
    ``itertools.combinations`` universe (bare, ``pack_pairs``-wrapped or
    assigned) or a lone ``sorted_neighborhood_candidates`` result (nested
    ``[0]`` or tuple-unpacked keys) — switch candidate generation to the
    sub-quadratic MinHash–LSH pass.

    Raises ``SyntaxError`` if the source does not parse.
    """
    tree = ast.parse(source, filename=filename)
    visitor = _DedupUsageVisitor(filename)
    visitor.visit(tree)
    return visitor.findings
