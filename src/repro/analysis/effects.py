"""Per-function effect inference over a call graph of this package.

The correctness story of the parallel paths ("any worker and shard count
produces bit-identical results", see :mod:`repro.core.parallel` and
:mod:`repro.dedup.pipeline`) only holds while everything that runs inside a
worker stays *pure and deterministic*.  This module computes the static
evidence for that claim: for every function and method in the analyzed
modules, an :class:`EffectSummary` recording

* **global effects** — module-level names the function reads, rebinds
  (``global`` statement), mutates in place (``CACHE[k] = v``,
  ``CACHE.update(...)``) or *aliases* (stores or passes the object so
  mutation escapes the analysis);
* **parameter and closure mutation** — in-place mutation of the function's
  own parameters or of an enclosing function's locals;
* **nondeterminism sources** — calls into the global :mod:`random` /
  :mod:`secrets` / :mod:`uuid` / ``numpy.random`` RNGs, value-producing
  :mod:`time` calls, ``os.urandom``, ``os.environ`` reads, whether the
  module is imported at module level or inside the function;
* **unordered iteration** — ``for`` loops over ``set`` / ``frozenset``
  values whose bodies feed an order-sensitive sink (list append, yield,
  file/journal write);
* **docstore-private mutation** — writes to another object's
  ``_documents`` / ``_by_user_id`` / ``_indexes`` / ``_journal`` state;
* the **calls** the function makes, resolved across the analyzed modules.

:func:`analyze_effects` parses the modules, builds the summaries and runs a
fixpoint so *transitive* facts (which of a function's own parameters end up
mutated somewhere down the call chain) are available to clients.  The
analysis is deliberately conservative and purely syntactic: it never
imports or executes the analyzed code, and identical source always produces
identical summaries (property-tested in
``tests/analysis/test_effects.py``).  The concurrency linter
(:mod:`repro.analysis.concurrency`) turns these summaries into the
R-code diagnostics documented in ``docs/static-analysis.md``.
"""

from __future__ import annotations

import ast
import builtins
import dataclasses
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

#: Names of every Python builtin — references to these are never globals.
_BUILTIN_NAMES = frozenset(dir(builtins))

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "add",
        "discard",
        "sort",
        "reverse",
        "put",
        "difference_update",
        "intersection_update",
        "symmetric_difference_update",
    }
)

#: Mutating methods that *cannot* make iteration order observable: adding to
#: a set inside a set-iteration loop still yields an unordered set.
_ORDER_INSENSITIVE_METHODS = frozenset(
    {"add", "discard", "remove", "clear", "update", "put"}
)

#: Constructor calls whose result is a mutable container (for global-state
#: classification here and L001's default-argument check in
#: :mod:`repro.analysis.lint`).
MUTABLE_CONSTRUCTORS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "OrderedDict",
        "defaultdict",
        "Counter",
        "deque",
    }
)

#: Value-producing :mod:`time` functions (``sleep`` only delays, it cannot
#: change a result).
_TIME_SOURCES = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "localtime",
        "gmtime",
        "ctime",
        "asctime",
        "strftime",
    }
)

#: RNG constructors that are deterministic when given a seed argument.
_SEEDED_RNGS = frozenset(
    {"random.Random", "numpy.random.default_rng", "numpy.random.RandomState"}
)

#: Private docstore state that only :mod:`repro.docstore` itself — through
#: the WAL journal — may touch.
DOCSTORE_PRIVATE_ATTRS = frozenset(
    {"_documents", "_by_user_id", "_indexes", "_journal", "_wals", "_staged"}
)


@dataclasses.dataclass(frozen=True)
class Effect:
    """One observed effect: what happened, to what, and where."""

    #: Effect kind, e.g. ``"rng"``, ``"global-write"``, ``"set-iteration"``.
    kind: str
    #: The affected name — a qualified global, a parameter, a call target.
    target: str
    #: 1-based source line inside the module.
    line: int
    #: Column offset of the offending node.
    col: int = 0
    #: Extra context (the sink of a set iteration, the mutated method, …).
    detail: str = ""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class EffectSummary:
    """Direct (intraprocedural) effects of one function or method."""

    #: Fully qualified name, e.g. ``repro.core.parallel._score_shard`` or
    #: ``repro.dedup.matching.RecordMatcher.prepare``.
    qualname: str
    module: str
    name: str
    line: int
    path: str
    #: Positional parameter names in order (``self``/``cls`` included).
    params: Tuple[str, ...] = ()
    reads_globals: Dict[str, int] = dataclasses.field(default_factory=dict)
    writes_globals: Dict[str, int] = dataclasses.field(default_factory=dict)
    mutates_globals: Dict[str, int] = dataclasses.field(default_factory=dict)
    aliases_globals: Dict[str, int] = dataclasses.field(default_factory=dict)
    mutates_params: Dict[str, int] = dataclasses.field(default_factory=dict)
    mutates_closure: Dict[str, int] = dataclasses.field(default_factory=dict)
    rng: List[Effect] = dataclasses.field(default_factory=list)
    time: List[Effect] = dataclasses.field(default_factory=list)
    env: List[Effect] = dataclasses.field(default_factory=list)
    set_iterations: List[Effect] = dataclasses.field(default_factory=list)
    docstore_private_writes: List[Effect] = dataclasses.field(default_factory=list)
    #: Resolved callee qualname -> (line, positional arg names, keyword map).
    calls: List["CallSite"] = dataclasses.field(default_factory=list)
    #: Parameters that end up mutated through any call chain (fixpoint).
    transitive_param_mutations: Dict[str, int] = dataclasses.field(
        default_factory=dict
    )

    def to_dict(self) -> dict:
        """JSON-serializable form with deterministic ordering."""
        return {
            "qualname": self.qualname,
            "module": self.module,
            "line": self.line,
            "params": list(self.params),
            "reads_globals": dict(sorted(self.reads_globals.items())),
            "writes_globals": dict(sorted(self.writes_globals.items())),
            "mutates_globals": dict(sorted(self.mutates_globals.items())),
            "aliases_globals": dict(sorted(self.aliases_globals.items())),
            "mutates_params": dict(sorted(self.mutates_params.items())),
            "mutates_closure": dict(sorted(self.mutates_closure.items())),
            "transitive_param_mutations": dict(
                sorted(self.transitive_param_mutations.items())
            ),
            "rng": [e.to_dict() for e in self.rng],
            "time": [e.to_dict() for e in self.time],
            "env": [e.to_dict() for e in self.env],
            "set_iterations": [e.to_dict() for e in self.set_iterations],
            "docstore_private_writes": [
                e.to_dict() for e in self.docstore_private_writes
            ],
            "calls": [c.to_dict() for c in self.calls],
        }


@dataclasses.dataclass(frozen=True)
class CallSite:
    """One call made by a function, with enough shape to map arguments."""

    #: Resolved callee qualname, or the raw dotted name when unresolved.
    callee: str
    line: int
    #: Whether ``callee`` resolved to a function in the analyzed modules.
    resolved: bool
    #: Local variable names passed positionally (``None`` for expressions).
    positional: Tuple[Optional[str], ...] = ()
    #: Keyword name -> local variable name (expressions omitted).
    keywords: Tuple[Tuple[str, str], ...] = ()
    #: ``(arg_slot, qualified_global)`` for mutable module-global arguments.
    global_args: Tuple[Tuple[str, str], ...] = ()

    def to_dict(self) -> dict:
        return {
            "callee": self.callee,
            "line": self.line,
            "resolved": self.resolved,
            "positional": list(self.positional),
            "keywords": dict(self.keywords),
            "global_args": dict(self.global_args),
        }


@dataclasses.dataclass
class ModuleEffects:
    """Everything the analysis learned about one module."""

    module: str
    path: str
    #: Module-level mutable containers: name -> (line, constructor label).
    mutable_globals: Dict[str, Tuple[int, str]]
    #: All module-level names (functions, classes, constants, imports).
    global_names: Set[str]
    #: Import alias -> fully qualified target.
    imports: Dict[str, str]
    functions: Dict[str, EffectSummary]


@dataclasses.dataclass
class EffectReport:
    """The cross-module result of :func:`analyze_effects`."""

    modules: Dict[str, ModuleEffects]
    #: Every function summary keyed by qualname.
    functions: Dict[str, EffectSummary]

    def summary(self, qualname: str) -> Optional[EffectSummary]:
        return self.functions.get(qualname)

    def reachable(self, roots: Iterable[str]) -> Dict[str, List[str]]:
        """BFS over the call graph: qualname -> call chain from a root.

        The chain starts at the root and ends at the function itself; each
        function keeps the first (shortest, deterministic) chain found.
        """
        chains: Dict[str, List[str]] = {}
        frontier: List[str] = []
        for root in roots:
            if root in self.functions and root not in chains:
                chains[root] = [root]
                frontier.append(root)
        while frontier:
            next_frontier: List[str] = []
            for qualname in frontier:
                summary = self.functions[qualname]
                for call in summary.calls:
                    if not call.resolved or call.callee in chains:
                        continue
                    chains[call.callee] = chains[qualname] + [call.callee]
                    next_frontier.append(call.callee)
            frontier = next_frontier
        return chains


# --------------------------------------------------------------- module scan


def _module_name(path: Path) -> str:
    """Dotted module name of ``path``, walking up through packages."""
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def _python_files(paths: Sequence[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


class _ScopeInfo:
    """Name classification context for one function scope."""

    def __init__(
        self,
        params: Tuple[str, ...],
        local_names: Set[str],
        global_declared: Set[str],
        nonlocal_declared: Set[str],
        enclosing_locals: Set[str],
    ) -> None:
        self.params = set(params)
        self.local_names = local_names
        self.global_declared = global_declared
        self.nonlocal_declared = nonlocal_declared
        self.enclosing_locals = enclosing_locals


def _collect_assigned_names(node: ast.AST) -> Set[str]:
    """Every name bound inside a function body (making it a local).

    Nested function/class bodies are excluded — their bindings live in their
    own scope — but their *names* are locals of this scope.
    """
    assigned: Set[str] = set()

    class Collector(ast.NodeVisitor):
        def visit_FunctionDef(self, inner: ast.FunctionDef) -> None:
            assigned.add(inner.name)

        def visit_AsyncFunctionDef(self, inner: ast.AsyncFunctionDef) -> None:
            assigned.add(inner.name)

        def visit_ClassDef(self, inner: ast.ClassDef) -> None:
            assigned.add(inner.name)

        def visit_Lambda(self, inner: ast.Lambda) -> None:
            pass  # separate scope, binds nothing here

        def visit_Name(self, name: ast.Name) -> None:
            if isinstance(name.ctx, (ast.Store, ast.Del)):
                assigned.add(name.id)

        def visit_alias(self, node_alias: ast.alias) -> None:
            target = node_alias.asname or node_alias.name.split(".")[0]
            assigned.add(target)

        def visit_ExceptHandler(self, handler: ast.ExceptHandler) -> None:
            if handler.name:
                assigned.add(handler.name)
            self.generic_visit(handler)

    collector = Collector()
    for child in ast.iter_child_nodes(node):
        collector.visit(child)
    return assigned


def _collect_declared(node: ast.AST, kind: type) -> Set[str]:
    declared: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, kind):
            declared.update(child.names)
    return declared


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _root_name(node: ast.AST) -> Optional[str]:
    """The base ``Name`` of an attribute/subscript chain, else ``None``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _import_bindings(
    node: Union[ast.Import, ast.ImportFrom],
) -> List[Tuple[str, str]]:
    """``(bound name, qualified target)`` for every name an import binds.

    ``import a.b`` binds ``a``; ``import a.b as c`` binds ``c`` to ``a.b``;
    ``from a import b`` binds ``b`` to ``a.b``.
    """
    if isinstance(node, ast.Import):
        return [
            (alias.asname, alias.name)
            if alias.asname
            else (alias.name.split(".")[0], alias.name.split(".")[0])
            for alias in node.names
        ]
    base = node.module or ""
    return [
        (alias.asname or alias.name, f"{base}.{alias.name}" if base else alias.name)
        for alias in node.names
    ]


def _is_set_expression(node: ast.AST, set_locals: Set[str]) -> Optional[str]:
    """A label when ``node`` provably evaluates to a set, else ``None``."""
    if isinstance(node, ast.Set):
        return "set literal"
    if isinstance(node, ast.SetComp):
        return "set comprehension"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in {"set", "frozenset"}:
            return f"{node.func.id}()"
    if isinstance(node, ast.Name) and node.id in set_locals:
        return f"set-typed local {node.id!r}"
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        left = _is_set_expression(node.left, set_locals)
        right = _is_set_expression(node.right, set_locals)
        if left or right:
            return left or right
    return None


def _annotation_is_set(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Name):
        return annotation.id in {"set", "frozenset", "Set", "FrozenSet"}
    if isinstance(annotation, ast.Subscript):
        return _annotation_is_set(annotation.value)
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in {"Set", "FrozenSet"}
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        text = annotation.value
        return text.startswith(("set", "Set", "frozenset", "FrozenSet"))
    return False


class _FunctionVisitor(ast.NodeVisitor):
    """Collects the direct effects of one function body."""

    def __init__(
        self,
        summary: EffectSummary,
        scope: _ScopeInfo,
        module_info: "_ModuleContext",
    ) -> None:
        self.summary = summary
        self.scope = scope
        self.ctx = module_info
        #: Locals known to hold a set value.
        self.set_locals: Set[str] = set()
        #: Locals known to hold a list value (order-sensitive sink targets).
        self.list_locals: Set[str] = set()
        #: Import bindings in scope: the module's, plus the function's own
        #: ``import`` statements once the visitor has passed them.
        self.imports: Dict[str, str] = dict(module_info.imports)

    # ----------------------------------------------------- name classification

    def _classify(self, name: str) -> str:
        """``"local"`` / ``"param"`` / ``"global"`` / ``"closure"`` / ``"other"``."""
        if name in self.scope.global_declared:
            return "global"
        if name in self.scope.nonlocal_declared:
            return "closure"
        if name in self.scope.params:
            return "param"
        if name in self.scope.local_names:
            return "local"
        if name in self.scope.enclosing_locals:
            return "closure"
        if name in self.ctx.global_names:
            return "global"
        if name in _BUILTIN_NAMES:
            return "other"
        return "other"

    def _qualify_global(self, name: str) -> str:
        return f"{self.ctx.module}.{name}"

    def _note_global_read(self, name: str, node: ast.AST) -> None:
        self.summary.reads_globals.setdefault(
            self._qualify_global(name), node.lineno
        )

    # ------------------------------------------------------------- statements

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested functions get their own summary

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass  # too small to carry effects worth tracking

    def visit_Import(self, node: ast.Import) -> None:
        self.imports.update(_import_bindings(node))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.imports.update(_import_bindings(node))

    def visit_Global(self, node: ast.Global) -> None:
        for name in node.names:
            self.summary.writes_globals.setdefault(
                self._qualify_global(name), node.lineno
            )

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        for name in node.names:
            self.summary.mutates_closure.setdefault(name, node.lineno)

    def _handle_mutation_target(self, target: ast.AST, line: int) -> None:
        """An assignment/delete through a subscript or attribute: in-place
        mutation of whatever object the base name holds."""
        base = _root_name(target)
        if base is None:
            return
        # Docstore-private state reached through an attribute chain
        # (``collection._documents[...] = ...``) is tracked separately.
        node: ast.AST = target
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in DOCSTORE_PRIVATE_ATTRS
                and not (
                    isinstance(node.value, ast.Name) and node.value.id == "self"
                )
            ):
                self.summary.docstore_private_writes.append(
                    Effect("docstore-private", node.attr, line)
                )
                break
            node = node.value
        kind = self._classify(base)
        if kind == "param":
            self.summary.mutates_params.setdefault(base, line)
        elif kind == "global":
            self.summary.mutates_globals.setdefault(
                self._qualify_global(base), line
            )
        elif kind == "closure":
            self.summary.mutates_closure.setdefault(base, line)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                self._handle_mutation_target(target, node.lineno)
                self._note_value_alias(node.value, node.lineno)
            elif isinstance(target, ast.Name):
                self._track_local_binding(target.id, node.value, node.lineno)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if isinstance(element, (ast.Subscript, ast.Attribute)):
                        self._handle_mutation_target(element, node.lineno)
        self.generic_visit(node)

    def _note_value_alias(self, value: ast.AST, line: int) -> None:
        """Storing a mutable global onto an attribute/subscript lets later
        mutation escape the analysis: ``self._cache = _CACHE``."""
        if isinstance(value, ast.Name) and self._classify(value.id) == "global":
            qualified = self._qualify_global(value.id)
            if qualified in self.ctx.mutable_global_names:
                self.summary.aliases_globals.setdefault(qualified, line)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, (ast.Subscript, ast.Attribute)):
            self._handle_mutation_target(node.target, node.lineno)
        elif isinstance(node.target, ast.Name):
            kind = self._classify(node.target.id)
            # ``x += [...]`` mutates lists in place; conservatively treat any
            # augmented assignment to a non-local as a write.
            if kind == "global":
                self.summary.writes_globals.setdefault(
                    self._qualify_global(node.target.id), node.lineno
                )
            elif kind == "closure":
                self.summary.mutates_closure.setdefault(
                    node.target.id, node.lineno
                )
            elif kind == "param":
                self.summary.mutates_params.setdefault(
                    node.target.id, node.lineno
                )
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, (ast.Subscript, ast.Attribute)):
            self._handle_mutation_target(node.target, node.lineno)
        elif isinstance(node.target, ast.Name):
            if _annotation_is_set(node.annotation):
                self.set_locals.add(node.target.id)
            if node.value is not None:
                self._track_local_binding(
                    node.target.id, node.value, node.lineno
                )
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                self._handle_mutation_target(target, node.lineno)
        self.generic_visit(node)

    def _track_local_binding(
        self, name: str, value: ast.AST, line: int
    ) -> None:
        """Type-shape bookkeeping for locals (sets and lists)."""
        if self._classify(name) != "local":
            return
        if _is_set_expression(value, self.set_locals):
            self.set_locals.add(name)
        elif isinstance(value, (ast.List, ast.ListComp)) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "list"
        ):
            self.list_locals.add(name)

    # ------------------------------------------------------------------ loops

    def visit_For(self, node: ast.For) -> None:
        iter_label = _is_set_expression(node.iter, self.set_locals)
        if iter_label is not None:
            sink = self._find_order_sensitive_sink(node.body)
            if sink is not None:
                self.summary.set_iterations.append(
                    Effect(
                        "set-iteration",
                        iter_label,
                        node.lineno,
                        node.col_offset,
                        detail=sink,
                    )
                )
        self.generic_visit(node)

    def _find_order_sensitive_sink(
        self, body: Sequence[ast.stmt]
    ) -> Optional[str]:
        """The first order-sensitive sink fed inside a loop body, if any."""
        for statement in body:
            for node in ast.walk(statement):
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    return "yield"
                if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    attr = node.func.attr
                    base = _root_name(node.func.value)
                    if attr in {"append", "extend", "insert"}:
                        if base is None or base not in self.set_locals:
                            return f"list {attr}"
                    elif attr in {"write", "writelines", "log"}:
                        return f".{attr}() call"
                    elif attr in {"insert_one", "insert_many"}:
                        return f"docstore .{attr}()"
                elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Name
                ):
                    if node.func.id in {"pack_pair", "print"}:
                        return f"{node.func.id}() emission"
                if isinstance(node, ast.AugAssign) and isinstance(
                    node.target, ast.Name
                ):
                    if node.target.id in self.list_locals:
                        return "list +="
        return None

    # ------------------------------------------------------------------ calls

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        line = node.lineno
        if dotted is not None:
            self._classify_call(dotted, node, line)
        # Receiver mutation: ``x.append(...)`` where x is a param/global/etc.
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in MUTATING_METHODS:
                base = _root_name(node.func.value)
                if base is not None and not self._is_module_alias(base):
                    self._note_receiver_mutation(base, node.func, line)
        self.generic_visit(node)

    def _is_module_alias(self, name: str) -> bool:
        return name in self.ctx.module_aliases

    def _note_receiver_mutation(
        self, base: str, func: ast.Attribute, line: int
    ) -> None:
        attr = func.attr
        # Walk the chain for docstore-private attributes
        # (``db._collections["x"]._documents.clear()``).
        node: ast.AST = func.value
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in DOCSTORE_PRIVATE_ATTRS
                and not (
                    isinstance(node.value, ast.Name) and node.value.id == "self"
                )
            ):
                self.summary.docstore_private_writes.append(
                    Effect("docstore-private", node.attr, line, detail=attr)
                )
                break
            node = node.value
        kind = self._classify(base)
        if kind == "param":
            self.summary.mutates_params.setdefault(base, line)
        elif kind == "global":
            self.summary.mutates_globals.setdefault(
                self._qualify_global(base), line
            )
        elif kind == "closure":
            self.summary.mutates_closure.setdefault(base, line)

    def _classify_call(self, dotted: str, node: ast.Call, line: int) -> None:
        head, _, tail = dotted.partition(".")
        bound = self.imports.get(head)
        if bound is not None:
            self._note_source(f"{bound}.{tail}" if tail else bound, node, line)
        # -- call-graph edge ------------------------------------------------
        callee = self._resolve_callee(dotted)
        positional = tuple(
            argument.id if isinstance(argument, ast.Name) else None
            for argument in node.args
        )
        keywords = tuple(
            (keyword.arg, keyword.value.id)
            for keyword in node.keywords
            if keyword.arg is not None and isinstance(keyword.value, ast.Name)
        )
        self.summary.calls.append(
            CallSite(
                callee=callee if callee else dotted,
                line=line,
                resolved=callee is not None,
                positional=positional,
                keywords=keywords,
                global_args=self._qualify_call_globals(positional, keywords),
            )
        )

    def _note_source(self, target: str, node: ast.Call, line: int) -> None:
        """Record a call to the fully qualified ``target`` if it is a
        nondeterminism source."""
        module, _, name = target.rpartition(".")
        if target in _SEEDED_RNGS and (node.args or node.keywords):
            return  # seeded private RNG: deterministic by construction
        if target.startswith("random.Random."):
            return  # method on an explicit (seeded) instance expression
        if (
            module in {"random", "secrets", "uuid"}
            or target.startswith("numpy.random.")
            or target == "os.urandom"
        ):
            self.summary.rng.append(Effect("rng", target, line))
        elif module == "time" and name in _TIME_SOURCES:
            self.summary.time.append(Effect("time", target, line))

    def _qualify_call_globals(
        self,
        positional: Tuple[Optional[str], ...],
        keywords: Tuple[Tuple[str, str], ...],
    ) -> Tuple[Tuple[str, str], ...]:
        """``(arg_slot, qualified_global)`` for module-global arguments.

        ``arg_slot`` is the decimal position for positional arguments or
        the keyword name; only mutable module globals are recorded (the
        fixpoint turns them into global mutations when the callee mutates
        the matching parameter).
        """
        qualified: List[Tuple[str, str]] = []
        for position, argument in enumerate(positional):
            if argument is not None and self._classify(argument) == "global":
                name = self._qualify_global(argument)
                if name in self.ctx.mutable_global_names:
                    qualified.append((str(position), name))
        for keyword, argument in keywords:
            if self._classify(argument) == "global":
                name = self._qualify_global(argument)
                if name in self.ctx.mutable_global_names:
                    qualified.append((keyword, name))
        return tuple(qualified)

    def _resolve_callee(self, dotted: str) -> Optional[str]:
        return self.ctx.resolve(dotted, self.summary.qualname)

    # ------------------------------------------------------------- name reads

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            if self._classify(node.id) == "global":
                self._note_global_read(node.id, node)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # ``os.environ`` in any shape — plain load, ``os.environ[...]``,
        # ``os.environ.get(...)`` — contains this Attribute node exactly once.
        if node.attr == "environ":
            dotted = _dotted_name(node)
            if dotted is not None:
                head = dotted.split(".", 1)[0]
                if self.imports.get(head) == "os":
                    self.summary.env.append(
                        Effect("env", "os.environ", node.lineno)
                    )
        # Storing a mutable global onto an attribute lets mutation escape:
        # ``self._cache = _CACHE``.
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if isinstance(node.value, ast.Name):
            if self._classify(node.value.id) == "global":
                qualified = self._qualify_global(node.value.id)
                if qualified in self.ctx.mutable_global_names:
                    self.summary.aliases_globals.setdefault(
                        qualified, node.lineno
                    )
        self.generic_visit(node)


class _ModuleContext:
    """Shared per-module name information used by the function visitors."""

    def __init__(
        self,
        module: str,
        path: str,
        tree: ast.Module,
    ) -> None:
        self.module = module
        self.path = path
        self.imports: Dict[str, str] = {}
        self.module_aliases: Set[str] = set()
        self.global_names: Set[str] = set()
        self.mutable_globals: Dict[str, Tuple[int, str]] = {}
        self.mutable_global_names: Set[str] = set()
        self._collect_module_scope(tree)
        #: Set by :func:`analyze_effects` once all modules are indexed.
        self.function_index: Dict[str, str] = {}
        self.class_methods: Dict[str, Set[str]] = {}

    def _collect_module_scope(self, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                # ``from repro.textsim import fast`` binds a module too.
                for bound, target in _import_bindings(node):
                    self.imports[bound] = target
                    self.module_aliases.add(bound)
                    self.global_names.add(bound)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.global_names.add(node.name)
            elif isinstance(node, ast.ClassDef):
                self.global_names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for name_node in ast.walk(target):
                        if isinstance(name_node, ast.Name) and isinstance(
                            name_node.ctx, ast.Store
                        ):
                            self.global_names.add(name_node.id)
                            self._classify_global_value(
                                name_node.id, node.value, node.lineno
                            )
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                self.global_names.add(node.target.id)
                if node.value is not None:
                    self._classify_global_value(
                        node.target.id, node.value, node.lineno
                    )
            elif isinstance(node, (ast.For, ast.While, ast.If, ast.Try)):
                for child in ast.walk(node):
                    if isinstance(child, ast.Name) and isinstance(
                        child.ctx, ast.Store
                    ):
                        self.global_names.add(child.id)

    def _classify_global_value(
        self, name: str, value: ast.AST, line: int
    ) -> None:
        label: Optional[str] = None
        if isinstance(value, (ast.List, ast.ListComp)):
            label = "list"
        elif isinstance(value, (ast.Dict, ast.DictComp)):
            label = "dict"
        elif isinstance(value, (ast.Set, ast.SetComp)):
            label = "set"
        elif isinstance(value, ast.Call):
            callee = _dotted_name(value.func)
            if callee is not None:
                tail = callee.split(".")[-1]
                if tail in MUTABLE_CONSTRUCTORS:
                    label = tail
        if label is not None:
            self.mutable_globals[name] = (line, label)
            self.mutable_global_names.add(f"{self.module}.{name}")

    def resolve(self, dotted: str, caller_qualname: str) -> Optional[str]:
        """Resolve a called dotted name to an analyzed function qualname."""
        head, _, tail = dotted.partition(".")
        if head == "self" and tail:
            # Method call on the enclosing class.
            method = tail.split(".")[0]
            for class_name, methods in self.class_methods.items():
                prefix = f"{self.module}.{class_name}."
                if caller_qualname.startswith(prefix) and method in methods:
                    return prefix + method
            return None
        if not tail:
            # Plain name: local function or from-import of a function.
            candidate = f"{self.module}.{head}"
            if candidate in self.function_index:
                return candidate
            imported = self.imports.get(head)
            if imported is not None and imported in self.function_index:
                return imported
            return None
        # Dotted: module alias + attribute (possibly nested).
        imported = self.imports.get(head)
        if imported is not None:
            candidate = f"{imported}.{tail}"
            if candidate in self.function_index:
                return candidate
        candidate = f"{self.module}.{dotted}"
        if candidate in self.function_index:
            return candidate
        return None


def _iter_functions(
    tree: ast.Module,
) -> Iterable[Tuple[str, ast.AST, Set[str]]]:
    """Yield ``(qualname_suffix, node, enclosing_locals)`` for every
    function, method and nested function of a module."""

    def walk(
        body: Sequence[ast.stmt], prefix: str, enclosing: Set[str]
    ) -> Iterable[Tuple[str, ast.AST, Set[str]]]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{node.name}" if prefix else node.name
                yield qualname, node, set(enclosing)
                inner_locals = enclosing | _collect_assigned_names(node)
                inner_locals.update(_param_names(node.args))
                yield from walk(node.body, f"{qualname}.", inner_locals)
            elif isinstance(node, ast.ClassDef):
                class_prefix = (
                    f"{prefix}{node.name}." if prefix else f"{node.name}."
                )
                yield from walk(node.body, class_prefix, enclosing)

    return walk(tree.body, "", set())


def _param_names(args: ast.arguments) -> Tuple[str, ...]:
    names = [a.arg for a in args.posonlyargs]
    names += [a.arg for a in args.args]
    if args.vararg:
        names.append(args.vararg.arg)
    names += [a.arg for a in args.kwonlyargs]
    if args.kwarg:
        names.append(args.kwarg.arg)
    return tuple(names)


# ----------------------------------------------------------------- fixpoint


def _propagate_param_mutations(functions: Dict[str, EffectSummary]) -> None:
    """Fixpoint: a parameter is (transitively) mutated when the function
    mutates it directly, or passes it to a call position whose callee
    parameter is itself transitively mutated."""
    for summary in functions.values():
        summary.transitive_param_mutations = dict(summary.mutates_params)
    changed = True
    while changed:
        changed = False
        for summary in functions.values():
            for call in summary.calls:
                callee = functions.get(call.callee)
                if callee is None:
                    continue
                callee_params = callee.params
                mutated = callee.transitive_param_mutations
                for position, argument in enumerate(call.positional):
                    if argument is None or argument not in summary.params:
                        continue
                    if position < len(callee_params) and (
                        callee_params[position] in mutated
                    ):
                        if argument not in summary.transitive_param_mutations:
                            summary.transitive_param_mutations[argument] = (
                                call.line
                            )
                            changed = True
                for keyword, argument in call.keywords:
                    if argument not in summary.params:
                        continue
                    if keyword in mutated:
                        if argument not in summary.transitive_param_mutations:
                            summary.transitive_param_mutations[argument] = (
                                call.line
                            )
                            changed = True


def _propagate_global_mutations(functions: Dict[str, EffectSummary]) -> None:
    """A mutable global passed to a callee that mutates the matching
    parameter is a mutation of the global — attribute the effect to the
    caller (runs after the parameter fixpoint, which it depends on)."""
    for summary in functions.values():
        for call in summary.calls:
            if not call.global_args:
                continue
            callee = functions.get(call.callee)
            if callee is None:
                continue
            mutated = callee.transitive_param_mutations
            for slot, qualified in call.global_args:
                if slot.isdigit():
                    position = int(slot)
                    if position >= len(callee.params):
                        continue
                    parameter = callee.params[position]
                else:
                    parameter = slot
                if parameter in mutated:
                    summary.mutates_globals.setdefault(qualified, call.line)


# -------------------------------------------------------------- entry point


def analyze_module_source(
    source: str, path: Path, module: Optional[str] = None
) -> ModuleEffects:
    """Effect summaries for one module given as source text.

    Call-graph edges to *other* modules stay unresolved; use
    :func:`analyze_effects` for whole-package analysis.
    """
    report = analyze_effects_sources([(source, path, module)])
    return next(iter(report.modules.values()))


def analyze_effects(paths: Sequence[Path]) -> EffectReport:
    """Analyze every ``*.py`` file under ``paths`` (files or directories)."""
    sources: List[Tuple[str, Path, Optional[str]]] = []
    for path in _python_files(paths):
        sources.append((path.read_text(encoding="utf-8"), path, None))
    return analyze_effects_sources(sources)


def analyze_effects_sources(
    sources: Sequence[Tuple[str, Path, Optional[str]]],
) -> EffectReport:
    """Analyze ``(source, path, module_name)`` triples as one code base."""
    contexts: List[Tuple[_ModuleContext, ast.Module]] = []
    for source, path, module in sources:
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            continue  # the plain linter reports syntax errors (L000)
        name = module or _module_name(Path(path))
        contexts.append((_ModuleContext(name, str(path), tree), tree))

    # First pass: index every function qualname so calls resolve globally.
    function_index: Dict[str, str] = {}
    class_methods_by_module: Dict[str, Dict[str, Set[str]]] = {}
    pending: List[Tuple[_ModuleContext, str, ast.AST, Set[str]]] = []
    for context, tree in contexts:
        class_methods: Dict[str, Set[str]] = {}
        for suffix, node, enclosing in _iter_functions(tree):
            qualname = f"{context.module}.{suffix}"
            function_index[qualname] = context.module
            parts = suffix.split(".")
            if len(parts) == 2:  # Class.method
                class_methods.setdefault(parts[0], set()).add(parts[1])
            pending.append((context, suffix, node, enclosing))
        class_methods_by_module[context.module] = class_methods

    modules: Dict[str, ModuleEffects] = {}
    functions: Dict[str, EffectSummary] = {}
    for context, tree in contexts:
        context.function_index = function_index
        context.class_methods = class_methods_by_module[context.module]
        modules[context.module] = ModuleEffects(
            module=context.module,
            path=context.path,
            mutable_globals=dict(context.mutable_globals),
            global_names=set(context.global_names),
            imports=dict(context.imports),
            functions={},
        )

    for context, suffix, node, enclosing in pending:
        qualname = f"{context.module}.{suffix}"
        params = _param_names(node.args)  # type: ignore[attr-defined]
        summary = EffectSummary(
            qualname=qualname,
            module=context.module,
            name=suffix.split(".")[-1],
            line=node.lineno,  # type: ignore[attr-defined]
            path=context.path,
            params=params,
        )
        scope = _ScopeInfo(
            params=params,
            local_names=_collect_assigned_names(node),
            global_declared=_collect_declared(node, ast.Global),
            nonlocal_declared=_collect_declared(node, ast.Nonlocal),
            enclosing_locals=enclosing,
        )
        visitor = _FunctionVisitor(summary, scope, context)
        for statement in node.body:  # type: ignore[attr-defined]
            visitor.visit(statement)
        functions[qualname] = summary
        modules[context.module].functions[suffix] = summary

    _propagate_param_mutations(functions)
    _propagate_global_mutations(functions)
    return EffectReport(modules=modules, functions=functions)
