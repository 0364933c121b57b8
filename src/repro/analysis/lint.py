"""Repo-invariant AST linter (``python -m repro.analysis.lint src tests``,
also run over ``benchmarks`` and ``examples``).

Custom :mod:`ast`-based checks that hold this codebase's invariants:

* **L001** — mutable default argument: a list, dict or set literal, or a
  call of ``list``, ``dict``, ``set``, ``bytearray``, ``OrderedDict``,
  ``defaultdict``, ``Counter`` or ``deque``, bare or dotted
  (``collections.defaultdict(list)``), with or without arguments;
* **L002** — bare ``except:`` (swallows ``KeyboardInterrupt``/``SystemExit``);
* **L003** — ``print()`` in library code (everything under ``src/repro``
  except the CLI / report / ``__main__`` modules, which exist to print);
* **L004** — :mod:`repro.docstore` code raising anything but the
  :class:`~repro.docstore.errors.DocStoreError` hierarchy for user input —
  callers catch ``QueryError`` / ``StorageError``, so foreign exception
  types escape their error handling;
* **L005** — library module missing ``from __future__ import annotations``
  (keeps annotations cheap and uniform on all supported Pythons);
* **L006** — parameter annotated with a non-``Optional`` type but defaulted
  to ``None`` (``def f(x: str = None)`` lies to every caller and type
  checker; annotate ``Optional[str]`` / ``str | None`` instead);
* **L007** — docstore library code opening files for writing directly
  (``open(..., "w")``, ``path.open("wb")``, ``path.write_text(...)``) —
  every write to a docstore-managed path must go through the atomic-write
  helpers in :mod:`repro.docstore.wal` (tmp file → fsync → rename), or a
  crash can leave a half-written snapshot; ``wal.py`` itself, where those
  helpers live, is exempt;
* **L008** — eager ``deep_copy`` on a docstore read path (``find`` /
  ``find_one`` / ``all`` / ``aggregate`` / ``distinct``, the planner's
  ``execute_*`` / ``iter_*`` executors, aggregation ``_stage_*``
  handlers, ``_scan*`` helpers).  Reads materialize through the
  copy-on-read views in :mod:`repro.docstore.views`; a stray
  ``deep_copy`` per yielded document silently reintroduces the
  per-result allocation wall the views removed.  The sanctioned homes —
  ``documents.py``, ``views.py`` and the deliberately-eager
  ``_reference.py`` oracle — are exempt, and genuine mutating clones
  are suppressed inline (see below);
* **L009** — a ``# repro: ignore[...]`` suppression comment that names a
  code neither this linter nor the concurrency analyzer knows, or names
  L-codes and matches no finding on its line (kept symmetric with the
  concurrency analyzer's R100 so the tree stays honest).

Findings on a line ending in ``# repro: ignore[L008]`` (codes
comma-separated) are suppressed.  Suppressions naming only R-codes are
left for the concurrency analyzer to police.

With ``--concurrency`` the run additionally includes the R-code family
from :mod:`repro.analysis.concurrency` (effect-inference-based race and
nondeterminism diagnostics, R100–R103, R105 and R106).

Findings are reported as :class:`~repro.analysis.diagnostics.Diagnostic`
records with ``file:line:col`` locations.  The module doubles as a pytest
gate (``tests/analysis/test_lint.py::TestRepoGate``) and a CI step.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.concurrency import R_CODES, analyze_concurrency
from repro.analysis.diagnostics import ERROR, Diagnostic, collect_suppressions
from repro.analysis.effects import MUTABLE_CONSTRUCTORS

#: Every code this linter can emit (the L-code family's jurisdiction).
L_CODES: Dict[str, str] = {
    "L000": "syntax error",
    "L001": "mutable default argument",
    "L002": "bare except",
    "L003": "print() in library code",
    "L004": "docstore raise outside the DocStoreError hierarchy",
    "L005": "missing 'from __future__ import annotations'",
    "L006": "non-Optional parameter defaulted to None",
    "L007": "direct (non-atomic) file write in docstore code",
    "L008": "eager deep_copy on a docstore read path",
    "L009": "unused suppression comment",
}

#: Module basenames allowed to call print() even inside ``src``.
PRINT_ALLOWED = frozenset({"cli.py", "report.py", "__main__.py"})

#: Exception names the docstore may raise for user input (its own hierarchy).
DOCSTORE_EXCEPTIONS = frozenset(
    {
        "DocStoreError",
        "DuplicateKeyError",
        "QueryError",
        "CollectionNotFound",
        "StorageError",
        "StorageCorruptError",
        "QuarantineError",
        "DegradedReadError",
        "DegradedWriteError",
        "UnknownIndexKind",
    }
)

#: Docstore modules exempt from L007: the atomic-write helpers themselves.
ATOMIC_WRITE_HOME = frozenset({"wal.py"})

#: Docstore modules exempt from L008: where ``deep_copy`` lives, the
#: sanctioned materialization helpers, and the deliberately-eager oracle.
MATERIALIZATION_HOME = frozenset({"documents.py", "views.py", "_reference.py"})

#: Exact method names that form the docstore's read surface.
_READ_SURFACE_NAMES = frozenset({"find", "find_one", "all", "aggregate", "distinct"})

#: Name prefixes of read-path executors and helpers.
_READ_SURFACE_PREFIXES = ("execute_", "iter_", "_stage_", "_scan")


def _is_read_surface(name: str) -> bool:
    return name in _READ_SURFACE_NAMES or name.startswith(_READ_SURFACE_PREFIXES)

#: String literals that make an ``open``-style mode argument a write mode.
_WRITE_MODE_CHARS = frozenset("wax+")


def _called_name(call: ast.Call) -> str:
    """The last name of a call target (``f`` in ``f()`` and ``a.b.f()``)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else ""


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    return isinstance(node, ast.Call) and _called_name(node) in MUTABLE_CONSTRUCTORS


def _annotation_allows_none(annotation: Optional[ast.AST]) -> bool:
    """Whether a parameter annotation admits ``None`` as a value.

    Unannotated parameters are never flagged (there is no lie to catch), and
    the check is conservative: anything it cannot positively classify is
    treated as allowing ``None``.
    """
    if annotation is None:
        return True
    if isinstance(annotation, ast.Constant):
        if annotation.value is None:
            return True  # annotated `None` itself
        if isinstance(annotation.value, str):  # string annotation — substring scan
            text = annotation.value
            return "Optional" in text or "None" in text or "Any" in text
        return True
    if isinstance(annotation, ast.Name):
        return annotation.id in {"Any", "object"}
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in {"Any", "object"}
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _annotation_allows_none(annotation.left) or _annotation_allows_none(
            annotation.right
        )
    if isinstance(annotation, ast.Subscript):
        base = annotation.value
        name = base.id if isinstance(base, ast.Name) else (
            base.attr if isinstance(base, ast.Attribute) else ""
        )
        if name == "Optional":
            return True
        if name in {"Union", "Annotated"}:
            slice_node = annotation.slice
            elements = (
                slice_node.elts if isinstance(slice_node, ast.Tuple) else [slice_node]
            )
            if name == "Annotated":
                elements = elements[:1]  # only the type part matters
            return any(_annotation_allows_none(element) for element in elements)
        return False
    return True  # unrecognised construct — do not guess


def _mode_argument(node: ast.Call, position: int) -> Optional[ast.AST]:
    """The mode argument of an ``open``-style call, positional or keyword."""
    mode: Optional[ast.AST] = None
    if len(node.args) > position:
        mode = node.args[position]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    return mode


def _is_write_mode(mode: Optional[ast.AST]) -> bool:
    """Whether a mode argument provably opens for writing.

    Only string constants are classified (``open(p, flag)`` with a dynamic
    flag is not guessed at); absent modes default to read.
    """
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(_WRITE_MODE_CHARS.intersection(mode.value))
    return False


def _raised_name(node: ast.Raise) -> Optional[str]:
    """The exception class name of a raise statement, if identifiable."""
    exc = node.exc
    if exc is None:
        return None  # bare re-raise is always fine
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


class _FileLinter(ast.NodeVisitor):
    def __init__(self, path: Path, is_library: bool, is_docstore: bool) -> None:
        self.path = path
        self.is_library = is_library
        self.is_docstore = is_docstore
        self.findings: List[Diagnostic] = []
        #: Depth of enclosing read-surface functions (L008 applies when > 0).
        self._read_surface = 0

    def _report(self, node: ast.AST, code: str, message: str, hint: str = "") -> None:
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        self.findings.append(
            Diagnostic(
                code, ERROR, f"{self.path}:{line}:{col}", message, hint or None
            )
        )

    def _check_defaults(self, node: ast.AST, args: ast.arguments) -> None:
        positional = list(args.posonlyargs) + list(args.args)
        pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
        pairs += [
            (arg, default)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
        for arg, default in pairs:
            if _is_mutable_default(default):
                self._report(
                    default,
                    "L001",
                    "mutable default argument",
                    hint="use None and create the value inside the function",
                )
            if (
                isinstance(default, ast.Constant)
                and default.value is None
                and not _annotation_allows_none(arg.annotation)
            ):
                self._report(
                    default,
                    "L006",
                    f"parameter {arg.arg!r} defaults to None but its "
                    "annotation does not allow None",
                    hint="annotate it Optional[...] (or `| None`)",
                )

    def _visit_function(self, node: ast.AST, args: ast.arguments, name: str) -> None:
        self._check_defaults(node, args)
        surface = self.is_docstore and _is_read_surface(name)
        if surface:
            self._read_surface += 1
        self.generic_visit(node)
        if surface:
            self._read_surface -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.args, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.args, node.name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node, node.args)
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._report(
                node,
                "L002",
                "bare except swallows KeyboardInterrupt and SystemExit",
                hint="catch Exception (or something narrower) instead",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (
            self.is_library
            and self.path.name not in PRINT_ALLOWED
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            self._report(
                node,
                "L003",
                "print() in library code",
                hint="return or log the value; printing belongs in the CLI",
            )
        if (
            self.is_docstore
            and self.is_library
            and self.path.name not in ATOMIC_WRITE_HOME
        ):
            self._check_direct_write(node)
        if (
            self.is_docstore
            and self.is_library
            and self._read_surface
            and self.path.name not in MATERIALIZATION_HOME
        ):
            if _called_name(node) == "deep_copy":
                self._report(
                    node,
                    "L008",
                    "docstore read path deep-copies eagerly; reads "
                    "materialize through the copy-on-read views",
                    hint="use lazy_document/wrap_value from "
                    "repro.docstore.views, or suppress a genuine mutating "
                    "clone with `# repro: ignore[L008]`",
                )
        self.generic_visit(node)

    def _check_direct_write(self, node: ast.Call) -> None:
        func = node.func
        hint = (
            "write through repro.docstore.wal.atomic_write_text/_bytes "
            "(tmp file → fsync → rename)"
        )
        if isinstance(func, ast.Name) and func.id == "open":
            if _is_write_mode(_mode_argument(node, 1)):
                self._report(
                    node,
                    "L007",
                    "docstore code opens a file for writing directly; a "
                    "crash mid-write leaves a torn file",
                    hint=hint,
                )
        elif isinstance(func, ast.Attribute):
            if func.attr == "open" and _is_write_mode(_mode_argument(node, 0)):
                self._report(
                    node,
                    "L007",
                    "docstore code opens a file for writing directly; a "
                    "crash mid-write leaves a torn file",
                    hint=hint,
                )
            elif func.attr in {"write_text", "write_bytes"}:
                self._report(
                    node,
                    "L007",
                    f"docstore code calls .{func.attr}() directly; a crash "
                    "mid-write leaves a torn file",
                    hint=hint,
                )

    def visit_Raise(self, node: ast.Raise) -> None:
        if self.is_docstore:
            name = _raised_name(node)
            if name is not None and name not in DOCSTORE_EXCEPTIONS:
                self._report(
                    node,
                    "L004",
                    f"docstore code raises {name}; user input errors must "
                    "use the DocStoreError hierarchy",
                    hint="raise QueryError / StorageError (or a subclass)",
                )
        self.generic_visit(node)


def _finding_line(location: str) -> int:
    parts = location.rsplit(":", 2)
    return int(parts[1]) if len(parts) == 3 and parts[1].isdigit() else 0


def _apply_suppressions(
    findings: List[Diagnostic], source: str, path: Path
) -> List[Diagnostic]:
    suppressions = collect_suppressions(source)
    if not suppressions:
        return findings
    used: set = set()
    kept: List[Diagnostic] = []
    for finding in findings:
        line = _finding_line(finding.path)
        codes = suppressions.get(line)
        if codes and finding.code in codes:
            used.add(line)
        else:
            kept.append(finding)
    for line in sorted(suppressions):
        codes = suppressions[line]
        comment = f"`# repro: ignore[{','.join(codes)}]`"
        unknown = [c for c in codes if c not in L_CODES and c not in R_CODES]
        if unknown:
            kept.append(
                Diagnostic(
                    "L009",
                    ERROR,
                    f"{path}:{line}:0",
                    f"suppression {comment} names unknown code(s) "
                    f"{', '.join(unknown)}",
                    hint="name a current L- or R-code, or delete the comment",
                )
            )
        elif line not in used and any(code in L_CODES for code in codes):
            kept.append(
                Diagnostic(
                    "L009",
                    ERROR,
                    f"{path}:{line}:0",
                    f"suppression {comment} matches no lint finding",
                    hint="delete the stale comment (the linter no longer "
                    "flags this line)",
                )
            )
    return kept


def lint_source(
    source: str, path: Path, is_library: bool = True, is_docstore: bool = False
) -> List[Diagnostic]:
    """Lint one module's source text; returns its findings."""
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Diagnostic(
                "L000",
                ERROR,
                f"{path}:{exc.lineno or 0}:{exc.offset or 0}",
                f"syntax error: {exc.msg}",
            )
        ]
    linter = _FileLinter(path, is_library, is_docstore)
    linter.visit(tree)
    if is_library and "from __future__ import annotations" not in source:
        linter.findings.append(
            Diagnostic(
                "L005",
                ERROR,
                f"{path}:1:0",
                "missing 'from __future__ import annotations'",
                hint="add it as the first import of the module",
            )
        )
    findings = _apply_suppressions(linter.findings, source, path)
    findings.sort(key=lambda d: d.path)
    return findings


def lint_paths(paths: Sequence[Path]) -> List[Diagnostic]:
    """Lint every ``*.py`` file under ``paths`` (files or directories)."""
    findings: List[Diagnostic] = []
    for path in _python_files(paths):
        posix = path.as_posix()
        is_library = "/repro/" in posix or posix.startswith("src/")
        is_docstore = "/docstore/" in posix
        findings.extend(
            lint_source(
                path.read_text(encoding="utf-8"), path, is_library, is_docstore
            )
        )
    return findings


def _python_files(paths: Sequence[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro.analysis.lint``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="AST-based repo-invariant linter (codes L001-L009; "
        "add --concurrency for the R-code family).",
    )
    parser.add_argument("paths", nargs="+", type=Path, help="files or directories")
    parser.add_argument(
        "--concurrency",
        action="store_true",
        help="also run the concurrency/determinism analyzer (R-codes)",
    )
    args = parser.parse_args(argv)
    findings = lint_paths(args.paths)
    if args.concurrency:
        findings.extend(analyze_concurrency(args.paths).all_findings)
    for finding in findings:
        sys.stderr.write(finding.render() + "\n")
    if findings:
        sys.stderr.write(f"{len(findings)} lint finding(s)\n")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
