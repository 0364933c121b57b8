"""Concurrency & determinism diagnostics (the R-code family).

Built on the per-function effect summaries of
:mod:`repro.analysis.effects`, this analyzer protects the two claims the
parallel paths make (:mod:`repro.core.parallel`,
:mod:`repro.dedup.pipeline`): shard workers are **pure** (safe to retry
and to fan out over processes) and **deterministic** (any worker/shard
count produces bit-identical results).  Each code targets one way those
claims silently break:

* **R100** — an inline suppression comment (``# repro: ignore[R10x]``)
  that no finding used; stale suppressions hide future regressions;
* **R101** — a shard/worker function (anything passed to
  :func:`repro.core.parallel.run_shards`, directly or transitively
  reached from one) writes or mutates shared state: a module-level
  global, a closure cell, or one of its own parameters (workers are
  retried and degrade to in-process execution, so argument mutation
  leaks between attempts);
* **R102** — unseeded/global RNG, value-producing :mod:`time` calls,
  ``os.urandom`` or ``os.environ`` reachable from code executed under
  ``run_shards`` — results would differ between runs or workers;
* **R103** — iteration over a ``set``/``frozenset`` feeding an
  order-sensitive sink (list append, yield, file/journal write):
  set order varies with PYTHONHASHSEED, so the sink's order does too;
* **R105** — mutation of docstore-private state (``_documents``,
  ``_by_user_id``, ``_indexes``, …) from outside :mod:`repro.docstore`:
  such writes bypass the WAL journal, so a crash forgets them;
* **R106** — a module-level mutable container that run-time code mutates
  or aliases without an entry in the :data:`PROCESS_LOCAL_CACHES`
  exemption registry (mutable default arguments are the linter's L001).

Findings on a line ending in ``# repro: ignore[R101]`` (codes
comma-separated) are suppressed; suppressions that never fire are
themselves reported as R100 so the tree stays honest.  The pytest gate
``tests/analysis/test_repo_clean.py`` asserts both directions over
``src/repro``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import (
    ERROR,
    WARNING,
    Diagnostic,
    collect_suppressions,
)
from repro.analysis.effects import (
    EffectReport,
    EffectSummary,
    analyze_effects,
    analyze_effects_sources,
)

#: Descriptions of every code this analyzer can emit.
R_CODES: Dict[str, str] = {
    "R100": "unused suppression comment",
    "R101": "shard/worker function touches shared mutable state",
    "R102": "nondeterminism source reachable from parallel code",
    "R103": "unordered set iteration feeds an order-sensitive sink",
    "R105": "docstore-private state mutated outside the WAL journal",
    "R106": "unregistered module-level mutable cache",
}

#: Module-level mutable caches that are *process-local by design*: every
#: worker process gets (or rebuilds) its own copy, entries are pure
#: functions of their keys, and eviction can never change a result — so
#: sharing them inside one process is safe and R101/R106 do not apply.
#: Keyed by the qualified global name; the value documents the invariant
#: (and is asserted by ``tests/analysis/test_concurrency.py``).
PROCESS_LOCAL_CACHES: Dict[str, str] = {
    "repro.textsim.fast.tokens_of": (
        "functools.lru_cache of a pure function; process-local by "
        "construction"
    ),
    "repro.textsim.fast._token_pair_dl_similarity": (
        "functools.lru_cache of a pure function; process-local by "
        "construction"
    ),
    "repro.textsim.fast.qgram_set": (
        "functools.lru_cache of a pure function; process-local by "
        "construction"
    ),
    "repro.core.parallel._CLAMP_WARNED": (
        "warn-once set of call-site labels for WorkerClampWarning; "
        "grows monotonically, guards only warning emission (never a "
        "result), and each worker process keeping its own copy merely "
        "re-warns at most once"
    ),
    "repro.core.parallel._RESILIENCE": (
        "monotonic telemetry counters (pool runs, shard retries, degraded "
        "shards) surfaced through Database.stats(); diagnostic only — no "
        "code path reads them to make a decision — so worker processes "
        "keeping their own discarded copies is correct by construction"
    ),
}

#: Call targets that start a parallel region: the first positional
#: argument of ``run_shards`` is executed in worker processes.
_PARALLEL_DISPATCH = "repro.core.parallel.run_shards"

#: Modules that own the docstore's private state (R105 exempt): the
#: collection/update machinery mutates stored documents through the
#: journal on purpose.
_DOCSTORE_PREFIX = "repro.docstore."


@dataclasses.dataclass
class Suppression:
    """One inline suppression comment."""

    path: str
    line: int
    codes: Tuple[str, ...]
    used: bool = False


@dataclasses.dataclass
class ConcurrencyReport:
    """Everything one analyzer run produced."""

    findings: List[Diagnostic]
    suppressed: List[Diagnostic]
    unused_suppressions: List[Diagnostic]
    effects: EffectReport

    @property
    def all_findings(self) -> List[Diagnostic]:
        """Active findings plus unused-suppression findings (the gate set)."""
        return self.findings + self.unused_suppressions

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for diagnostic in self.all_findings:
            counts[diagnostic.code] = counts.get(diagnostic.code, 0) + 1
        return dict(sorted(counts.items()))

    def to_json(self) -> dict:
        """Machine-readable report (the CI artifact format)."""
        return {
            "version": 1,
            "codes": R_CODES,
            "findings": [dataclasses.asdict(d) for d in self.all_findings],
            "suppressed": [dataclasses.asdict(d) for d in self.suppressed],
            "counts": self.counts(),
            "clean": not self.all_findings,
        }


def _collect_suppressions(
    sources: Sequence[Tuple[str, Path, Optional[str]]],
) -> Dict[str, Dict[int, Suppression]]:
    """Every file's suppressions, keyed by path and line."""
    by_file: Dict[str, Dict[int, Suppression]] = {}
    for source, path, _module in sources:
        lines = collect_suppressions(source)
        if lines:
            by_file[str(path)] = {
                number: Suppression(str(path), number, codes)
                for number, codes in lines.items()
            }
    return by_file


def _worker_roots(report: EffectReport) -> Dict[str, Tuple[str, int]]:
    """Functions handed to ``run_shards`` as workers.

    Returns ``{worker_qualname: (dispatching_function, call_line)}`` —
    every first positional argument of a resolved ``run_shards`` call that
    names a function in the analyzed set.
    """
    roots: Dict[str, Tuple[str, int]] = {}
    for qualname, summary in report.functions.items():
        module_effects = report.modules.get(summary.module)
        for call in summary.calls:
            if not (
                call.callee == _PARALLEL_DISPATCH
                or (not call.resolved and call.callee.endswith("run_shards"))
            ):
                continue
            if not call.positional or call.positional[0] is None:
                continue
            worker_name = call.positional[0]
            candidate = f"{summary.module}.{worker_name}"
            if candidate in report.functions:
                roots.setdefault(candidate, (qualname, call.line))
            elif module_effects is not None:
                imported = module_effects.imports.get(worker_name)
                if imported in report.functions:
                    roots.setdefault(imported, (qualname, call.line))
    return dict(sorted(roots.items()))


def _location(summary: EffectSummary, line: int) -> str:
    return f"{summary.path}:{line}:0"


def _chain_text(chain: List[str]) -> str:
    if len(chain) <= 1:
        return ""
    return " -> ".join(name.rsplit(".", 1)[-1] for name in chain)


class _Analyzer:
    def __init__(
        self,
        report: EffectReport,
        exemptions: Optional[Dict[str, str]] = None,
    ) -> None:
        self.report = report
        self.exemptions = (
            PROCESS_LOCAL_CACHES if exemptions is None else exemptions
        )
        self.findings: List[Diagnostic] = []

    def _emit(
        self,
        code: str,
        severity: str,
        location: str,
        message: str,
        hint: Optional[str] = None,
    ) -> None:
        self.findings.append(Diagnostic(code, severity, location, message, hint))

    # ------------------------------------------------------------ R101/R102

    def check_workers(self) -> None:
        roots = _worker_roots(self.report)
        chains = self.report.reachable(roots)
        for qualname, chain in sorted(chains.items()):
            summary = self.report.functions[qualname]
            root = chain[0]
            via = _chain_text(chain)
            suffix = f" (reached via {via})" if via else ""
            self._check_worker_shared_state(summary, root, suffix)
            self._check_worker_nondeterminism(summary, root, suffix)
        # Parameter mutation only matters for the worker roots themselves:
        # their arguments are what run_shards re-submits on retry and what
        # the in-process fallback shares with the caller.
        for root in roots:
            summary = self.report.functions[root]
            for param, line in sorted(
                summary.transitive_param_mutations.items()
            ):
                self._emit(
                    "R101",
                    ERROR,
                    _location(summary, line),
                    f"worker {summary.name!r} mutates its argument "
                    f"{param!r}; retried and in-process-degraded workers "
                    "would see the mutated value",
                    hint="copy the argument before mutating, or build a "
                    "fresh structure and return it",
                )

    def _check_worker_shared_state(
        self, summary: EffectSummary, root: str, suffix: str
    ) -> None:
        role = (
            f"worker {summary.name!r}"
            if summary.qualname == root
            else f"{summary.name!r}, reachable from worker "
            f"{root.rsplit('.', 1)[-1]!r}"
        )
        for name, line in sorted(summary.writes_globals.items()):
            if name in self.exemptions:
                continue
            self._emit(
                "R101",
                ERROR,
                _location(summary, line),
                f"{role} rebinds module global {name!r}{suffix}; worker "
                "processes each see their own copy, so results depend on "
                "which process ran the shard",
                hint="pass the value through the shard arguments instead",
            )
        for name, line in sorted(summary.mutates_globals.items()):
            if name in self.exemptions:
                continue
            self._emit(
                "R101",
                ERROR,
                _location(summary, line),
                f"{role} mutates module global {name!r}{suffix}; the "
                "mutation is invisible to the parent process and makes "
                "retried shards non-reproducible",
                hint="keep per-shard state local and merge it in the "
                "parent, or register a process-local cache exemption",
            )
        for name, line in sorted(summary.mutates_closure.items()):
            self._emit(
                "R101",
                ERROR,
                _location(summary, line),
                f"{role} mutates closure variable {name!r}{suffix}; "
                "closure cells do not cross process boundaries",
                hint="pass the value as an explicit shard argument",
            )
        # Reading a mutable global that *someone* mutates is capture of
        # shared mutable state: the worker's copy may differ from the
        # parent's at fork/submit time.
        mutated_anywhere = self._globals_mutated_anywhere()
        for name, line in sorted(summary.reads_globals.items()):
            if name in self.exemptions:
                continue
            if name in summary.mutates_globals or name in summary.writes_globals:
                continue  # the mutation error above already covers this
            if name in mutated_anywhere:
                self._emit(
                    "R101",
                    WARNING,
                    _location(summary, line),
                    f"{role} reads module global {name!r}{suffix}, which "
                    f"{mutated_anywhere[name]!r} mutates; the worker's "
                    "snapshot of it depends on submission timing",
                    hint="pass the value through the shard arguments, or "
                    "register a process-local cache exemption",
                )

    def _globals_mutated_anywhere(self) -> Dict[str, str]:
        mutated: Dict[str, str] = {}
        for qualname, summary in sorted(self.report.functions.items()):
            for name in summary.mutates_globals:
                mutated.setdefault(name, qualname)
            for name in summary.writes_globals:
                mutated.setdefault(name, qualname)
        return mutated

    def _check_worker_nondeterminism(
        self, summary: EffectSummary, root: str, suffix: str
    ) -> None:
        role = (
            f"worker {summary.name!r}"
            if summary.qualname == root
            else f"{summary.name!r}, reachable from worker "
            f"{root.rsplit('.', 1)[-1]!r}"
        )
        for effect in summary.rng:
            self._emit(
                "R102",
                ERROR,
                _location(summary, effect.line),
                f"{role} calls {effect.target}{suffix}; the global RNG is "
                "seeded differently in every worker process, so shard "
                "results are not reproducible",
                hint="thread an explicitly seeded random.Random through "
                "the shard arguments",
            )
        for effect in summary.time:
            self._emit(
                "R102",
                ERROR,
                _location(summary, effect.line),
                f"{role} calls {effect.target}{suffix}; wall-clock values "
                "differ between workers and runs",
                hint="compute timestamps in the parent and pass them in",
            )
        for effect in summary.env:
            self._emit(
                "R102",
                WARNING,
                _location(summary, effect.line),
                f"{role} reads {effect.target}{suffix}; the environment "
                "can differ between the parent and spawned workers",
                hint="resolve environment configuration before sharding",
            )

    # ----------------------------------------------------------------- R103

    def check_set_iterations(self) -> None:
        for qualname, summary in sorted(self.report.functions.items()):
            for effect in summary.set_iterations:
                self._emit(
                    "R103",
                    ERROR,
                    _location(summary, effect.line),
                    f"{summary.name!r} iterates over a {effect.target} and "
                    f"feeds an order-sensitive sink ({effect.detail}); set "
                    "order varies with PYTHONHASHSEED, so the output order "
                    "does too",
                    hint="iterate over sorted(...) or keep the data in a "
                    "list/dict (insertion-ordered)",
                )

    # ----------------------------------------------------------------- R105

    def check_docstore_private_writes(self) -> None:
        for qualname, summary in sorted(self.report.functions.items()):
            if summary.module.startswith(_DOCSTORE_PREFIX):
                continue
            for effect in summary.docstore_private_writes:
                self._emit(
                    "R105",
                    ERROR,
                    _location(summary, effect.line),
                    f"{summary.name!r} mutates docstore-private state "
                    f"{effect.target!r} directly; the write bypasses the "
                    "WAL journal, so a crash silently forgets it",
                    hint="go through the Collection API (insert/update/"
                    "replace/delete) so the mutation is journaled",
                )

    # ----------------------------------------------------------------- R106

    def check_module_caches(self) -> None:
        for module_name, module_effects in sorted(
            self.report.modules.items()
        ):
            for name, (line, label) in sorted(
                module_effects.mutable_globals.items()
            ):
                qualified = f"{module_name}.{name}"
                if qualified in self.exemptions:
                    continue
                toucher = self._find_cache_toucher(qualified)
                if toucher is None:
                    continue
                verb, function_name, touch_line, touch_path = toucher
                self._emit(
                    "R106",
                    ERROR,
                    f"{touch_path}:{touch_line}:0",
                    f"module-level mutable {label} {qualified!r} is "
                    f"{verb} by {function_name!r} without a registered "
                    "discipline; unbounded or cross-worker shared caches "
                    "silently break determinism and memory bounds",
                    hint="register it in repro.analysis.concurrency."
                    "PROCESS_LOCAL_CACHES with its invariant, or make "
                    "the state local",
                )

    def _find_cache_toucher(
        self, qualified: str
    ) -> Optional[Tuple[str, str, int, str]]:
        """The first function that mutates or aliases ``qualified``."""
        for qualname, summary in sorted(self.report.functions.items()):
            if qualified in summary.mutates_globals:
                return (
                    "mutated",
                    summary.name,
                    summary.mutates_globals[qualified],
                    summary.path,
                )
            if qualified in summary.writes_globals:
                return (
                    "rebound",
                    summary.name,
                    summary.writes_globals[qualified],
                    summary.path,
                )
            if qualified in summary.aliases_globals:
                return (
                    "aliased",
                    summary.name,
                    summary.aliases_globals[qualified],
                    summary.path,
                )
        return None


def _apply_suppressions(
    findings: List[Diagnostic],
    suppressions: Dict[str, Dict[int, Suppression]],
) -> Tuple[List[Diagnostic], List[Diagnostic], List[Diagnostic]]:
    active: List[Diagnostic] = []
    suppressed: List[Diagnostic] = []
    for diagnostic in findings:
        path, _, rest = diagnostic.path.partition(":")
        line_text = rest.split(":")[0] if rest else "0"
        line = int(line_text) if line_text.isdigit() else 0
        suppression = suppressions.get(path, {}).get(line)
        if suppression is not None and diagnostic.code in suppression.codes:
            suppression.used = True
            suppressed.append(diagnostic)
        else:
            active.append(diagnostic)
    unused: List[Diagnostic] = []
    for path in sorted(suppressions):
        for line in sorted(suppressions[path]):
            suppression = suppressions[path][line]
            if not any(code in R_CODES for code in suppression.codes):
                # Another tool's jurisdiction (e.g. the plain linter's
                # L-codes); that tool polices staleness for its codes.
                continue
            if not suppression.used:
                unused.append(
                    Diagnostic(
                        "R100",
                        ERROR,
                        f"{path}:{line}:0",
                        "suppression "
                        f"`# repro: ignore[{','.join(suppression.codes)}]` "
                        "matches no finding",
                        hint="delete the stale comment (the analyzer no "
                        "longer flags this line)",
                    )
                )
    return active, suppressed, unused


def _sort_key(diagnostic: Diagnostic) -> Tuple[str, int, str]:
    path, _, rest = diagnostic.path.partition(":")
    line_text = rest.split(":")[0] if rest else "0"
    line = int(line_text) if line_text.isdigit() else 0
    return (path, line, diagnostic.code)


def analyze_concurrency_sources(
    sources: Sequence[Tuple[str, Path, Optional[str]]],
    exemptions: Optional[Dict[str, str]] = None,
) -> ConcurrencyReport:
    """Run every R-code check over ``(source, path, module)`` triples."""
    effects = analyze_effects_sources(sources)
    analyzer = _Analyzer(effects, exemptions)
    analyzer.check_workers()
    analyzer.check_set_iterations()
    analyzer.check_docstore_private_writes()
    analyzer.check_module_caches()
    findings = sorted(analyzer.findings, key=_sort_key)
    suppressions = _collect_suppressions(sources)
    active, suppressed, unused = _apply_suppressions(findings, suppressions)
    return ConcurrencyReport(
        findings=active,
        suppressed=suppressed,
        unused_suppressions=unused,
        effects=effects,
    )


def analyze_concurrency(
    paths: Sequence[Path],
    exemptions: Optional[Dict[str, str]] = None,
) -> ConcurrencyReport:
    """Run every R-code check over the ``*.py`` files under ``paths``."""
    sources: List[Tuple[str, Path, Optional[str]]] = []
    for path in _python_files(paths):
        sources.append((path.read_text(encoding="utf-8"), path, None))
    return analyze_concurrency_sources(sources, exemptions)


def _python_files(paths: Sequence[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def write_json_report(report: ConcurrencyReport, out: Path) -> None:
    """Write the machine-readable findings report (the CI artifact)."""
    out.write_text(
        json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
