"""Static analysis for docstore queries, pipelines and repo invariants.

Three layers:

* a **query/pipeline analyzer** (:func:`analyze_filter`,
  :func:`analyze_pipeline`, :func:`analyze_customization`) that walks filter
  documents, aggregation pipelines and customisation specs *without
  executing them* and reports :class:`Diagnostic` records — unknown
  operators with did-you-mean hints,
  operand shape errors, invalid ``$regex`` patterns, vacuous predicates,
  unknown field paths (against a :class:`SchemaPaths`) and stage-order
  hazards.  The ``ncvoter-testdata check`` CLI subcommand is its front
  door;
* a **repo-invariant AST linter** (:mod:`repro.analysis.lint`), runnable as
  ``python -m repro.analysis.lint src tests`` and as a pytest-collected
  gate;
* a **concurrency & determinism analyzer** (:mod:`repro.analysis.effects`
  + :mod:`repro.analysis.concurrency`): per-function effect summaries
  (global/closure/parameter mutation, RNG/time/env, set iteration)
  over a call graph, and the R-code diagnostics built on them (R100–R103,
  R105, R106) guarding the parallel and durable paths.  Front doors:
  ``python -m repro.analysis.lint --concurrency`` and
  ``ncvoter-testdata check --concurrency``.
"""

from __future__ import annotations

from repro.analysis.analyzer import analyze_filter, analyze_pipeline
from repro.analysis.customization import analyze_customization
from repro.analysis.index_usage import analyze_index_usage
from repro.analysis.diagnostics import (
    ERROR,
    WARNING,
    Diagnostic,
    errors_only,
    has_errors,
    render_report,
)
from repro.analysis.registry import (
    ACCUMULATORS,
    EXPRESSION_OPERATORS,
    FILTER_OPERATORS,
    PIPELINE_STAGES,
    PUSHDOWN_STAGES,
    TOP_LEVEL_OPERATORS,
    did_you_mean,
    suggest,
)
from repro.analysis.concurrency import (
    PROCESS_LOCAL_CACHES,
    R_CODES,
    ConcurrencyReport,
    analyze_concurrency,
    analyze_concurrency_sources,
    write_json_report,
)
from repro.analysis.effects import (
    EffectReport,
    EffectSummary,
    analyze_effects,
    analyze_effects_sources,
)
from repro.analysis.schemas import SchemaPaths, cluster_schema, flat_record_schema

__all__ = [
    "Diagnostic",
    "ERROR",
    "WARNING",
    "has_errors",
    "errors_only",
    "render_report",
    "analyze_filter",
    "analyze_index_usage",
    "analyze_pipeline",
    "analyze_customization",
    "SchemaPaths",
    "cluster_schema",
    "flat_record_schema",
    "FILTER_OPERATORS",
    "TOP_LEVEL_OPERATORS",
    "PIPELINE_STAGES",
    "PUSHDOWN_STAGES",
    "EXPRESSION_OPERATORS",
    "ACCUMULATORS",
    "suggest",
    "did_you_mean",
    "R_CODES",
    "PROCESS_LOCAL_CACHES",
    "ConcurrencyReport",
    "analyze_concurrency",
    "analyze_concurrency_sources",
    "write_json_report",
    "EffectReport",
    "EffectSummary",
    "analyze_effects",
    "analyze_effects_sources",
]
