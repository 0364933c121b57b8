"""Registries of the operators the docstore actually supports.

The analyzer validates names against these sets and produces did-you-mean
hints with the Damerau-Levenshtein distance from :mod:`repro.textsim` — the
same measure the paper uses to characterise typos (distance 1 = one edit or
one adjacent transposition), which is exactly the error class a query typo
falls into.

The pipeline-stage registry is derived from the aggregation module's own
dispatch table so the two can never drift apart; the remaining registries
mirror the ``if op == …`` chains of :mod:`repro.docstore.matching` and
:mod:`repro.docstore.aggregation` (which are not data-driven) and are pinned
to them by unit tests.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.docstore.aggregation import _STAGES
from repro.textsim.levenshtein import damerau_levenshtein_distance

#: Field-level filter operators understood by ``compile_filter``.
FILTER_OPERATORS = frozenset(
    {
        "$exists",
        "$eq",
        "$ne",
        "$gt",
        "$gte",
        "$lt",
        "$lte",
        "$in",
        "$nin",
        "$regex",
        "$size",
        "$all",
        "$elemMatch",
        "$not",
    }
)

#: Top-level logical combinators of the filter language.
TOP_LEVEL_OPERATORS = frozenset({"$and", "$or", "$nor"})

#: Aggregation pipeline stages (derived from the dispatch table).
PIPELINE_STAGES = frozenset(_STAGES)

#: Aggregation expression operators.
EXPRESSION_OPERATORS = frozenset(
    {
        "$literal",
        "$add",
        "$subtract",
        "$multiply",
        "$divide",
        "$size",
        "$concat",
        "$cond",
        "$ifNull",
        "$min",
        "$max",
        "$avg",
    }
)

#: ``$group`` accumulator operators.
ACCUMULATORS = frozenset(
    {"$sum", "$avg", "$min", "$max", "$push", "$addToSet", "$first", "$last"}
)

#: Pipeline stages the query planner can push down into an indexed read
#: (mirrors ``repro.docstore.planner.split_pushdown``; pinned by tests).
PUSHDOWN_STAGES = frozenset({"$match", "$sort", "$skip", "$limit"})


def suggest(
    name: str, candidates: Iterable[str], max_distance: int = 2
) -> Optional[str]:
    """The closest candidate within ``max_distance`` edits, or ``None``.

    Ties break towards the lexicographically smallest candidate so hints are
    deterministic.
    """
    best: Optional[Tuple[int, str]] = None
    for candidate in candidates:
        distance = damerau_levenshtein_distance(name, candidate)
        if distance > max_distance:
            continue
        if best is None or (distance, candidate) < best:
            best = (distance, candidate)
    return best[1] if best else None


def did_you_mean(name: str, candidates: Iterable[str]) -> Optional[str]:
    """A formatted ``did you mean …?`` hint, or ``None`` when nothing is close."""
    match = suggest(name, candidates)
    return f"did you mean {match!r}?" if match else None
