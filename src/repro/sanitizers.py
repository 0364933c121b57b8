"""Runtime sanitizer for determinism hazards.

The static side of this story lives in :mod:`repro.analysis.concurrency`
(the R-code diagnostics).  This module provides the matching *dynamic*
check: :func:`determinism_check` runs one sharded computation under
several ``(max_workers, shards)`` configurations and diffs the results.
The pipeline's correctness story is "bit-identical to the naive oracle at
any parallelism"; this harness turns that claim into an executable
assertion and reports the first divergence when it fails
(:class:`NondeterminismError`).

Usage::

    from repro import sanitizers

    report = sanitizers.determinism_check(
        lambda workers, shards: score_candidates_packed(
            records, keys, matcher, shards=shards, max_workers=workers
        )
    )
    assert report.consistent
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, List, Sequence, Tuple

__all__ = [
    "DeterminismReport",
    "NondeterminismError",
    "determinism_check",
    "DEFAULT_CONFIGS",
]


#: Default ``(max_workers, shards)`` configurations exercised by
#: :func:`determinism_check`: serial, mildly parallel, and over-sharded.
DEFAULT_CONFIGS: Tuple[Tuple[int, int], ...] = ((1, 1), (2, 4), (4, 8))


class NondeterminismError(AssertionError):
    """A sharded computation produced different results across configs."""


@dataclasses.dataclass(frozen=True)
class DeterminismReport:
    """Outcome of a :func:`determinism_check` run.

    ``configs`` lists every ``(max_workers, shards)`` pair exercised,
    ``baseline`` is the result of the first configuration, and
    ``divergences`` holds one human-readable description per configuration
    that disagreed with the baseline (empty when ``consistent``).
    """

    label: str
    configs: Tuple[Tuple[int, int], ...]
    baseline: Any
    divergences: Tuple[str, ...]

    @property
    def consistent(self) -> bool:
        """True when every configuration matched the baseline exactly."""
        return not self.divergences


def _first_divergence(expected: Any, actual: Any, path: str = "$") -> str:
    """Describe the first point where ``actual`` differs from ``expected``."""
    if type(expected) is not type(actual) and not (
        isinstance(expected, (list, tuple)) and isinstance(actual, (list, tuple))
    ):
        return (
            f"{path}: type {type(actual).__name__} != {type(expected).__name__}"
        )
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in expected:
            if key not in actual:
                return f"{path}.{key}: missing"
            if actual[key] != expected[key]:
                return _first_divergence(expected[key], actual[key], f"{path}.{key}")
        extra = [key for key in actual if key not in expected]
        if extra:
            return f"{path}.{extra[0]}: unexpected key"
        return f"{path}: dicts compare unequal"
    if isinstance(expected, (list, tuple)) and isinstance(actual, (list, tuple)):
        if len(expected) != len(actual):
            return f"{path}: length {len(actual)} != {len(expected)}"
        for index, (exp, act) in enumerate(zip(expected, actual)):
            if exp != act:
                return _first_divergence(exp, act, f"{path}[{index}]")
        return f"{path}: sequences compare unequal"
    return f"{path}: {actual!r} != {expected!r}"


def determinism_check(
    compute: Callable[[int, int], Any],
    configs: Sequence[Tuple[int, int]] = DEFAULT_CONFIGS,
    *,
    label: str = "",
    raise_on_divergence: bool = True,
) -> DeterminismReport:
    """Run ``compute(max_workers, shards)`` per config and diff the results.

    The first configuration establishes the baseline; every later result
    must compare equal to it.  On divergence a :class:`NondeterminismError`
    names the offending configuration and the first differing element
    (pass ``raise_on_divergence=False`` to collect the full report
    instead).  Returns the :class:`DeterminismReport` either way.
    """
    if not configs:
        raise ValueError("determinism_check needs at least one configuration")
    pairs: List[Tuple[int, int]] = [(int(w), int(s)) for w, s in configs]
    name = label or getattr(compute, "__name__", "") or "compute"
    baseline = compute(*pairs[0])
    divergences: List[str] = []
    for workers, shards in pairs[1:]:
        result = compute(workers, shards)
        if result == baseline:
            continue
        where = _first_divergence(baseline, result)
        divergences.append(
            f"{name} diverged at workers={workers} shards={shards} "
            f"(baseline workers={pairs[0][0]} shards={pairs[0][1]}): {where}"
        )
    report = DeterminismReport(
        label=name,
        configs=tuple(pairs),
        baseline=baseline,
        divergences=tuple(divergences),
    )
    if divergences and raise_on_divergence:
        raise NondeterminismError("; ".join(divergences))
    return report
