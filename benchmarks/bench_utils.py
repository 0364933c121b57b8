"""Helpers shared by the benchmark modules."""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable, Iterable, Tuple


def timed(fn: Callable[[], Any], repeats: int = 1) -> Tuple[float, Any]:
    """Best-of-``repeats`` wall time and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def write_result(results_dir: Path, name: str, lines: Iterable[str]) -> None:
    """Print a regenerated table and persist it under ``results/``."""
    text = "\n".join(lines)
    print(f"\n=== {name} ===\n{text}")
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def histogram_lines(histogram: dict, label: str) -> list:
    """Render a ``value -> count`` histogram as aligned text lines."""
    lines = [f"{label:>12} {'count':>8}"]
    for key in sorted(histogram):
        lines.append(f"{key:>12} {histogram[key]:>8}")
    return lines


def distribution_lines(scores, bins: int = 20, low: float = 0.0, high: float = 1.0) -> list:
    """Bucket a score list into a textual distribution (paper's histograms)."""
    counts = [0] * bins
    width = (high - low) / bins
    for score in scores:
        index = min(bins - 1, max(0, int((score - low) / width)))
        counts[index] += 1
    total = len(scores) or 1
    lines = [f"{'bucket':>14} {'count':>8} {'share':>8}"]
    for index, count in enumerate(counts):
        lo = low + index * width
        hi = lo + width
        lines.append(f"[{lo:5.2f},{hi:5.2f}) {count:>8} {count / total:>7.1%}")
    return lines
