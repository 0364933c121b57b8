"""Text rendering of the paper's tables from statistics objects.

Turns the stats dataclasses produced by :mod:`repro.core.statistics`,
:mod:`repro.core.irregularities` and :mod:`repro.datasets` into aligned
text tables shaped like the paper's Tables 1–4 — the human-readable face
of the benchmark harness and the CLI.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.core.irregularities import IrregularityCensus
from repro.core.statistics import RemovalStats, YearStats
from repro.datasets.base import DatasetCharacteristics


def render_table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Align ``rows`` under ``header`` (right-aligned columns)."""
    materialised = [tuple(str(cell) for cell in row) for row in rows]
    widths = [len(column) for column in header]
    for row in materialised:
        if len(row) != len(header):
            raise ValueError(
                f"row has {len(row)} cells, header has {len(header)}"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(str(cell).rjust(widths[i]) for i, cell in enumerate(header))
    ]
    for row in materialised:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_collection_stats(stats: Dict) -> str:
    """Storage-layout table from :meth:`repro.docstore.Database.stats`.

    One row per collection: document count, index names and whether the
    collection is quarantined.
    """
    header = ("collection", "documents", "indexes", "quarantined")
    body = [
        (
            name,
            entry["documents"],
            ", ".join(entry["indexes"]) or "-",
            "yes" if entry["quarantined"] else "-",
        )
        for name, entry in sorted(stats.get("collections", {}).items())
    ]
    return render_table(header, body)


def render_resilience(stats: Dict) -> str:
    """Resilience counters from :meth:`repro.docstore.Database.stats`.

    Covers the parallel layer's retry/degradation telemetry and the
    storage layer's quarantine count; all zeros on a healthy run.
    """
    resilience = stats.get("resilience", {})
    header = ("counter", "value")
    body = [(key, resilience[key]) for key in sorted(resilience)]
    storage = stats.get("storage")
    if storage:
        body.append(("committed epoch", storage.get("committed_epoch", 0)))
        body.append(
            ("ops since checkpoint", storage.get("ops_since_checkpoint", 0))
        )
        scrub = storage.get("last_scrub")
        if scrub is not None:
            body.append(
                (
                    "last scrub",
                    "ok" if scrub.get("ok")
                    else f"{scrub.get('errors', 0)} error(s), "
                         f"{scrub.get('warnings', 0)} warning(s)",
                )
            )
    return render_table(header, body)


def render_year_stats(rows: Sequence[YearStats]) -> str:
    """Table 1: per-year snapshot statistics."""
    header = ("year", "#snapshots", "total records", "new records",
              "new objects", "new record rate", "new object rate")
    body = [
        (
            row.year, row.snapshots, row.total_records, row.new_records,
            row.new_objects, f"{row.new_record_rate:.1%}",
            f"{row.new_object_rate:.1%}",
        )
        for row in rows
    ]
    if rows:
        total_records = sum(r.total_records for r in rows)
        new_records = sum(r.new_records for r in rows)
        new_objects = sum(r.new_objects for r in rows)
        body.append(
            (
                "total", sum(r.snapshots for r in rows), total_records,
                new_records, new_objects,
                f"{new_records / total_records:.1%}" if total_records else "0.0%",
                f"{new_objects / new_records:.1%}" if new_records else "0.0%",
            )
        )
    return render_table(header, body)


def render_removal_stats(rows: Sequence[RemovalStats]) -> str:
    """Table 2: duplicate-removal levels."""
    header = ("duplicate removal", "#records", "#dupl. pairs",
              "avg cluster size", "max", "records removed", "pairs removed")
    body = [
        (
            row.level.value, row.records, row.duplicate_pairs,
            f"{row.avg_cluster_size:.2f}", row.max_cluster_size,
            f"{row.removed_record_share:.1%}", f"{row.removed_pair_share:.1%}",
        )
        for row in rows
    ]
    return render_table(header, body)


def render_characteristics(rows: Sequence[DatasetCharacteristics]) -> str:
    """Table 3: dataset characteristics."""
    header = ("dataset", "#records", "#attributes", "#duplicate pairs",
              "#clusters", "#non-singletons", "max size", "avg size")
    body = [
        (
            row.name, row.records, row.attributes, row.duplicate_pairs,
            row.clusters, row.non_singletons, row.max_cluster_size,
            f"{row.avg_cluster_size:.2f}",
        )
        for row in rows
    ]
    return render_table(header, body)


def render_irregularities(census: IrregularityCensus) -> str:
    """Table 4: irregularity census with examples."""
    header = ("error type", "example", "most common attribute",
              "frequency", "percentage")
    body = []
    for row in census.counts():
        examples = census.examples(row.error_type)
        body.append(
            (
                row.error_type,
                examples[0] if examples else "",
                row.most_common_attribute,
                row.total,
                f"{row.percentage:.1%}",
            )
        )
    return render_table(header, body)


def render_comparison(
    datasets: Dict[str, IrregularityCensus], error_types: Sequence[str]
) -> str:
    """Side-by-side irregularity percentages across datasets."""
    names = list(datasets)
    header = ["error type"] + names
    body = []
    for error_type in error_types:
        row: List[str] = [error_type]
        for name in names:
            row.append(f"{datasets[name].count(error_type).percentage:.1%}")
        body.append(row)
    return render_table(header, body)
