"""The repo-wide concurrency gate: ``src/repro`` must stay R-code clean.

This is the pytest face of ``make lint-concurrency``: zero unsuppressed
findings (errors *and* warnings), and every inline suppression in the tree
must still be load-bearing (stale ones surface as R100 and fail here too).
"""

import ast
import functools
from pathlib import Path

import pytest

from repro.analysis.concurrency import (
    analyze_concurrency,
    analyze_concurrency_sources,
)

ROOT = Path(__file__).resolve().parents[2]


def _analyze_src():
    return analyze_concurrency([ROOT / "src" / "repro"])


class TestRepoIsConcurrencyClean:
    def test_no_unsuppressed_findings(self):
        report = _analyze_src()
        rendered = "\n".join(d.render() for d in report.all_findings)
        assert not report.all_findings, f"new R-code findings:\n{rendered}"

    def test_every_suppression_is_used(self):
        report = _analyze_src()
        stale = [d.render() for d in report.unused_suppressions]
        assert not stale, "stale suppressions:\n" + "\n".join(stale)

    def test_parallel_entry_points_are_analyzed(self):
        # Guard against the gate silently passing because the analyzer
        # stopped seeing the parallel paths it exists to protect.
        report = _analyze_src()
        functions = report.effects.functions
        assert "repro.core.parallel.run_shards" in functions
        assert "repro.core.parallel._score_shard" in functions
        assert "repro.dedup.pipeline._score_pairs_shard" in functions


# ------------------------------------------------------------- mutation checks
#
# Each case injects a one-line hazard into the real ``src/repro`` sources
# (in memory) and asserts that exactly its code fires at exactly that line:
# the gate above is only worth something if the analyzer still sees these
# hazards in the tree it guards.

PACKAGE = ROOT / "src" / "repro"


@functools.lru_cache(maxsize=1)
def _tree_sources():
    return tuple(
        (path.read_text(encoding="utf-8"), path)
        for path in sorted(PACKAGE.rglob("*.py"))
    )


def _with_source(target, edit):
    """The tree's ``(source, path, module)`` triples with ``target``'s
    source replaced by ``edit(source)``, and the line ``edit`` reports."""
    sources, line = [], None
    for source, path in _tree_sources():
        if path == PACKAGE / target:
            source, line = edit(source)
        sources.append((source, path, None))
    assert line is not None, target
    return sources, line


def _inject_into(function, lines, flagged):
    """Prepend ``lines`` to the body of top-level ``function`` (after its
    docstring); the flagged line is ``lines[flagged]``."""

    def edit(source):
        (node,) = [
            node
            for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name == function
        ]
        body = node.body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        anchor = body[0]
        indent = " " * anchor.col_offset
        text = source.splitlines(keepends=True)
        text[anchor.lineno - 1 : anchor.lineno - 1] = [
            f"{indent}{line}\n" for line in lines
        ]
        return "".join(text), anchor.lineno + flagged

    return edit


def _append(lines, flagged):
    """Append ``lines`` at module level; the flagged line is
    ``lines[flagged]``."""

    def edit(source):
        head = source.rstrip("\n")
        first = len(head.splitlines()) + 3
        return head + "\n\n\n" + "\n".join(lines) + "\n", first + flagged

    return edit


MUTATIONS = {
    "R101-worker-mutates-its-argument": (
        "R101",
        "core/parallel.py",
        _inject_into("_score_shard", ["clusters.append({})"], 0),
    ),
    "R102-worker-reads-the-environment": (
        "R102",
        "core/parallel.py",
        _inject_into("_import_shard", ['os.environ.get("X")'], 0),
    ),
    "R102-worker-draws-from-a-local-import": (
        "R102",
        "dedup/pipeline.py",
        _inject_into(
            "_score_pairs_shard", ["import random", "_noise = random.random()"], 1
        ),
    ),
    "R103-set-iteration-feeds-a-list": (
        "R103",
        "core/generator.py",
        _append(
            [
                "def _probe_order(values):",
                "    out = []",
                "    for v in set(values):",
                "        out.append(v)",
                "    return out",
            ],
            2,
        ),
    ),
    "R105-journal-bypassing-write": (
        "R105",
        "core/generator.py",
        _append(
            ["def _probe_store(collection, doc):", "    collection._documents[1] = doc"],
            1,
        ),
    ),
    "R106-unregistered-module-cache": (
        "R106",
        "dedup/matching.py",
        _append(["_SEEN = {}", "def _probe_seen(key):", "    _SEEN[key] = True"], 2),
    ),
    "R100-suppression-on-a-clean-line": (
        "R100",
        "core/generator.py",
        _append(["_PROBE = 1  # repro: ignore[R103]"], 0),
    ),
}


@pytest.mark.parametrize("case", sorted(MUTATIONS))
def test_injected_hazard_fires_exactly_its_code(case):
    code, target, edit = MUTATIONS[case]
    sources, line = _with_source(target, edit)
    report = analyze_concurrency_sources(sources)
    found = [
        (d.code, d.path.rsplit(":", 2)[0], int(d.path.rsplit(":", 2)[1]))
        for d in report.all_findings
    ]
    assert found == [(code, str(PACKAGE / target), line)]
