"""Self-tests of the pipeline benchmark, at a tiny register size.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]
TINY = ["--voters", "60", "--seconds", "0.5"]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


_RUNS: dict = {}


def bench(workload: str, trace: int, seed: int = 5) -> tuple:
    """(exit code, stdout lines, result, stderr) of a tiny run, cached per test run."""
    key = (workload, trace, seed)
    if key not in _RUNS:
        done = _run(ROOT, "--workload", workload, "--seed", str(seed), "--trace", str(trace), *TINY)
        lines = done.stdout.strip().splitlines()
        _RUNS[key] = (done.returncode, lines, json.loads(lines[-1]) if lines else None, done.stderr)
    return _RUNS[key]


def _line(lines, prefix: str) -> dict:
    return json.loads(next(line for line in lines if line.startswith(prefix))[len(prefix):])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    code, _lines, result, stderr = bench(workload, trace)
    assert code == 0, stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_self_times_account_for_the_traced_wall_time(workload):
    code, _lines, _result, stderr = bench(workload, 1)
    assert code == 0, stderr
    spans = json.loads((ROOT / ".perfbench" / f"trace-{workload}-s5.json").read_text())
    by_run: dict = {}
    for span in spans:
        by_run.setdefault(span["run"], []).append(span)
    assert by_run
    for run_spans in by_run.values():
        own = tracing.self_times(run_spans)
        assert min(own.values()) >= -1e-9
        (root,) = [s for s in run_spans if s["name"] == tracing.ROOT]
        wall = root["end"] - root["start"]
        assert sum(own.values()) <= wall + 1e-6
        assert sum(own.values()) == pytest.approx(wall, rel=1e-9, abs=1e-9)


def test_self_times_subtract_children():
    spans = [
        {"id": 0, "name": "workload", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "a", "start": 1.0, "end": 4.0, "parent": 0},
        {"id": 2, "name": "b", "start": 2.0, "end": 3.0, "parent": 1},
    ]
    assert tracing.self_times(spans) == {0: 7.0, 1: 2.0, 2: 1.0}


def test_missing_wrapper_target_is_dropped_with_a_note():
    tracer = tracing.Tracer("t")
    tracer._patch("x.gone_s", "repro.core.generator:TestDataGenerator.no_such_method", lambda f: f)
    assert tracer.missing == ["x.gone_s"]
    assert "dropped x.gone_s" in tracer.notes[0]


def _scored_pairs():
    from repro.datasets.io import load_dataset
    from repro.dedup import DetectionPipeline, RecordMatcher
    from repro.textsim import MongeElkan

    bench("evaluate", 0)
    cuts = sorted((ROOT / ".perfbench" / "inputs").glob("v60-*-s5/cuts"))[0]
    dataset = load_dataset(cuts / "nc3.csv")
    records, attributes = dataset.records, list(dataset.attributes)
    pipeline = DetectionPipeline(window=20, passes=5)
    keys, _stats = pipeline.candidates(records, attributes)
    matcher = RecordMatcher.from_records(
        records, attributes, MongeElkan(), ("first_name", "midl_name", "last_name")
    )
    return records, pipeline.score(records, keys, matcher), matcher


def test_output_check_fails_when_one_similarity_is_perturbed():
    records, similarities, matcher = _scored_pairs()
    assert checks.check_similarities(records, similarities, matcher, seed=5) == []
    pair = checks.sample_keys(similarities, seed=5)[0]
    perturbed = dict(similarities)
    perturbed[pair] = similarities[pair] + 1e-12
    errors = checks.check_similarities(records, perturbed, matcher, seed=5)
    assert len(errors) == 1 and str(pair[0]) in errors[0]


def test_same_seed_same_digests_and_another_seed_other_inputs():
    first = bench("evaluate", 0, seed=5)[1]
    again = _run(ROOT, "--workload", "evaluate", "--seed", "5", "--trace", "0", *TINY)
    other = bench("evaluate", 0, seed=6)[1]
    again_lines = again.stdout.strip().splitlines()
    assert _line(again_lines, "perfbench digests ") == _line(first, "perfbench digests ")
    assert _line(again_lines, "perfbench env ")["inputs"] == _line(first, "perfbench env ")["inputs"]
    assert _line(other, "perfbench env ")["inputs"] != _line(first, "perfbench env ")["inputs"]


def test_without_program_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
