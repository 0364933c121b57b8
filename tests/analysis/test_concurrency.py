"""Tests for the R-code concurrency/determinism analyzer.

The fixture corpus under ``fixtures/concurrency/`` pins down exact codes,
locations and messages; inline sources cover suppressions and the
exemption registry.
"""

import importlib
import json
from pathlib import Path

from repro.analysis.concurrency import (
    PROCESS_LOCAL_CACHES,
    R_CODES,
    analyze_concurrency,
    analyze_concurrency_sources,
    write_json_report,
)

FIXTURES = Path(__file__).parent / "fixtures" / "concurrency"


def analyze_fixture(name):
    return analyze_concurrency([FIXTURES / f"{name}.py"])


def findings_of(name):
    return [
        (d.code, d.severity, d.path.rpartition("/")[2], d.message)
        for d in analyze_fixture(name).all_findings
    ]


class TestFixtureCorpus:
    def test_bad_worker(self):
        report = analyze_fixture("bad_worker")
        assert report.counts() == {"R101": 1, "R102": 2, "R106": 1}
        locations = {(d.code, d.path.rpartition("/")[2]) for d in report.findings}
        assert locations == {
            ("R101", "bad_worker.py:19:0"),
            ("R106", "bad_worker.py:19:0"),
            ("R102", "bad_worker.py:20:0"),
            ("R102", "bad_worker.py:21:0"),
        }
        (r101,) = [d for d in report.findings if d.code == "R101"]
        assert r101.message == (
            "worker 'work' mutates module global 'bad_worker.TOTALS'; the "
            "mutation is invisible to the parent process and makes retried "
            "shards non-reproducible"
        )
        rng, clock = [d for d in report.findings if d.code == "R102"]
        assert "worker 'work' calls random.random" in rng.message
        assert "worker 'work' calls time.time" in clock.message

    def test_bad_param_flags_transitive_argument_mutation(self):
        report = analyze_fixture("bad_param")
        assert report.counts() == {"R101": 1}
        (finding,) = report.findings
        assert finding.path.endswith("bad_param.py:17:0")
        assert finding.message == (
            "worker 'accumulate' mutates its argument 'items'; retried and "
            "in-process-degraded workers would see the mutated value"
        )

    def test_bad_order(self):
        report = analyze_fixture("bad_order")
        assert report.counts() == {"R103": 1}
        (finding,) = report.findings
        assert finding.path.endswith("bad_order.py:12:0")
        assert "order-sensitive sink (list append)" in finding.message
        assert "PYTHONHASHSEED" in finding.message

    def test_bad_docstore(self):
        report = analyze_fixture("bad_docstore")
        assert report.counts() == {"R105": 1}
        (r105,) = report.findings
        assert r105.path.endswith("bad_docstore.py:11:0")
        assert "'_documents'" in r105.message
        assert "bypasses the WAL journal" in r105.message

    def test_good_worker_is_clean(self):
        report = analyze_fixture("good_worker")
        assert report.all_findings == []

    def test_suppressions(self):
        report = analyze_fixture("suppressed")
        # The R103 is silenced by its inline comment ...
        assert [d.code for d in report.suppressed] == ["R103"]
        # ... and the stale comment is itself reported as R100.
        assert report.counts() == {"R100": 1}
        (stale,) = report.unused_suppressions
        assert stale.path.endswith("suppressed.py:18:0")
        assert "`# repro: ignore[R101]`" in stale.message

    def test_whole_corpus_counts(self):
        report = analyze_concurrency([FIXTURES])
        assert report.counts() == {
            "R100": 1,
            "R101": 2,
            "R102": 2,
            "R103": 1,
            "R105": 1,
            "R106": 1,
        }

    def test_messages_name_no_internal_jargon(self):
        report = analyze_concurrency([FIXTURES])
        for finding in report.all_findings:
            assert "did you mean" not in finding.message
            assert finding.hint, finding


class TestExemptionRegistry:
    CACHE_MODULE = (
        "CACHE = {}\n"
        "def remember(key, value):\n"
        "    CACHE[key] = value\n"
        "    return value\n"
    )

    def analyze(self, exemptions):
        sources = [(self.CACHE_MODULE, Path("cachemod.py"), "cachemod")]
        return analyze_concurrency_sources(sources, exemptions=exemptions)

    def test_unregistered_cache_fires_r106(self):
        report = self.analyze(exemptions={})
        assert report.counts() == {"R106": 1}
        (finding,) = report.findings
        assert "'cachemod.CACHE'" in finding.message
        assert "PROCESS_LOCAL_CACHES" in finding.hint

    def test_registered_cache_is_exempt(self):
        report = self.analyze(exemptions={"cachemod.CACHE": "process-local"})
        assert report.all_findings == []

    def test_parallel_state_needs_its_registry_entries(self):
        # The registry is load-bearing: without it, the module-level
        # warn-once set and resilience counters in repro.core.parallel
        # are (correctly) detected.
        parallel = Path("src/repro/core/parallel.py")
        assert parallel.is_file()
        with_registry = analyze_concurrency([parallel])
        assert with_registry.all_findings == []
        without = analyze_concurrency([parallel], exemptions={})
        assert without.counts() == {"R106": 2}

    def test_registry_entries_point_at_real_objects(self):
        for qualified, invariant in PROCESS_LOCAL_CACHES.items():
            module_name, _, attribute = qualified.rpartition(".")
            module = importlib.import_module(module_name)
            assert hasattr(module, attribute), qualified
            assert invariant.strip(), qualified


class TestReportShape:
    def test_json_report(self, tmp_path):
        out = tmp_path / "rcodes.json"
        write_json_report(analyze_fixture("bad_order"), out)
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["version"] == 1
        assert payload["codes"] == R_CODES
        assert payload["clean"] is False
        assert payload["counts"] == {"R103": 1}
        (finding,) = payload["findings"]
        assert finding["code"] == "R103"
        assert finding["severity"] == "error"

    def test_clean_json_report(self, tmp_path):
        out = tmp_path / "rcodes.json"
        write_json_report(analyze_fixture("good_worker"), out)
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["clean"] is True
        assert payload["findings"] == []

    def test_docstring_examples_are_not_suppressions(self):
        source = (
            '"""Docs show ``# repro: ignore[R103]`` without using it."""\n'
            "def f(values):\n"
            "    return sorted(values)\n"
        )
        report = analyze_concurrency_sources([(source, Path("docmod.py"), "docmod")])
        assert report.all_findings == []
