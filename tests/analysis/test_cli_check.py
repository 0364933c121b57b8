"""Integration tests for the ``ncvoter-testdata check`` subcommand."""

import json

import pytest

from repro.cli import main


def run(capsys, *argv):
    code = main(["check", *argv])
    return code, capsys.readouterr().out


class TestCheckFilters:
    def test_unknown_operator_fails_with_hint(self, capsys):
        code, out = run(
            capsys, "--filter", '{"ncid": {"$regx": "^AA"}}'
        )
        assert code == 1
        assert "Q001" in out
        assert "did you mean '$regex'?" in out

    def test_unknown_field_path_fails_with_hint(self, capsys):
        code, out = run(
            capsys, "--filter", '{"records.person.last_nme": "SMITH"}'
        )
        assert code == 1
        assert "Q007" in out
        assert "records.person.last_name" in out

    def test_clean_filter_passes(self, capsys):
        code, out = run(
            capsys, "--filter", '{"records.person.last_name": {"$regex": "^A"}}'
        )
        assert code == 0
        assert "no problems found" in out

    def test_warning_only_exits_zero(self, capsys):
        code, out = run(capsys, "--filter", '{"ncid": {"$in": []}}')
        assert code == 0
        assert "Q005" in out and "1 warning(s)" in out


class TestCheckPipelines:
    def test_stage_order_hazard_fails(self, capsys):
        pipeline = [
            {"$project": {"ncid": 1}},
            {"$match": {"records.hash": "x"}},
        ]
        code, out = run(capsys, "--pipeline", json.dumps(pipeline))
        assert code == 1
        assert "P105" in out

    def test_spec_file_argument(self, capsys, tmp_path):
        spec = tmp_path / "pipeline.json"
        spec.write_text(json.dumps([{"$grup": {"_id": None}}]))
        code, out = run(capsys, "--pipeline", str(spec))
        assert code == 1
        assert "P101" in out and "did you mean '$group'?" in out

    def test_no_schema_skips_field_checks(self, capsys):
        code, out = run(
            capsys, "--no-schema", "--filter", '{"no.such.path": 1}'
        )
        assert code == 0


class TestCheckCustomization:
    def test_bad_spec_fails(self, capsys):
        spec = {"groups": ["persn"], "h_lo": 0.9, "h_hi": 0.1}
        code, out = run(capsys, "--customize", json.dumps(spec))
        assert code == 1
        assert "C201" in out and "C202" in out


class TestCheckStoreSchema:
    def test_schema_inferred_from_store(self, capsys, tmp_path):
        from repro.docstore import Database

        database = Database()
        database["things"].insert_many(
            [{"_id": 1, "size": 3, "tags": ["a"]}, {"_id": 2, "size": 5}]
        )
        database.save(tmp_path / "store")
        code, out = run(
            capsys,
            "--store", str(tmp_path / "store"),
            "--collection", "things",
            "--filter", '{"siez": {"$gte": 3}}',
        )
        assert code == 1
        assert "Q007" in out and "did you mean 'size'?" in out


class TestCheckErrors:
    def test_nothing_to_check(self):
        with pytest.raises(SystemExit):
            main(["check"])

    def test_invalid_json(self):
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["check", "--filter", "{broken"])


FIXTURES = "tests/analysis/fixtures/concurrency"


class TestCheckConcurrency:
    def test_clean_tree_exits_zero(self, capsys):
        code, out = run(capsys, "--concurrency", f"{FIXTURES}/good_worker.py")
        assert code == 0
        assert "no concurrency findings" in out

    def test_findings_exit_one_with_counts(self, capsys):
        code, out = run(capsys, "--concurrency", f"{FIXTURES}/bad_order.py")
        assert code == 1
        assert "R103" in out and "PYTHONHASHSEED" in out
        assert "1 finding(s) (R103: 1)" in out

    def test_json_report_is_written(self, capsys, tmp_path):
        report = tmp_path / "rcodes.json"
        code, out = run(
            capsys,
            "--concurrency", f"{FIXTURES}/bad_worker.py",
            "--json", str(report),
        )
        assert code == 1
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["clean"] is False
        assert payload["counts"] == {"R101": 1, "R102": 2, "R106": 1}

    def test_repo_source_tree_is_clean(self, capsys):
        code, out = run(capsys, "--concurrency", "src/repro")
        assert code == 0
        assert "no concurrency findings" in out


class TestStatsLayout:
    def test_layout_table_lists_collections(self, capsys, tmp_path):
        from repro.cli import main as cli_main
        from repro.docstore import Database

        database = Database()
        clusters = database["clusters"]
        clusters.insert_many(
            {"_id": i, "ncid": f"AA{i}", "records": [{"n": i}]} for i in range(9)
        )
        database["versions"].insert_one(
            {"_id": 1, "version": 1, "records": 9, "clusters": 9, "note": "seed"}
        )
        database.save(tmp_path / "store")
        code = cli_main(["stats", "--store", str(tmp_path / "store"), "--layout"])
        out = capsys.readouterr().out
        assert code == 0
        assert "storage layout:" in out
        assert "quarantined" in out
        assert "clusters" in out and "versions" in out
