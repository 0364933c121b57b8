"""Tests for the command-line interface (full workflow on tmp dirs)."""

import csv

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """simulate + generate once; downstream commands reuse the store."""
    root = tmp_path_factory.mktemp("cli")
    snaps = root / "snaps"
    store = root / "store"
    assert main([
        "simulate", "--out", str(snaps), "--voters", "120", "--years", "3",
        "--seed", "3",
    ]) == 0
    assert main([
        "generate", "--snapshots", str(snaps), "--store", str(store),
    ]) == 0
    return root, snaps, store


class TestSimulate:
    def test_writes_tsvs(self, workspace):
        _root, snaps, _store = workspace
        paths = list(snaps.glob("*.tsv"))
        assert len(paths) == 6
        header = paths[0].read_text().splitlines()[0]
        assert header.startswith("ncid\t")


class TestGenerate:
    def test_store_created_with_collections(self, workspace):
        _root, _snaps, store = workspace
        assert (store / "manifest.json").exists()
        assert (store / "clusters.jsonl").exists()
        assert (store / "versions.jsonl").exists()
        assert (store / "import_stats.jsonl").exists()

    def test_removal_level_option(self, workspace, tmp_path):
        _root, snaps, _store = workspace
        person_store = tmp_path / "person-store"
        assert main([
            "generate", "--snapshots", str(snaps), "--store", str(person_store),
            "--removal", "person",
        ]) == 0
        trimmed_store = workspace[2]
        assert _store_records(person_store) < _store_records(trimmed_store)


class TestStats:
    def test_prints_summary(self, workspace, capsys):
        _root, _snaps, store = workspace
        assert main(["stats", "--store", str(store)]) == 0
        output = capsys.readouterr().out
        assert "clusters:" in output
        assert "version 1:" in output
        assert "new records" in output

    def test_empty_store_fails(self, tmp_path, capsys):
        from repro.docstore import Database

        empty = Database("empty")
        empty.create_collection("clusters")
        empty.create_collection("versions")
        empty.save(tmp_path / "empty")
        assert main(["stats", "--store", str(tmp_path / "empty")]) == 1


class TestCustomizeAndEvaluate:
    def test_round_trip(self, workspace, capsys):
        root, _snaps, store = workspace
        out = root / "nc.csv"
        assert main([
            "customize", "--store", str(store), "--out", str(out),
            "--h-lo", "0.0", "--h-hi", "0.6", "--clusters", "30",
        ]) == 0
        gold = out.with_suffix(".gold.csv")
        assert out.exists() and gold.exists()

        with out.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][:2] == ["record_id", "cluster_id"]
        assert len(rows) > 1

        capsys.readouterr()
        assert main(["evaluate", "--dataset", str(out)]) == 0
        output = capsys.readouterr().out
        assert "best F1" in output
        assert "ME/Lev" in output

    def test_invalid_range_rejected(self, workspace, capsys):
        root, _snaps, store = workspace
        with pytest.raises(SystemExit) as exit_info:
            main([
                "customize", "--store", str(store),
                "--out", str(root / "x.csv"), "--h-lo", "0.9", "--h-hi", "0.1",
            ])
        assert exit_info.value.code == 2
        assert "argument --h-lo: must be <= --h-hi (0.1), got 0.9" in capsys.readouterr().err


class TestGoldFileValidation:
    """``--gold`` rows are canonicalised and range-checked at the CLI."""

    @pytest.fixture(scope="class")
    def dataset(self, workspace):
        root, _snaps, store = workspace
        out = root / "gold-check.csv"
        assert main([
            "customize", "--store", str(store), "--out", str(out),
            "--h-lo", "0.0", "--h-hi", "1.0", "--clusters", "20",
        ]) == 0
        return out

    @staticmethod
    def _write_gold(path, rows):
        with path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["left", "right"])
            writer.writerows(rows)
        return path

    def test_reversed_rows_match_canonical(self, dataset, tmp_path, capsys):
        gold = dataset.with_suffix(".gold.csv")
        with gold.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))[1:]
        assert rows
        reversed_gold = self._write_gold(
            tmp_path / "reversed.csv", [(right, left) for left, right in rows]
        )
        capsys.readouterr()
        assert main(["evaluate", "--dataset", str(dataset), "--gold", str(gold)]) == 0
        canonical = capsys.readouterr().out
        assert "(0 gold lost)" in canonical
        assert main([
            "evaluate", "--dataset", str(dataset), "--gold", str(reversed_gold),
        ]) == 0
        assert capsys.readouterr().out == canonical

    @pytest.mark.parametrize("command", ["evaluate", "detect"])
    @pytest.mark.parametrize(
        "row, reason",
        [
            (("3", "3"), "self-pair"),
            (("0", "1000000"), "outside range"),
            (("-1", "2"), "outside range"),
            (("0", "x"), "two integer record ids"),
        ],
    )
    def test_invalid_rows_exit_one(self, dataset, tmp_path, capsys, command, row, reason):
        bad = self._write_gold(tmp_path / "bad.csv", [("0", "1"), row])
        capsys.readouterr()
        assert main([command, "--dataset", str(dataset), "--gold", str(bad)]) == 1
        output = capsys.readouterr().out
        assert "invalid --gold file" in output
        assert reason in output


def _store_records(store) -> int:
    from repro.docstore import Database

    database = Database.load(store)
    result = database["clusters"].aggregate(
        [
            {"$addFields": {"size": {"$size": "$records"}}},
            {"$group": {"_id": None, "records": {"$sum": "$size"}}},
        ]
    )
    return result[0]["records"] if result else 0


class TestEvaluatePasses:
    """``evaluate --passes`` takes the pass families ``detect`` takes."""

    @pytest.fixture(scope="class")
    def dataset(self, workspace):
        root, _snaps, store = workspace
        out = root / "passes.csv"
        assert main([
            "customize", "--store", str(store), "--out", str(out),
            "--h-lo", "0.0", "--h-hi", "1.0", "--clusters", "40",
        ]) == 0
        return out

    @staticmethod
    def _candidates(dataset, **options):
        from repro.datasets.io import load_dataset
        from repro.dedup import DetectionPipeline

        loaded = load_dataset(dataset)
        keys, stats = DetectionPipeline(**options).candidates(
            loaded.records, list(loaded.attributes)
        )
        return loaded, keys, stats

    def test_integer_passes_output_unchanged(self, dataset, capsys):
        loaded, keys, _stats = self._candidates(dataset, passes=5)
        count = len(loaded.records)
        lost = sum(1 for left, right in loaded.gold_pairs if left * count + right not in keys)
        capsys.readouterr()
        assert main(["evaluate", "--dataset", str(dataset), "--passes", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            f"{count} records, {len(loaded.gold_pairs)} gold pairs, "
            f"{len(keys)} candidates ({lost} gold lost)"
        )
        assert [line.split()[0] for line in lines[1:]] == [
            "ME/Lev", "JaroWinkler", "Jaccard-3grams",
        ]
        assert main(["evaluate", "--dataset", str(dataset)]) == 0
        assert capsys.readouterr().out.splitlines() == lines

    @pytest.mark.parametrize(
        "passes, families", [("lsh", ("lsh",)), ("snm+lsh", ("snm", "lsh"))]
    )
    def test_pass_families_report_per_pass_counts(self, dataset, capsys, passes, families):
        loaded, keys, stats = self._candidates(dataset, candidate_passes=families)
        capsys.readouterr()
        assert main(["evaluate", "--dataset", str(dataset), "--passes", passes]) == 0
        output = capsys.readouterr().out
        assert output.startswith(stats.render() + "\n")
        pass_lines = [line for line in output.splitlines() if line.startswith("pass ")]
        assert len(pass_lines) == len(stats.passes)
        assert pass_lines[-1].startswith("pass lsh: ")
        summary = output.splitlines()[len(stats.render().splitlines())]
        assert summary.startswith(f"{len(loaded.records)} records, ")
        assert f"{len(keys)} candidates (" in summary
        assert output.count("best F1") == 3

    def test_invalid_passes_rejected(self, dataset):
        with pytest.raises(SystemExit):
            main(["evaluate", "--dataset", str(dataset), "--passes", "bogus"])

    def test_detect_reports_skipped_buckets_once(self, dataset, capsys):
        _loaded, _keys, stats = self._candidates(
            dataset, candidate_passes=("lsh",), max_bucket_size=2
        )
        (lsh_pass,) = stats.passes
        buckets = lsh_pass.buckets
        assert buckets.buckets_skipped > 0
        capsys.readouterr()
        assert main([
            "detect", "--dataset", str(dataset), "--passes", "lsh", "--max-bucket", "2",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [
            f"pass lsh: {lsh_pass.pairs_emitted} pairs, {lsh_pass.pairs_new} new",
            f"  lsh buckets: {buckets.buckets_total} (max size {buckets.max_bucket}) "
            f"[SKIPPED {buckets.buckets_skipped} oversized bucket(s), "
            f"{buckets.pairs_dropped} pairs dropped]",
        ]
        assert lines[3] == (
            f"WARNING: {buckets.pairs_dropped} candidate pair(s) dropped in LSH "
            "buckets over --max-bucket 2"
        )


class TestWorkerAndShardFlags:
    """``--workers``/``--shards`` spread the work; they never change output.

    They and the other integer flags reject out-of-range values as usage
    errors naming the flag, before any input is read.
    """

    @pytest.mark.parametrize(
        "flag, value, message, command",
        [
            ("--workers", "-1", "must be >= 0, got -1", "generate"),
            ("--workers", "-1", "must be >= 0, got -1", "detect"),
            ("--shards", "0", "must be >= 1, got 0", "generate"),
            ("--shards", "0", "must be >= 1, got 0", "detect"),
            ("--shards", "x", "expected an integer, got 'x'", "generate"),
            ("--shards", "x", "expected an integer, got 'x'", "detect"),
            ("--voters", "0", "must be >= 1, got 0", "simulate"),
            ("--years", "0", "must be >= 1, got 0", "simulate"),
            ("--snapshots-per-year", "0", "must be >= 1, got 0", "simulate"),
            ("--fsync-batch", "-1", "must be >= 0, got -1", "generate"),
            ("--clusters", "-3", "must be >= 1, got -3", "customize"),
            ("--window", "1", "must be >= 2, got 1", "evaluate"),
            ("--window", "0", "must be >= 2, got 0", "detect"),
            ("--bands", "0", "must be >= 1, got 0", "detect"),
            ("--rows", "0", "must be >= 1, got 0", "detect"),
            ("--ngram", "0", "must be >= 1, got 0", "detect"),
            ("--max-bucket", "1", "must be >= 2, got 1", "detect"),
            ("--duplicates", "-1", "must be >= 1, got -1", "augment"),
        ],
    )
    def test_invalid_counts_are_usage_errors(
        self, tmp_path, capsys, flag, value, message, command
    ):
        missing = str(tmp_path / "missing")  # argparse rejects before reading
        inputs = {
            "simulate": ["--out", missing],
            "generate": ["--snapshots", missing, "--store", missing],
            "customize": ["--store", missing, "--out", missing],
            "evaluate": ["--dataset", missing],
            "detect": ["--dataset", missing, "--passes", "lsh"],
            "augment": ["--store", missing],
        }[command]
        with pytest.raises(SystemExit) as exit_info:
            main([command, *inputs, flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, options, message",
        [
            ("customize", ("--h-lo", "0.5", "--h-hi", "0.2"),
             "argument --h-lo: must be <= --h-hi (0.2), got 0.5"),
            ("customize", ("--h-hi", "1.5"),
             "argument --h-hi: must be a finite number in [0, 1], got 1.5"),
            ("customize", ("--h-lo", "nan"),
             "argument --h-lo: must be a finite number in [0, 1], got nan"),
            ("customize", ("--h-lo", "x"), "argument --h-lo: expected a number, got 'x'"),
            ("detect", ("--threshold", "nan"),
             "argument --threshold: must be a finite number in [0, 1], got nan"),
            ("augment", ("--share", "1.5"),
             "argument --share: must be a finite number in [0, 1], got 1.5"),
            ("augment", ("--errors", "-3"),
             "argument --errors: must be a finite number >= 0, got -3"),
            ("augment", ("--errors", "inf"),
             "argument --errors: must be a finite number >= 0, got inf"),
            ("repair", ("--threshold", "7"),
             "argument --threshold: must be a finite number in [0, 1], got 7"),
            ("repair", ("--threshold", "nan"),
             "argument --threshold: must be a finite number in [0, 1], got nan"),
        ],
    )
    def test_invalid_numbers_are_usage_errors(
        self, tmp_path, capsys, command, options, message
    ):
        missing = str(tmp_path / "missing")  # argparse rejects before reading
        inputs = {
            "customize": ["--store", missing, "--out", missing],
            "detect": ["--dataset", missing, "--passes", "lsh"],
            "augment": ["--store", missing],
            "repair": ["--store", missing],
        }[command]
        with pytest.raises(SystemExit) as exit_info:
            main([command, *inputs, *options])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_generate_stats_same_clusters_for_any_workers(self, workspace, tmp_path):
        from repro.docstore import Database

        _root, snaps, _store = workspace
        clusters = []
        for name, options in (
            ("in-process", ["--workers", "0"]),
            ("pooled", ["--workers", "2", "--shards", "3"]),
        ):
            store = tmp_path / name
            assert main([
                "generate", "--snapshots", str(snaps), "--store", str(store),
                "--stats", *options,
            ]) == 0
            clusters.append(list(Database.load(store)["clusters"].all()))
        assert any(
            record.get("heterogeneity")
            for cluster in clusters[0]
            for record in cluster["records"]
        )
        assert clusters[0] == clusters[1]

    def test_detect_same_report_for_any_workers(self, workspace, capsys):
        root, _snaps, store = workspace
        dataset = root / "workers.csv"
        assert main([
            "customize", "--store", str(store), "--out", str(dataset),
            "--h-lo", "0.0", "--h-hi", "1.0", "--clusters", "40",
        ]) == 0
        reports = []
        for options in (["--workers", "0"], ["--workers", "2", "--shards", "3"]):
            capsys.readouterr()
            assert main([
                "detect", "--dataset", str(dataset), "--passes", "snm+lsh",
                *options,
            ]) == 0
            reports.append(capsys.readouterr().out)
        assert "pass lsh: " in reports[0]
        assert reports[0] == reports[1]


class TestAugmentCommand:
    def test_augment_grows_store(self, workspace, capsys):
        root, _snaps, store = workspace
        before = _store_records(store)
        assert main([
            "augment", "--store", str(store), "--share", "1.0",
            "--duplicates", "1", "--seed", "5",
        ]) == 0
        output = capsys.readouterr().out
        assert "synthetic records" in output
        assert _store_records(store) > before

    def test_augmented_store_still_loads(self, workspace):
        _root, _snaps, store = workspace
        from repro.docstore import Database

        database = Database.load(store)
        synthetic = database["clusters"].aggregate(
            [
                {"$unwind": "$records"},
                {"$match": {"records.synthetic": True}},
                {"$count": "n"},
            ]
        )
        assert synthetic and synthetic[0]["n"] > 0


class TestRepairCommand:
    @pytest.fixture()
    def unsound_store(self, tmp_path):
        """A store containing one cluster with two different people."""
        from repro.core import RemovalLevel, TestDataGenerator
        from repro.votersim.schema import empty_record
        from repro.votersim.snapshots import Snapshot

        def rec(ncid, first, last, sex, age):
            record = empty_record()
            record.update(
                ncid=ncid, first_name=first, last_name=last,
                sex_code=sex, sex="", age=age, snapshot_dt="2012-01-01",
            )
            return record

        generator = TestDataGenerator(removal=RemovalLevel.TRIMMED)
        generator.import_snapshot(
            Snapshot("2012-01-01", [
                rec("X1", "MARY", "FIELDS", "F", "61"),
                rec("X1", "JOSHUA", "BETHEA", "M", "93"),
                rec("X2", "ANNA", "SMITH", "F", "30"),
                rec("X2", "ANNA", "SMYTH", "F", "31"),
            ])
        )
        generator.publish("fixture")
        store = tmp_path / "store"
        generator.database.save(store)
        return store

    def test_report_only(self, unsound_store, capsys):
        assert main(["repair", "--store", str(unsound_store)]) == 0
        output = capsys.readouterr().out
        assert "X1" in output
        assert "split into 2 groups" in output
        assert "X2" not in output  # sound cluster not reported

    def test_apply_splits_store(self, unsound_store, capsys):
        assert main([
            "repair", "--store", str(unsound_store), "--apply",
        ]) == 0
        from repro.docstore import Database

        database = Database.load(unsound_store)
        ids = {doc["_id"] for doc in database["clusters"].all()}
        assert "X1" not in ids
        assert {"X1/0", "X1/1", "X2"} <= ids


class TestValidateCommand:
    def test_sound_store_passes(self, workspace, capsys):
        _root, _snaps, store = workspace
        assert main(["validate", "--store", str(store)]) == 0
        assert "store is sound" in capsys.readouterr().out

    def test_tampered_store_fails(self, workspace, tmp_path, capsys):
        _root, snaps, _store = workspace
        tampered = tmp_path / "tampered"
        assert main([
            "generate", "--snapshots", str(snaps), "--store", str(tampered),
        ]) == 0
        from repro.docstore import Database

        database = Database.load(tampered)
        first = database["clusters"].find_one({})
        database["clusters"].update_one(
            {"_id": first["_id"]},
            {"$set": {"records.0.person.last_name": "TAMPERED"}},
        )
        database.save(tampered)
        capsys.readouterr()
        assert main(["validate", "--store", str(tampered)]) == 1
        assert "VIOLATION" in capsys.readouterr().out


class TestDurableGenerate:
    def test_durable_store_has_wal_and_epoch(self, workspace, tmp_path, capsys):
        _root, snaps, _store = workspace
        store = tmp_path / "durable"
        assert main([
            "generate", "--snapshots", str(snaps), "--store", str(store),
            "--durable",
        ]) == 0
        assert (store / "COMMITTED").exists()
        assert (store / "clusters.wal").exists()
        assert (store / "manifest.json").exists()
        assert "published version" in capsys.readouterr().out

    def test_rerun_resumes_without_reimporting(self, workspace, tmp_path, capsys):
        _root, snaps, _store = workspace
        store = tmp_path / "durable"
        assert main([
            "generate", "--snapshots", str(snaps), "--store", str(store),
            "--durable",
        ]) == 0
        capsys.readouterr()
        assert main([
            "generate", "--snapshots", str(snaps), "--store", str(store),
            "--durable",
        ]) == 0
        output = capsys.readouterr().out
        assert "already committed" in output

    def test_crash_and_resume_keep_every_table1_row(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        """A crash after four of six snapshots loses no ``import_stats`` row."""
        from repro.core.generator import TestDataGenerator
        from repro.docstore import Database
        from repro.faults import CrashError

        _root, snaps, _store = workspace
        whole, resumed = tmp_path / "whole", tmp_path / "resumed"
        assert main([
            "generate", "--snapshots", str(snaps), "--store", str(whole), "--durable",
        ]) == 0
        imported = []
        original = TestDataGenerator.import_snapshot

        def crash_on_fifth(generator, snapshot):
            imported.append(snapshot.date)
            if len(imported) == 5:
                raise CrashError("process died while importing the fifth snapshot")
            return original(generator, snapshot)

        with monkeypatch.context() as patch:
            patch.setattr(TestDataGenerator, "import_snapshot", crash_on_fifth)
            with pytest.raises(CrashError):
                main([
                    "generate", "--snapshots", str(snaps), "--store", str(resumed),
                    "--durable",
                ])
        capsys.readouterr()
        assert main(["stats", "--store", str(resumed)]) == 1
        assert f"Table 1 lacks 4 committed snapshot(s): {', '.join(imported[:4])}" in (
            capsys.readouterr().out
        )
        assert main([
            "generate", "--snapshots", str(snaps), "--store", str(resumed), "--durable",
        ]) == 0
        assert "resuming: 4 snapshot(s) already committed" in capsys.readouterr().out

        def table1(store):
            rows = Database.load(store)["import_stats"].find(sort=[("snapshot_date", 1)])
            return [{key: row[key] for key in row if key != "_id"} for row in rows]

        assert len(table1(whole)) == 6
        assert table1(resumed) == table1(whole)
        assert main(["stats", "--store", str(resumed)]) == 0
        assert "Table 1 lacks" not in capsys.readouterr().out

    def test_durable_matches_plain_generate(self, workspace, tmp_path):
        _root, snaps, _store = workspace
        durable = tmp_path / "durable"
        plain = tmp_path / "plain"
        assert main([
            "generate", "--snapshots", str(snaps), "--store", str(durable),
            "--durable",
        ]) == 0
        assert main([
            "generate", "--snapshots", str(snaps), "--store", str(plain),
        ]) == 0
        assert _store_records(durable) == _store_records(plain)


class TestWritesOnDurableStore:
    """``augment`` and ``repair --apply`` keep a durable store's logs whole."""

    @pytest.mark.parametrize("command", [
        ["augment", "--share", "1.0", "--seed", "5"],
        ["repair", "--apply", "--threshold", "0.95"],
    ], ids=["augment", "repair-apply"])
    def test_store_stays_clean(self, workspace, tmp_path, capsys, command):
        _root, snaps, _store = workspace
        store = tmp_path / "durable"
        assert main([
            "generate", "--snapshots", str(snaps), "--store", str(store),
            "--durable", "--stats",
        ]) == 0
        before = _store_records(store)
        capsys.readouterr()
        assert main([command[0], "--store", str(store), *command[1:]]) == 0
        output = capsys.readouterr().out
        assert "store saved" in output or "synthetic records" in output
        assert main(["stats", "--store", str(store)]) == 0
        output = capsys.readouterr().out
        assert "store is damaged" not in output
        assert "version 1:" in output
        assert main(["scrub", "--store", str(store)]) == 0
        assert "no problems found" in capsys.readouterr().out
        if command[0] == "augment":
            assert _store_records(store) > before
        else:
            from repro.docstore import Database

            ids = [doc["_id"] for doc in Database.load(store)["clusters"].all()]
            assert any(ncid.endswith("/0") for ncid in ids)


class TestScrubCommand:
    @pytest.fixture()
    def durable_store(self, workspace, tmp_path):
        _root, snaps, _store = workspace
        store = tmp_path / "durable"
        assert main([
            "generate", "--snapshots", str(snaps), "--store", str(store),
            "--durable",
        ]) == 0
        return store

    def test_clean_store_exits_zero(self, durable_store, capsys):
        assert main(["scrub", "--store", str(durable_store)]) == 0
        output = capsys.readouterr().out
        assert "no problems found" in output
        assert "committed epoch" in output

    def test_missing_store_exits_one(self, tmp_path, capsys):
        assert main(["scrub", "--store", str(tmp_path / "nowhere")]) == 1
        assert "unscannable" in capsys.readouterr().out

    def test_corruption_detected_repaired_then_clean(self, durable_store, capsys):
        snapshot = durable_store / "clusters.jsonl"
        snapshot.write_text(snapshot.read_text().replace('"', "X", 1))
        assert main(["scrub", "--store", str(durable_store)]) == 1
        output = capsys.readouterr().out
        assert "snapshot-checksum" in output
        assert "snapshot-parse" in output
        assert "--repair" in output  # the hint
        assert main(["scrub", "--store", str(durable_store), "--repair"]) == 2
        output = capsys.readouterr().out
        assert "post-repair scrub" in output
        assert main(["scrub", "--store", str(durable_store)]) == 0

    def test_json_report_written(self, durable_store, tmp_path, capsys):
        out = tmp_path / "scrub.json"
        assert main([
            "scrub", "--store", str(durable_store), "--json", str(out),
        ]) == 0
        import json

        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert payload["findings"] == []

    def test_stats_on_damaged_store_exits_one(self, durable_store, capsys):
        snapshot = durable_store / "clusters.jsonl"
        snapshot.write_text(snapshot.read_text().replace('"', "X", 1))
        assert main(["stats", "--store", str(durable_store)]) == 1
        output = capsys.readouterr().out
        assert "store is damaged" in output
        assert "--repair" in output

    def test_layout_prints_resilience_counters(self, workspace, capsys):
        _root, _snaps, store = workspace
        assert main(["stats", "--store", str(store), "--layout"]) == 0
        output = capsys.readouterr().out
        assert "resilience:" in output
        assert "quarantined_collections" in output


class TestQuarantinedStore:
    """Commands that load a store with a dark collection exit 1 and say so."""

    @staticmethod
    def quarantine(store, name):
        """Damage ``name``'s WAL, then reopen: recovery takes it dark."""
        from repro.docstore import DurableDatabase

        wal = store / f"{name}.wal"
        data = bytearray(wal.read_bytes())
        data[0] ^= 0xFF
        wal.write_bytes(bytes(data))
        database = DurableDatabase(store)
        assert database[name].quarantined
        database.close(commit=False)

    @pytest.fixture()
    def durable_store(self, workspace, tmp_path):
        _root, snaps, _store = workspace
        store = tmp_path / "durable"
        assert main([
            "generate", "--snapshots", str(snaps), "--store", str(store),
            "--durable",
        ]) == 0
        return store

    def test_stats_names_a_dark_versions_collection(self, durable_store, capsys):
        self.quarantine(durable_store, "versions")
        capsys.readouterr()
        assert main(["stats", "--store", str(durable_store)]) == 1
        output = capsys.readouterr().out
        assert "collection 'versions' is quarantined" in output
        assert "bad WAL magic" in output
        assert f"scrub --store {durable_store} --repair" in output

    def test_dark_clusters_collection_fails_stats_and_customize(
        self, durable_store, tmp_path, capsys
    ):
        self.quarantine(durable_store, "clusters")
        capsys.readouterr()
        assert main(["stats", "--store", str(durable_store)]) == 1
        output = capsys.readouterr().out
        assert "store is empty" not in output
        assert "collection 'clusters' is quarantined" in output
        assert main([
            "customize", "--store", str(durable_store),
            "--out", str(tmp_path / "out.csv"),
        ]) == 1
        assert "collection 'clusters' is quarantined" in capsys.readouterr().out


class TestRecoverCommand:
    def test_clean_store_exits_zero(self, workspace, capsys):
        _root, _snaps, store = workspace
        assert main(["recover", "--store", str(store)]) == 0
        output = capsys.readouterr().out
        assert "committed epoch" in output
        assert "recovered state" in output

    def test_corrupt_snapshot_without_repair_fails(self, workspace, tmp_path, capsys):
        _root, snaps, _store = workspace
        store = tmp_path / "broken"
        assert main([
            "generate", "--snapshots", str(snaps), "--store", str(store),
        ]) == 0
        path = store / "clusters.jsonl"
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:12]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["recover", "--store", str(store)]) == 1
        assert "unrecoverable" in capsys.readouterr().out

    def test_repair_salvages_and_rewrites(self, workspace, tmp_path, capsys):
        _root, snaps, _store = workspace
        store = tmp_path / "salvage"
        assert main([
            "generate", "--snapshots", str(snaps), "--store", str(store),
        ]) == 0
        path = store / "clusters.jsonl"
        lines = path.read_text().splitlines()
        before = len(lines)
        lines[0] = lines[0][:12]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["recover", "--store", str(store), "--repair"]) == 2
        output = capsys.readouterr().out
        assert "salvaged" in output
        assert "rewritten" in output
        # The rewritten store loads cleanly with one cluster dropped.
        assert main(["recover", "--store", str(store)]) == 0
        from repro.docstore import Database

        salvaged = Database.load(store)
        assert salvaged["clusters"].count_documents() == before - 1
