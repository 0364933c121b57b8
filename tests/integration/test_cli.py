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

    def test_invalid_range_rejected(self, workspace):
        root, _snaps, store = workspace
        with pytest.raises(ValueError):
            main([
                "customize", "--store", str(store),
                "--out", str(root / "x.csv"), "--h-lo", "0.9", "--h-hi", "0.1",
            ])


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
        assert "degraded_reads" in output
        assert "quarantined_shards" in output


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
