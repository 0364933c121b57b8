"""Tests for JSONL persistence of databases."""

import json

import pytest

from repro.docstore import (
    Database,
    DurableDatabase,
    StorageCorruptError,
    StorageError,
    repair_database,
)
from repro.docstore.storage import RecoveryReport, load_database
from repro.docstore.wal import WalWriter, write_committed_epoch


@pytest.fixture
def populated(tmp_path):
    db = Database("ncvoter")
    clusters = db["clusters"]
    clusters.insert_many(
        [
            {"_id": "AA1", "ncid": "AA1", "records": [{"person": {"last_name": "SMITH"}}]},
            {"_id": "AA2", "ncid": "AA2", "records": []},
        ]
    )
    clusters.create_index("ncid")
    db["versions"].insert_one({"_id": 1, "note": "initial"})
    return db, tmp_path


class TestRoundTrip:
    def test_save_creates_files(self, populated):
        db, tmp_path = populated
        db.save(tmp_path)
        assert (tmp_path / "manifest.json").exists()
        assert (tmp_path / "clusters.jsonl").exists()
        assert (tmp_path / "versions.jsonl").exists()

    def test_documents_survive(self, populated):
        db, tmp_path = populated
        db.save(tmp_path)
        loaded = Database.load(tmp_path)
        assert loaded["clusters"].count_documents() == 2
        doc = loaded["clusters"].find_one({"_id": "AA1"})
        assert doc["records"][0]["person"]["last_name"] == "SMITH"

    def test_indexes_rebuilt(self, populated):
        db, tmp_path = populated
        db.save(tmp_path)
        loaded = Database.load(tmp_path)
        assert loaded["clusters"].index_names() == ["ncid_hash"]
        assert loaded["clusters"].find({"ncid": "AA2"})[0]["_id"] == "AA2"

    def test_load_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Database.load(tmp_path / "nowhere")

    def test_unicode_values_survive(self, tmp_path):
        db = Database("u")
        db["c"].insert_one({"_id": 1, "name": "X ÆA-12 MÜLLER"})
        db.save(tmp_path)
        loaded = Database.load(tmp_path)
        assert loaded["c"].find_one({"_id": 1})["name"] == "X ÆA-12 MÜLLER"

    def test_save_is_deterministic(self, populated):
        db, tmp_path = populated
        db.save(tmp_path / "a")
        db.save(tmp_path / "b")
        content_a = (tmp_path / "a" / "clusters.jsonl").read_text()
        content_b = (tmp_path / "b" / "clusters.jsonl").read_text()
        assert content_a == content_b

    def test_save_leaves_no_tmp_files(self, populated):
        db, tmp_path = populated
        db.save(tmp_path)
        assert list(tmp_path.glob("*.tmp")) == []


class TestCorruptSnapshots:
    def _store(self, tmp_path):
        db = Database("db")
        db["c"].insert_many(
            [{"_id": 1, "v": "one"}, {"_id": 2, "v": "two"}, {"_id": 3, "v": "three"}]
        )
        db.save(tmp_path)
        return tmp_path

    def test_truncated_line_raises_with_location(self, tmp_path):
        self._store(tmp_path)
        path = tmp_path / "c.jsonl"
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # tear line 2 mid-document
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StorageCorruptError) as info:
            Database.load(tmp_path)
        assert info.value.line == 2
        assert info.value.path.endswith("c.jsonl")
        assert "unparseable" in info.value.reason

    def test_repair_salvages_complete_lines(self, tmp_path):
        self._store(tmp_path)
        path = tmp_path / "c.jsonl"
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]
        path.write_text("\n".join(lines) + "\n")
        report = RecoveryReport()
        db = load_database(tmp_path, repair=True, report=report)
        assert db["c"].count_documents() == 2
        assert {d["_id"] for d in db["c"].all()} == {1, 3}
        assert report.salvaged == {str(path): 1}
        assert not report.clean
        assert "line 2" in report.render()

    def test_corrupt_manifest_raises(self, tmp_path):
        self._store(tmp_path)
        (tmp_path / "manifest.json").write_text("{broken")
        with pytest.raises(StorageCorruptError) as info:
            Database.load(tmp_path)
        assert "manifest" in info.value.reason

    def test_clean_load_reports_clean(self, tmp_path):
        self._store(tmp_path)
        report = RecoveryReport()
        load_database(tmp_path, report=report)
        assert report.clean


#: Raw inside ``ensure_ascii=False`` JSON strings, and line boundaries to
#: ``str.splitlines``: a load must split snapshot lines on "\n" only.
SEPARATOR_VALUES = ["a\u2028b", "a\u2029b", "a\x85b", "\u2028", "tail\u2029", "x\ry"]


class TestLineSeparatorsInValues:
    def _documents(self):
        return [{"_id": i, "v": value} for i, value in enumerate(SEPARATOR_VALUES)]

    def test_save_load_round_trip(self, tmp_path):
        db = Database("db")
        db["c"].insert_many(self._documents())
        db.save(tmp_path)
        assert list(Database.load(tmp_path)["c"].all()) == self._documents()

    def test_durable_checkpoint_reopens_healthy(self, tmp_path):
        db = DurableDatabase(tmp_path)
        db["c"].insert_many(self._documents())
        db.checkpoint()
        db.close()
        reopened = DurableDatabase(tmp_path)
        assert reopened.last_recovery.clean
        assert not reopened["c"].quarantined
        assert reopened["c"].find_one({"_id": 0}) == self._documents()[0]
        assert list(reopened["c"].all()) == self._documents()
        reopened.close()


class TestUndecodableSnapshotLines:
    def _store(self, tmp_path):
        db = Database("db")
        db["c"].insert_many(
            [{"_id": 1, "v": "one"}, {"_id": 2, "v": "two"}, {"_id": 3, "v": "three"}]
        )
        db.save(tmp_path)
        path = tmp_path / "c.jsonl"
        path.write_bytes(path.read_bytes().replace(b'"two"', b'"t\xffo"'))
        return path

    def test_strict_load_names_the_line(self, tmp_path):
        path = self._store(tmp_path)
        with pytest.raises(StorageCorruptError) as info:
            Database.load(tmp_path)
        assert info.value.line == 2
        assert info.value.path == str(path)
        assert "undecodable" in info.value.reason

    def test_repair_keeps_the_line_with_a_replacement_character(self, tmp_path):
        self._store(tmp_path)
        report = RecoveryReport()
        db = load_database(tmp_path, repair=True, report=report)
        assert [d["v"] for d in db["c"].all()] == ["one", "t\ufffdo", "three"]
        assert report.salvaged == {}
        assert "checksum mismatch" in report.render()


class TestDurableRecoveryReport:
    def test_replayed_operations_reported(self, tmp_path):
        db = DurableDatabase(tmp_path)
        db["c"].insert_one({"_id": 1})
        db.commit()
        db.close()
        report = RecoveryReport()
        loaded = load_database(tmp_path, report=report)
        assert loaded["c"].count_documents() == 1
        assert report.committed_epoch == 1
        assert report.replayed["c"] >= 1
        assert "replayed" in report.render()

    def test_unknown_operation_kind_is_never_dropped(self, tmp_path):
        db = DurableDatabase(tmp_path)
        db["c"].insert_one({"_id": 1})
        db._wals["c"].log("frobnicate", {})
        db.commit()
        db.close()
        with pytest.raises(StorageCorruptError) as info:
            Database.load(tmp_path)
        assert "'c'" in info.value.reason
        assert "frobnicate" in info.value.reason
        with pytest.raises(StorageCorruptError):
            DurableDatabase(tmp_path)
        # Salvage keeps what it can apply and says what it skipped.
        report = repair_database(tmp_path)
        assert any("frobnicate" in note for note in report.recovery.notes)
        assert [doc["_id"] for doc in Database.load(tmp_path)["c"].all()] == [1]

    def test_committed_data_loss_detected(self, tmp_path):
        db = DurableDatabase(tmp_path)
        db["c"].insert_one({"_id": 1})
        db.checkpoint()          # snapshot at epoch 1
        db["c"].insert_one({"_id": 2})
        db.commit()              # epoch 2 lives only in the WAL
        db.close()
        # Lose the committed WAL content but keep the COMMITTED epoch.
        (tmp_path / "c.wal").write_bytes(b"RWAL0001")
        with pytest.raises(StorageCorruptError) as info:
            Database.load(tmp_path)
        assert "committed records lost" in info.value.reason

    def test_checkpoint_then_plain_load_equal_state(self, tmp_path):
        db = DurableDatabase(tmp_path)
        db["c"].insert_one({"_id": 1, "v": "x"})
        db.checkpoint()
        db.close()
        loaded = Database.load(tmp_path)
        assert [d["_id"] for d in loaded["c"].all()] == [1]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["epoch"] == 1


class TestLegacyHashPartitionedLayout:
    """Stores of the retired layout fail to open with a clear error."""

    def test_manifest_entry_with_shards_is_refused(self, populated):
        db, store = populated
        db.save(store)
        manifest_path = store / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["collections"]["clusters"].update(shards=3, shard_key="ncid")
        manifest_path.write_text(json.dumps(manifest))
        for open_store in (Database.load, DurableDatabase):
            with pytest.raises(StorageError) as excinfo:
                open_store(store)
            message = str(excinfo.value)
            assert "'clusters'" in message and "manifest.json" in message
            assert "hash-partitioned layout" in message

    def test_committed_create_record_with_shards_is_refused(self, tmp_path):
        writer = WalWriter(tmp_path / "clusters@p0.wal")
        writer.log("create", {"shards": 3, "shard_key": "ncid", "seq": 1})
        writer.log("insert", {"doc": {"_id": "AA1", "ncid": "AA1"}, "seq": 2})
        writer.commit(1)
        writer.close()
        write_committed_epoch(tmp_path, 1)
        with pytest.raises(StorageError) as excinfo:
            Database.load(tmp_path)
        message = str(excinfo.value)
        assert "clusters@p0.wal" in message
        assert "hash-partitioned layout" in message
