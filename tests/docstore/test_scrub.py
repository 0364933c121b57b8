"""Scrubber, quarantine and repair tests.

The robustness contract on top of crash recovery: corruption in one
collection's files takes exactly that collection dark (quarantine) instead
of failing the whole store; the other collections keep serving
bit-identically; every read of the dark collection raises a typed error
and every write to it is refused; ``repair()`` salvages what the damaged
files still hold and lifts the quarantine.  ``scrub_database`` finds all of
this offline without modifying a byte.
"""

import json
from pathlib import Path

import pytest

from repro.docstore import (
    DegradedReadError,
    DegradedWriteError,
    DurableDatabase,
    StorageError,
    scrub_database,
)
from repro.docstore.scrub import repair_database
from repro.docstore.wal import WAL_MAGIC

#: The store's collections; the corruption hits ``DARK``.
NAMES = ("docs0", "docs1", "docs2")
DARK = "docs2"
HEALTHY = ("docs0", "docs1")
#: One document per collection in the checkpoint snapshots...
SNAP_IDS = ("AA1", "AA2", "AA7")
#: ...and one per collection in the WALs after it.
WAL_IDS = ("AA3", "AA5", "AA9")


def build_store(directory):
    """Snapshots holding SNAP_IDS, WALs holding WAL_IDS, one per collection."""
    database = DurableDatabase(Path(directory))
    for name, ncid in zip(NAMES, SNAP_IDS):
        database[name].insert_one({"_id": ncid, "ncid": ncid, "stage": "snapshot"})
    database.checkpoint()
    for name, ncid in zip(NAMES, WAL_IDS):
        database[name].insert_one({"_id": ncid, "ncid": ncid, "stage": "wal"})
    database.commit()
    database.close()
    return Path(directory)


def build_checkpointed_store(directory):
    """Like :func:`build_store` but ending at the checkpoint, so the
    manifest checksum is authoritative (no interrupted-checkpoint window
    for a corrupt snapshot to hide in)."""
    database = DurableDatabase(Path(directory))
    for name, ncids in zip(NAMES, zip(SNAP_IDS, WAL_IDS)):
        for ncid in ncids:
            database[name].insert_one(
                {"_id": ncid, "ncid": ncid, "stage": "snapshot"}
            )
    database.checkpoint()
    database.close(commit=False)
    return Path(directory)


def corrupt_wal_frame(path):
    """Flip a payload byte of the first record; later frames stay valid."""
    data = bytearray(path.read_bytes())
    offset = len(WAL_MAGIC) + 8 + 4  # file magic + frame header + into payload
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def dark_wal(store):
    return store / f"{DARK}.wal"


def healthy_documents(database):
    return {name: list(database[name].all()) for name in HEALTHY}


@pytest.fixture()
def degraded_store(tmp_path):
    """A store whose ``DARK`` collection has mid-file WAL corruption."""
    store = build_store(tmp_path / "store")
    corrupt_wal_frame(dark_wal(store))
    return store


class TestScrubFindings:
    def test_clean_store_is_clean(self, tmp_path):
        store = build_store(tmp_path / "store")
        report = scrub_database(store)
        assert report.ok and report.clean
        assert report.files_checked == 7  # manifest, 3 snapshots, 3 WALs
        assert report.bytes_checked > 0
        assert "no problems found" in report.render()

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(StorageError):
            scrub_database(tmp_path / "nowhere")

    def test_corrupt_wal_is_an_error(self, degraded_store):
        report = scrub_database(degraded_store)
        assert not report.ok
        kinds = {finding.kind for finding in report.errors}
        assert "wal-corrupt" in kinds
        [finding] = [f for f in report.errors if f.kind == "wal-corrupt"]
        assert finding.collection == DARK

    def test_corrupt_snapshot_is_an_error(self, tmp_path):
        store = build_checkpointed_store(tmp_path / "store")
        path = store / f"{DARK}.jsonl"
        text = path.read_text()
        path.write_text(text.replace('"', "X", 1))
        report = scrub_database(store)
        kinds = {finding.kind for finding in report.errors}
        assert "snapshot-checksum" in kinds
        assert "snapshot-parse" in kinds  # deep pass parses every line

    def test_line_separators_inside_values_are_clean(self, tmp_path):
        database = DurableDatabase(tmp_path / "store")
        for index, value in enumerate(["a\u2028b", "a\u2029b", "a\x85b"]):
            database["docs0"].insert_one({"_id": index, "v": value})
        database.checkpoint()
        database.close()
        report = scrub_database(tmp_path / "store", deep=True)
        assert report.ok and report.clean, report.render()

    def test_undecodable_line_is_named(self, tmp_path):
        store = build_checkpointed_store(tmp_path / "store")
        path = store / f"{DARK}.jsonl"
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(b'"snapshot"', b'"snap\xffshot"')
        path.write_bytes(b"\n".join(lines))
        report = scrub_database(store)
        [finding] = [f for f in report.errors if f.kind == "snapshot-parse"]
        assert "line 2" in finding.detail and "undecodable" in finding.detail

    def test_shallow_skips_line_parsing(self, tmp_path):
        store = build_checkpointed_store(tmp_path / "store")
        path = store / f"{DARK}.jsonl"
        path.write_text(path.read_text().replace('"', "X", 1))
        report = scrub_database(store, deep=False)
        kinds = {finding.kind for finding in report.errors}
        assert "snapshot-checksum" in kinds
        assert "snapshot-parse" not in kinds

    def test_interrupted_checkpoint_checksum_is_a_warning(self, tmp_path):
        """COMMITTED beyond the manifest epoch marks the repairable window."""
        store = build_store(tmp_path / "store")  # commit after ckpt
        path = store / f"{DARK}.jsonl"
        path.write_text(path.read_text() + "\n")  # size mismatch, still parses
        report = scrub_database(store)
        assert report.ok
        assert any(
            f.kind == "snapshot-checksum" and "interrupted checkpoint" in f.detail
            for f in report.warnings
        )

    def test_orphan_tmp_is_a_warning(self, tmp_path):
        store = build_store(tmp_path / "store")
        (store / f"{DARK}.jsonl.tmp").write_bytes(b"half")
        report = scrub_database(store)
        assert report.ok  # warnings do not fail a scrub
        assert {finding.kind for finding in report.warnings} == {"orphan-tmp"}

    def test_quarantine_flags_reported(self, degraded_store):
        DurableDatabase(degraded_store).close(commit=False)
        report = scrub_database(degraded_store)
        assert report.quarantined == [DARK]
        assert not report.ok
        assert any(f.kind == "quarantine" for f in report.warnings)

    def test_to_dict_round_trips_through_json(self, degraded_store):
        report = scrub_database(degraded_store)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is False
        assert payload["findings"]
        assert payload["committed_epoch"] == report.committed_epoch


class TestQuarantinedDegradedReads:
    def test_reopen_quarantines_only_the_corrupt_collection(self, degraded_store):
        database = DurableDatabase(degraded_store)
        assert database.last_recovery.quarantined == [DARK]
        assert [name for name in NAMES if database[name].quarantined] == [DARK]
        database.close(commit=False)

    def test_healthy_collection_reads_are_bit_identical(self, tmp_path):
        pristine = build_store(tmp_path / "pristine")
        oracle = DurableDatabase(pristine)
        expected = healthy_documents(oracle)
        oracle.close(commit=False)

        store = build_store(tmp_path / "store")
        corrupt_wal_frame(dark_wal(store))
        database = DurableDatabase(store)
        assert healthy_documents(database) == expected
        database.close(commit=False)

    def test_dark_collection_reads_raise(self, degraded_store):
        database = DurableDatabase(degraded_store)
        docs = database[DARK]
        reads = [
            lambda: docs.find(),
            lambda: docs.find_one({"ncid": "AA7"}),
            lambda: docs.count_documents(),
            lambda: docs.count_documents({"ncid": "AA7"}),
            lambda: docs.distinct("ncid"),
            lambda: docs.aggregate([{"$count": "n"}]),
            lambda: list(docs.all()),
            lambda: docs.explain({"ncid": "AA7"}),
        ]
        for read in reads:
            with pytest.raises(DegradedReadError) as excinfo:
                read()
            assert excinfo.value.collection == DARK
            assert "checksum mismatch" in excinfo.value.reason
        database.close(commit=False)

    def test_writes_to_dark_collection_refused(self, degraded_store):
        database = DurableDatabase(degraded_store)
        docs = database[DARK]
        writes = [
            lambda: docs.insert_one({"_id": "BA5", "ncid": "BA5"}),
            lambda: docs.insert_many([{"_id": "BA6", "ncid": "BA6"}]),
            lambda: docs.update_one({"ncid": "AA7"}, {"$set": {"x": 1}}),
            lambda: docs.replace_one({"ncid": "AA7"}, {"ncid": "AA7"}),
            lambda: docs.delete_many({}),
            lambda: docs.create_index("stage"),
            lambda: database.drop_collection(DARK),
        ]
        for write in writes:
            with pytest.raises(DegradedWriteError):
                write()
        database.close(commit=False)

    def test_healthy_collection_writes_still_commit(self, degraded_store):
        database = DurableDatabase(degraded_store)
        database["docs0"].insert_one({"_id": "BA0", "ncid": "BA0", "stage": "post"})
        database.commit()
        database.close(commit=False)
        reopened = DurableDatabase(degraded_store)
        assert reopened["docs0"].find_one({"ncid": "BA0"}) is not None
        assert reopened[DARK].quarantined
        reopened.close(commit=False)

    def test_checkpoint_preserves_the_dark_collection_history(self, degraded_store):
        database = DurableDatabase(degraded_store)
        database.checkpoint()  # must not write the dark collection's snapshot
        database.close(commit=False)
        assert (degraded_store / f"{DARK}.wal.quarantined").is_dir()
        report = repair_database(degraded_store)
        salvaged = DurableDatabase(degraded_store)
        # The dark collection's snapshot row survived quarantine+repair.
        assert salvaged[DARK].find_one({"ncid": "AA7"}) is not None
        assert report.committed_epoch > 0
        salvaged.close(commit=False)

    def test_stats_surface_quarantine(self, degraded_store):
        from repro.report import render_collection_stats

        database = DurableDatabase(degraded_store)
        stats = database.stats()
        assert [
            name for name in NAMES if stats["collections"][name]["quarantined"]
        ] == [DARK]
        assert stats["resilience"]["quarantined_collections"] == 1
        assert "yes" in render_collection_stats(stats)
        database.close(commit=False)


class TestRepair:
    def test_repair_lifts_quarantine_and_keeps_salvageable_data(
        self, degraded_store
    ):
        database = DurableDatabase(degraded_store)
        report = database.repair()
        assert database.last_repair is report
        assert not any(database[name].quarantined for name in NAMES)
        # The dark collection's snapshot row and every healthy row survive;
        # only the corrupted committed frame (AA9) may be gone.
        present = {doc["ncid"] for name in NAMES for doc in database[name].all()}
        assert {"AA1", "AA2", "AA3", "AA5", "AA7"} <= present
        assert scrub_database(degraded_store).ok
        database.close()

    def test_repaired_store_accepts_all_writes_again(self, degraded_store):
        database = DurableDatabase(degraded_store)
        database.repair()
        database[DARK].insert_one({"_id": "BA5", "ncid": "BA5"})
        database.commit()
        database.close()
        reopened = DurableDatabase(degraded_store)
        assert reopened.last_recovery.clean
        assert reopened[DARK].find_one({"ncid": "BA5"}) is not None
        reopened.close(commit=False)

    def test_snapshot_corruption_darkens_whole_collection(self, tmp_path):
        store = build_store(tmp_path / "store")
        path = store / f"{DARK}.jsonl"
        path.write_text(path.read_text().replace('"', "X", 1))
        database = DurableDatabase(store)
        docs = database[DARK]
        assert docs.quarantined
        with pytest.raises(DegradedReadError):
            docs.find_one({"ncid": "AA9"})  # a WAL row: replay was skipped
        with pytest.raises(DegradedReadError):
            list(docs.all())
        assert database["docs0"].count_documents() == 2
        database.repair()
        # Salvage drops only the mangled line; the rest returns to service.
        survivors = {doc["ncid"] for name in NAMES for doc in database[name].all()}
        assert len(survivors) >= len(SNAP_IDS) + len(WAL_IDS) - 1
        database.close()

    def test_scrub_method_records_last_scrub_in_stats(self, tmp_path):
        store = build_store(tmp_path / "store")
        database = DurableDatabase(store)
        report = database.scrub()
        assert report.ok
        storage = database.stats()["storage"]
        assert storage["last_scrub"] == {"ok": True, "errors": 0, "warnings": 0}
        assert storage["committed_epoch"] == database.committed_epoch
        database.close(commit=False)


class TestCompaction:
    def test_checkpoint_rotates_wal_to_header(self, tmp_path):
        database = DurableDatabase(tmp_path)
        docs = database["docs"]
        for index in range(20):
            docs.insert_one({"_id": f"a{index}", "ncid": f"a{index}"})
        database.commit()
        before = (tmp_path / "docs.wal").stat().st_size
        database.checkpoint()
        after = (tmp_path / "docs.wal").stat().st_size
        assert after < before
        assert after == len(WAL_MAGIC)
        database.close()
        reopened = DurableDatabase(tmp_path)
        assert reopened["docs"].count_documents() == 20
        reopened.close(commit=False)
