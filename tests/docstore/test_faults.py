"""Crash-consistency property tests under deterministic fault injection.

The central invariant (the durability contract of
:class:`~repro.docstore.DurableDatabase`): *a crash at any filesystem
operation leaves the store recoverable to exactly the state of some
committed epoch* — never a half-applied commit, never lost committed
data.  The sweeps below enumerate every injection point of a workload
(``faults.count_ops`` makes the count deterministic), crash at each one,
and deep-compare the recovered state against the set of states the
workload committed.
"""

import errno
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.core import RemovalLevel, TestDataGenerator
from repro.core.versioning import UpdateProcess
from repro.docstore import Database, DurableDatabase
from repro.docstore.errors import StorageError
from repro.docstore.storage import _replay_operation
from repro.docstore.wal import WalWriter, read_wal
from repro.votersim.schema import empty_record
from repro.votersim.snapshots import Snapshot


def canonical(database):
    """Deep, order-insensitive fingerprint of a database's logical state."""
    state = {}
    for name in database.collection_names():
        collection = database[name]
        state[name] = {
            "docs": sorted(
                json.dumps(doc, sort_keys=True) for doc in collection.all()
            ),
            "indexes": sorted(
                json.dumps(spec, sort_keys=True)
                for spec in collection.index_specs()
            ),
        }
    return json.dumps(state, sort_keys=True)


EMPTY = canonical(Database("db"))


def reload_state(directory):
    """Canonical state of the directory as plain (read-only) recovery sees it."""
    try:
        return canonical(Database.load(directory))
    except StorageError:
        return EMPTY  # nothing durably created yet


def docstore_workload(directory, mark=None):
    """Insert/index/update/checkpoint/delete across two collections.

    ``mark`` is called with the database after every commit boundary so a
    fault-free run can record the exact set of committed states.
    """
    database = DurableDatabase(Path(directory))
    clusters = database.get_collection("clusters")
    clusters.insert_one({"_id": "a", "ncid": "a", "n": 1})
    clusters.insert_one({"_id": "b", "ncid": "b", "n": 2})
    clusters.create_index("ncid")
    database.commit()
    if mark:
        mark(database)
    clusters.update_one({"_id": "a"}, {"$set": {"n": 10}})
    versions = database.get_collection("versions")
    versions.insert_one({"_id": 1, "version": 1, "note": "first"})
    database.checkpoint()
    if mark:
        mark(database)
    clusters.delete_many({"_id": "b"})
    clusters.insert_one({"_id": "c", "ncid": "c", "n": 3})
    versions.insert_one({"_id": 2, "version": 2, "note": "second"})
    database.commit()
    if mark:
        mark(database)
    database.close()


def make_record(ncid, last_name="SMITH", **overrides):
    record = empty_record()
    record.update(
        ncid=ncid, last_name=last_name, first_name="JOHN",
        sex_code="M", age="40", snapshot_dt="2012-01-01",
    )
    record.update(overrides)
    return record


def generator_workload(directory, mark=None):
    """The acceptance workload: generate → save → update → save."""
    database = DurableDatabase(Path(directory), "ncvoter")
    generator = TestDataGenerator.from_database(database)
    generator.import_snapshot(
        Snapshot("2012-01-01", [make_record("AA1"), make_record("AA2")])
    )
    generator.publish(note="initial import")  # publish commits
    if mark:
        mark(database)
    database.save(Path(directory))  # checkpoint in place
    generator.import_snapshot(
        Snapshot(
            "2013-01-01",
            [make_record("AA1", last_name="SMYTH", snapshot_dt="2013-01-01")],
        )
    )
    generator.publish(note="update")
    if mark:
        mark(database)
    database.save(Path(directory))
    database.close()


def generator_delta_workload(directory, mark=None):
    """Three scored versions whose publishes journal per-cluster deltas.

    Version 2 adds a record to a stored cluster.  Version 3 updates both
    stored clusters: it adds a record to AA1 and repeats an existing AA2
    record, which appends a snapshot date to it.  Its update batch is
    therefore several frames in one write.  The checkpoint after version
    2 leaves version 3's deltas to replay over the snapshot.
    """
    database = DurableDatabase(Path(directory), "ncvoter")
    generator = TestDataGenerator.from_database(database)
    process = UpdateProcess(generator)
    snapshots = [
        Snapshot("2012-01-01", [make_record("AA1"), make_record("AA2")]),
        Snapshot(
            "2013-01-01",
            [make_record("AA1", last_name="SMYTH", snapshot_dt="2013-01-01")],
        ),
        Snapshot(
            "2014-01-01",
            [
                make_record("AA1", last_name="SMITHE", snapshot_dt="2014-01-01"),
                make_record("AA2", snapshot_dt="2014-01-01"),
            ],
        ),
    ]
    for version, snapshot in enumerate(snapshots, start=1):
        generator.import_snapshot(snapshot)
        process.update_statistics()
        generator.publish(note=f"version {version}")
        if mark:
            mark(database)
        if version == 2:
            database.checkpoint()
    database.close()


def committed_states(workload, directory):
    """Run ``workload`` fault-free; return the committed canonical states."""
    states = {EMPTY}
    workload(directory, mark=lambda db: states.add(canonical(db)))
    return states


def sweep(workload, tmp_path, mode):
    """Crash at every injection point; assert recovery hits a committed state."""
    states = committed_states(workload, tmp_path / "reference")
    total = faults.count_ops(lambda: workload(tmp_path / "count"))
    assert total > 0
    failures = []
    for n in range(1, total + 1):
        target = tmp_path / f"{mode}-{n}"
        plan = faults.FaultyFileSystem(fail_at=n, mode=mode)
        with faults.inject(plan):
            with pytest.raises(faults.CrashError):
                workload(target)
        recovered = reload_state(target)
        if recovered not in states:
            failures.append((n, plan.failed_op))
            continue
        # The exclusive writer's recovery (replay + truncation) must agree.
        reopened = DurableDatabase(target)
        agreed = canonical(reopened)
        reopened.close(commit=False)
        if agreed != recovered:
            failures.append((n, f"reopen disagrees after {plan.failed_op}"))
    assert not failures, f"{len(failures)}/{total} crash points leaked: {failures}"


class TestCrashSweep:
    def test_docstore_workload_crash_mode(self, tmp_path):
        sweep(docstore_workload, tmp_path, "crash")

    def test_docstore_workload_torn_mode(self, tmp_path):
        sweep(docstore_workload, tmp_path, "torn")

    def test_generator_workload_crash_mode(self, tmp_path):
        sweep(generator_workload, tmp_path, "crash")

    def test_generator_delta_workload_crash_mode(self, tmp_path):
        sweep(generator_delta_workload, tmp_path, "crash")

    def test_generator_delta_workload_torn_mode(self, tmp_path):
        sweep(generator_delta_workload, tmp_path, "torn")

    def test_fault_free_run_is_clean(self, tmp_path):
        docstore_workload(tmp_path / "clean")
        report_db = DurableDatabase(tmp_path / "clean")
        assert report_db.last_recovery is not None
        assert report_db.last_recovery.clean
        report_db.close(commit=False)

    def test_op_count_is_deterministic(self, tmp_path):
        first = faults.count_ops(lambda: docstore_workload(tmp_path / "one"))
        second = faults.count_ops(lambda: docstore_workload(tmp_path / "two"))
        assert first == second


class TestFaultShim:
    def test_error_mode_raises_oserror_once(self, tmp_path):
        plan = faults.FaultyFileSystem(fail_at=1, mode="error")
        with faults.inject(plan):
            with pytest.raises(OSError):
                plan.open(tmp_path / "f", "wb")
            handle = plan.open(tmp_path / "f", "wb")  # next call succeeds
            handle.close()

    def test_only_filter_counts_selected_ops(self, tmp_path):
        total = faults.count_ops(
            lambda: docstore_workload(tmp_path / "a"), only=("fsync",)
        )
        everything = faults.count_ops(lambda: docstore_workload(tmp_path / "b"))
        assert 0 < total < everything

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            faults.FaultyFileSystem(fail_at=1, mode="explode")

    def test_unknown_only_op_rejected(self):
        with pytest.raises(ValueError):
            faults.FaultyFileSystem(fail_at=1, only=("format_disk",))


# ------------------------------------------------ full fault-model sweeps

#: The sweep's six documents, dealt round-robin over three collections
#: (AA1/AA3, AA2/AA5, AA7/AA9), so one dark collection spares the others.
_SWEEP_IDS = ("AA1", "AA2", "AA7", "AA3", "AA5", "AA9")
_SWEEP_COLLECTIONS = ("docs0", "docs1", "docs2")


def collections_workload(directory, mark=None):
    """Insert/index/update/checkpoint/delete across three collections."""
    database = DurableDatabase(Path(directory))
    for index, ncid in enumerate(_SWEEP_IDS):
        database[_SWEEP_COLLECTIONS[index % 3]].insert_one(
            {"_id": ncid, "ncid": ncid, "n": index}
        )
    for name in _SWEEP_COLLECTIONS:
        database[name].create_index("ncid")
    database.commit()
    if mark:
        mark(database)
    database["docs0"].update_one({"_id": "AA1"}, {"$set": {"n": 100}})
    database.checkpoint()
    if mark:
        mark(database)
    database["docs1"].delete_many({"_id": "AA2"})
    database["docs2"].insert_one({"_id": "BA1", "ncid": "BA1", "n": 7})
    database.commit()
    if mark:
        mark(database)
    database.close()


def doc_state(database):
    """Docs-only state of the healthy collections (dark ones left out)."""
    return {
        name: sorted(
            json.dumps(doc, sort_keys=True) for doc in database[name].all()
        )
        for name in database.collection_names()
        if not database[name].quarantined
    }


def committed_doc_states(workload, directory):
    """Run ``workload`` fault-free; return the committed docs-only states."""
    states = [{}]
    workload(directory, mark=lambda db: states.append(doc_state(db)))
    return states


def healthy_projection(state, quarantined):
    """Project a committed state onto the collections ``quarantined`` spares."""
    return {
        name: blobs for name, blobs in state.items() if name not in quarantined
    }


def check_recovered_or_quarantined(target, states):
    """The tentpole invariant: recovered-or-quarantined, never silently wrong.

    Returns ``None`` when the reopened store's healthy collections hold
    exactly what some committed state holds in them, else a description
    of the violation.
    """
    try:
        reopened = DurableDatabase(target)
    except Exception as exc:  # noqa: BLE001 - any failure to open is the bug
        return f"reopen failed: {exc!r}"
    try:
        quarantined = {
            name
            for name in reopened.collection_names()
            if reopened[name].quarantined
        }
        actual = doc_state(reopened)
        for state in states:
            if actual == healthy_projection(state, quarantined):
                return None
        return (
            f"state not a committed projection "
            f"(quarantined={sorted(quarantined)})"
        )
    finally:
        reopened.close(commit=False)


def fault_sweep(workload, tmp_path, mode):
    """Inject ``mode`` at every op; assert the store is never silently wrong."""
    states = committed_doc_states(workload, tmp_path / "reference")
    total = faults.count_ops(lambda: workload(tmp_path / "count"))
    assert total > 0
    failures = []
    for plan in faults.fault_points(total, mode=mode):
        target = tmp_path / f"{mode}-{plan.fail_at}"
        with faults.inject(plan):
            try:
                workload(target)
            except (faults.CrashError, OSError):
                pass  # the fault surfaced; the store must still open below
        violation = check_recovered_or_quarantined(target, states)
        if violation is not None:
            failures.append((plan.fail_at, plan.failed_op, violation))
    assert not failures, f"{len(failures)}/{total} fault points leaked: {failures}"


class TestFaultModeSweep:
    """The full I/O fault model over a three-collection commit→checkpoint run."""

    def test_collections_workload_crash_mode(self, tmp_path):
        sweep(collections_workload, tmp_path, "crash")

    def test_collections_workload_torn_mode(self, tmp_path):
        fault_sweep(collections_workload, tmp_path, "torn")

    def test_collections_workload_eio_mode(self, tmp_path):
        fault_sweep(collections_workload, tmp_path, "eio")

    def test_collections_workload_enospc_mode(self, tmp_path):
        fault_sweep(collections_workload, tmp_path, "enospc")

    def test_collections_workload_partial_fsync_mode(self, tmp_path):
        fault_sweep(collections_workload, tmp_path, "partial_fsync")

    def test_docstore_workload_enospc_mode(self, tmp_path):
        fault_sweep(docstore_workload, tmp_path, "enospc")

    def test_docstore_workload_partial_fsync_mode(self, tmp_path):
        fault_sweep(docstore_workload, tmp_path, "partial_fsync")

    def test_generator_delta_workload_eio_mode(self, tmp_path):
        fault_sweep(generator_delta_workload, tmp_path, "eio")

    def test_generator_delta_workload_enospc_mode(self, tmp_path):
        fault_sweep(generator_delta_workload, tmp_path, "enospc")

    def test_generator_delta_workload_partial_fsync_mode(self, tmp_path):
        fault_sweep(generator_delta_workload, tmp_path, "partial_fsync")

    def test_slow_mode_changes_nothing(self, tmp_path):
        """Latency alone must never change an outcome."""
        expected = committed_doc_states(collections_workload, tmp_path / "ref")[-1]
        plan = faults.FaultyFileSystem(fail_at=5, mode="slow", delay=0.001)
        with faults.inject(plan):
            collections_workload(tmp_path / "slow")
        assert plan.failed_op is not None  # the delay did fire
        reopened = DurableDatabase(tmp_path / "slow")
        assert doc_state(reopened) == expected
        assert reopened.last_recovery.clean
        reopened.close(commit=False)


class TestFaultShimModes:
    def test_eio_mode_sets_errno_and_fires_once(self, tmp_path):
        plan = faults.FaultyFileSystem(fail_at=1, mode="eio")
        with faults.inject(plan):
            with pytest.raises(OSError) as excinfo:
                plan.read_bytes(tmp_path / "missing")
            assert excinfo.value.errno == errno.EIO
            (tmp_path / "f").write_bytes(b"ok")
            assert plan.read_bytes(tmp_path / "f") == b"ok"  # fires once

    def test_enospc_mode_persists_prefix_then_raises(self, tmp_path):
        plan = faults.FaultyFileSystem(fail_at=2, mode="enospc")
        with faults.inject(plan):
            handle = plan.open(tmp_path / "f", "wb", buffering=0)
            with pytest.raises(OSError) as excinfo:
                plan.write(handle, b"0123456789")
            handle.close()
        assert excinfo.value.errno == errno.ENOSPC
        assert (tmp_path / "f").read_bytes() == b"01234"  # half fit on disk

    def test_partial_fsync_rolls_back_to_durable_size(self, tmp_path):
        plan = faults.FaultyFileSystem(
            fail_at=2, mode="partial_fsync", only=("fsync",)
        )
        with faults.inject(plan):
            handle = plan.open(tmp_path / "f", "wb", buffering=0)
            plan.write(handle, b"durable!")
            plan.fsync(handle)                                 # fsync 1: ok
            plan.write(handle, b"lost")
            with pytest.raises(faults.CrashError):
                plan.fsync(handle)                             # fsync 2: fails
            handle.close()
        assert (tmp_path / "f").read_bytes() == b"durable!"

    def test_slow_mode_performs_the_operation(self, tmp_path):
        plan = faults.FaultyFileSystem(fail_at=1, mode="slow", delay=0.0)
        with faults.inject(plan):
            handle = plan.open(tmp_path / "f", "wb", buffering=0)
            handle.write(b"x")
            handle.close()
        assert (tmp_path / "f").read_bytes() == b"x"
        assert plan.failed_op is not None

    def test_fault_points_enumerates_every_index(self):
        plans = list(faults.fault_points(3, mode="enospc", only=("write",)))
        assert [plan.fail_at for plan in plans] == [1, 2, 3]
        assert all(plan.mode == "enospc" for plan in plans)
        assert all(plan.only == ("write",) for plan in plans)


class TestWalEnospcSafety:
    """Satellite: a failed append must leave the log on a frame boundary."""

    def _writer_with_one_commit(self, tmp_path):
        writer = WalWriter(tmp_path / "docs.wal")
        writer.log("insert", {"doc": {"_id": "a"}})
        writer.commit(1)
        return writer

    def test_failed_append_truncates_to_last_frame(self, tmp_path):
        writer = self._writer_with_one_commit(tmp_path)
        good_size = (tmp_path / "docs.wal").stat().st_size
        plan = faults.FaultyFileSystem(fail_at=1, mode="enospc", only=("write",))
        with faults.inject(plan):
            with pytest.raises(StorageError):
                writer.log("insert", {"doc": {"_id": "b"}})
        assert (tmp_path / "docs.wal").stat().st_size == good_size
        recovery = read_wal(tmp_path / "docs.wal", committed_epoch=1)
        assert [op["op"] for op in recovery.operations] == ["insert"]
        writer.close()

    def test_poisoned_writer_refuses_appends_until_reset(self, tmp_path):
        writer = self._writer_with_one_commit(tmp_path)
        plan = faults.FaultyFileSystem(fail_at=1, mode="enospc", only=("write",))
        with faults.inject(plan):
            with pytest.raises(StorageError):
                writer.log("insert", {"doc": {"_id": "b"}})
        with pytest.raises(StorageError):  # no fault active: still poisoned
            writer.log("insert", {"doc": {"_id": "c"}})
        writer.reset()
        writer.log("insert", {"doc": {"_id": "d"}})  # healthy again
        writer.close()

    def test_failed_commit_marker_poisons_writer(self, tmp_path):
        writer = self._writer_with_one_commit(tmp_path)
        writer.log("insert", {"doc": {"_id": "b"}})
        plan = faults.FaultyFileSystem(fail_at=1, mode="eio", only=("fsync",))
        with faults.inject(plan):
            with pytest.raises(StorageError):
                writer.commit(2)
        # Epoch 2 never became durable: replay must stop at epoch 1.
        recovery = read_wal(tmp_path / "docs.wal", committed_epoch=1)
        assert recovery.last_epoch == 1
        writer.close()


class TestOrphanCleanup:
    """Satellite: ``*.tmp`` leftovers from crashed atomic writes are swept."""

    def test_orphans_removed_and_counted_on_open(self, tmp_path):
        database = DurableDatabase(tmp_path)
        database["docs"].insert_one({"_id": "a", "ncid": "a"})
        database.checkpoint()
        database.close()
        (tmp_path / "docs.jsonl.tmp").write_bytes(b"half-written")
        (tmp_path / "manifest.json.tmp").write_bytes(b"{")
        reopened = DurableDatabase(tmp_path)
        assert reopened.last_recovery.orphans_removed == 2
        assert not list(tmp_path.glob("*.tmp"))
        assert [doc["_id"] for doc in reopened["docs"].all()] == ["a"]
        reopened.close(commit=False)


# ----------------------------------------------------------- property tests

_DOC_IDS = st.sampled_from(["a", "b", "c", "d", "e"])


def _update_spec(kind, value):
    """The update of one ``_OPERATIONS`` kind: every operator is journaled,
    including list appends, nested paths, removals and positional sets."""
    return {
        "update": {"$set": {"value": value}},
        "push": {"$push": {"tags": value}},
        "add_to_set": {"$addToSet": {"tags": value % 5}},
        "pull": {"$pull": {"tags": value % 5}},
        "inc": {"$inc": {"nested.count": value}},
        "unset": {"$unset": {"value": ""}},
        "rename": {"$rename": {"value": "nested.value"}},
        "set_position": {"$set": {f"tags.{value % 4}": value}},
    }[kind]


_OPERATIONS = st.one_of(
    st.tuples(st.just("insert"), _DOC_IDS, st.integers(0, 99)),
    st.tuples(
        st.sampled_from(
            ["update", "push", "add_to_set", "pull", "inc", "unset", "rename",
             "set_position"]
        ),
        _DOC_IDS,
        st.integers(0, 99),
    ),
    st.tuples(st.just("delete"), _DOC_IDS, st.just(0)),
)


def apply_operations(collection, operations):
    """Apply ``_OPERATIONS`` tuples; inserted documents hold a list."""
    for kind, doc_id, value in operations:
        if kind == "insert":
            document = {"_id": doc_id, "value": value, "tags": [value % 5]}
            if collection.count_documents({"_id": doc_id}):
                collection.replace_one({"_id": doc_id}, document)
            else:
                collection.insert_one(document)
        elif kind == "delete":
            collection.delete_many({"_id": doc_id})
        else:
            collection.update_one({"_id": doc_id}, _update_spec(kind, value))


def apply_split_operations(database, operations):
    """:func:`apply_operations` over two collections, split by ``_id``."""
    for operation in operations:
        name = "docs" if operation[1] in ("a", "b", "c") else "more"
        apply_operations(database[name], [operation])


class TestRoundTripProperties:
    @given(operations=st.lists(_OPERATIONS, max_size=30))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_plain_save_load_roundtrip(self, operations, tmp_path_factory):
        directory = tmp_path_factory.mktemp("roundtrip")
        database = Database("db")
        apply_operations(database["docs"], operations)
        database["docs"].create_index("value", "sorted")
        database.save(directory)
        assert canonical(Database.load(directory)) == canonical(database)

    @given(
        committed=st.lists(_OPERATIONS, max_size=20),
        staged=st.lists(_OPERATIONS, min_size=1, max_size=10),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_durable_reload_drops_uncommitted_wal_tail(
        self, committed, staged, tmp_path_factory
    ):
        directory = tmp_path_factory.mktemp("durable")
        database = DurableDatabase(directory)
        apply_operations(database["docs"], committed)
        database.commit()
        expected = canonical(database)
        apply_operations(database["docs"], staged)
        database.close(commit=False)  # staged tail stays uncommitted
        assert reload_state(directory) == expected
        reopened = DurableDatabase(directory)
        assert canonical(reopened) == expected
        reopened.close(commit=False)

    @given(
        committed=st.lists(_OPERATIONS, max_size=12),
        staged=st.lists(_OPERATIONS, max_size=8),
        mode=st.sampled_from(["crash", "torn", "eio", "enospc", "partial_fsync"]),
        point=st.integers(1, 80),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_fault_never_silently_wrong(
        self, committed, staged, mode, point, tmp_path_factory
    ):
        """Random ops × random fault point × any mode → the invariant holds."""
        directory = tmp_path_factory.mktemp("fault")

        def workload(target, mark=None):
            database = DurableDatabase(Path(target))
            apply_split_operations(database, committed)
            database.commit()
            if mark:
                mark(database)
            apply_split_operations(database, staged)
            database.commit()
            if mark:
                mark(database)
            database.close()

        states = committed_doc_states(workload, directory / "reference")
        target = directory / "faulted"
        plan = faults.FaultyFileSystem(fail_at=point, mode=mode)
        with faults.inject(plan):
            try:
                workload(target)
            except (faults.CrashError, OSError):
                pass
        violation = check_recovered_or_quarantined(target, states)
        assert violation is None, f"{plan.failed_op}: {violation}"

    @given(
        before=st.lists(_OPERATIONS, max_size=15),
        after=st.lists(_OPERATIONS, max_size=20),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_replaying_the_committed_log_again_changes_nothing(
        self, before, after, tmp_path_factory
    ):
        """Replay is idempotent, as a stale log over a newer snapshot needs."""
        directory = tmp_path_factory.mktemp("replay")
        database = DurableDatabase(directory)
        apply_operations(database["docs"], before)
        database.checkpoint()
        apply_operations(database["docs"], after)
        database.commit()
        expected = canonical(database)
        database.close(commit=False)
        recovered = Database.load(directory)
        assert canonical(recovered) == expected
        log = read_wal(directory / "docs.wal", database.committed_epoch)
        for operation in log.operations:
            _replay_operation(recovered["docs"], operation)
        assert canonical(recovered) == expected
