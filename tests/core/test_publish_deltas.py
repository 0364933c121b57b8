"""Publish writes per-cluster deltas that replay to the generator's state.

Every in-package writer records the paths it writes, and
:meth:`TestDataGenerator.publish` sends a stored cluster only those paths,
for the whole version in one ``Collection.write_by_id`` batch.  These
tests reopen the store from its write-ahead log alone (no checkpoint ever
ran) after every publish and compare it, and the live collection, with
the generator's in-memory clusters, so a writer that forgets to record a
path shows up as a difference.  Indexed reads of both are checked against
a full scan, so an index the batch path failed to maintain shows up too.
"""

import json

import pytest

from repro.core import TestDataGenerator
from repro.core.augment import AugmentationPlan, Augmenter
from repro.core.parallel import import_snapshots_parallel
from repro.core.versioning import UpdateProcess
from repro.docstore import Collection, Database, DurableDatabase
from repro.docstore._reference import find_full_scan
from repro.docstore.wal import read_wal
from repro.votersim.schema import empty_record
from repro.votersim.snapshots import Snapshot


def canonical_clusters(clusters):
    return sorted(json.dumps(cluster, sort_keys=True) for cluster in clusters)


def index_probes(generator):
    """``ncid`` lookups (one absent) and ``meta.first_version`` ranges."""
    ncids = sorted(cluster["ncid"] for cluster in generator.clusters())
    version = generator.current_version
    return [{"ncid": ncid} for ncid in ncids[:: max(1, len(ncids) // 4)]] + [
        {"ncid": "absent"},
        {"meta.first_version": {"$gte": version}},
        {"meta.first_version": {"$gt": 1, "$lte": version}},
    ]


def assert_log_matches(directory, generator):
    """The live store and the store reopened from its WAL alone both equal
    ``generator.clusters()``, and answer indexed reads like a full scan."""
    assert not list(directory.glob("*.jsonl")), "a checkpoint ran"
    expected = canonical_clusters(generator.clusters())
    live = generator.database["clusters"]
    reopened = Database.load(directory)["clusters"]
    for collection in (live, reopened):
        assert canonical_clusters(collection.all()) == expected
        for probe in index_probes(generator):
            assert collection.find(probe) == find_full_scan(collection, probe)


def cluster_log(directory):
    return read_wal(directory / "clusters.wal", 10**9, truncate_torn=False).operations


def durable_generator(directory):
    return TestDataGenerator.from_database(DurableDatabase(directory, "ncvoter"))


def make_record(ncid, last_name="SMITH", **overrides):
    record = empty_record()
    record.update(ncid=ncid, last_name=last_name, first_name="JOHN", age="40")
    record.update(overrides)
    return record


def custom_plausibility(cluster, version):
    """Rescores every record under each version, old records included."""
    return {j: {i: 0.25 for i in range(j)} for j in range(1, len(cluster["records"]))}


def written_shapes(directory):
    """Each journaled update path with its positions replaced by ``#``."""
    return {
        ".".join("#" if part.isdigit() else part for part in write[0].split("."))
        for op in cluster_log(directory)
        if op["op"] == "update"
        for write in op["writes"]
    }


class TestWalReplaysEveryPublish:
    @pytest.mark.parametrize("plausibility_fn", [None, custom_plausibility])
    def test_import_and_statistics(self, tmp_path, snapshots, plausibility_fn):
        generator = durable_generator(tmp_path)
        process = UpdateProcess(generator, plausibility_fn=plausibility_fn)
        for snapshot in snapshots[:4]:
            generator.import_snapshot(snapshot)
            process.update_statistics()
            generator.publish()
            assert_log_matches(tmp_path, generator)
        kinds = {op["op"] for op in cluster_log(tmp_path)}
        assert kinds == {"create", "index", "insert", "update"}
        shapes = written_shapes(tmp_path)
        assert {
            "records.#", "records.#.snapshots.#", "meta.hashes.#",
        } <= shapes
        assert any(shape.startswith("meta.inserts_per_snapshot.") for shape in shapes)
        # Only a custom scorer writes score maps on already stored records.
        assert ("records.#.plausibility.#" in shapes) == (plausibility_fn is not None)
        generator.database.close()

    def test_augment(self, tmp_path, snapshots):
        generator = durable_generator(tmp_path)
        process = UpdateProcess(generator)
        generator.import_snapshot(snapshots[0])
        generator.publish()
        stats = Augmenter(generator, AugmentationPlan(share_of_clusters=0.5)).augment()
        assert stats.records_added
        generator.publish()
        assert_log_matches(tmp_path, generator)
        generator.import_snapshot(snapshots[1])
        Augmenter(generator, AugmentationPlan(seed=1)).augment()
        process.update_statistics()
        generator.publish()
        assert_log_matches(tmp_path, generator)
        generator.database.close()

    def test_parallel_import(self, tmp_path, snapshots):
        generator = durable_generator(tmp_path)
        import_snapshots_parallel(generator, snapshots[:3], shards=2, max_workers=0)
        generator.publish()
        assert_log_matches(tmp_path, generator)
        generator.import_snapshot(snapshots[3])
        UpdateProcess(generator).update_statistics()
        generator.publish()
        assert_log_matches(tmp_path, generator)
        generator.database.close()

    def test_resume(self, tmp_path, snapshots):
        generator = durable_generator(tmp_path)
        UpdateProcess(generator).run_incremental(snapshots[:2])
        generator.database.close()
        process = UpdateProcess.resume(tmp_path)
        process.run_incremental(snapshots[:4])
        assert process.generator.current_version == 4
        assert_log_matches(tmp_path, process.generator)
        process.generator.database.close()


def spy_on_writes(monkeypatch):
    """Every ``(_id, writes)`` pair sent through ``Collection.write_by_id``."""
    sent = []
    write_by_id = Collection.write_by_id

    def spy(collection, batch):
        batch = list(batch)
        sent.extend(batch)
        return write_by_id(collection, batch)

    monkeypatch.setattr(Collection, "write_by_id", spy)
    return sent


class TestPublishTraffic:
    def test_only_written_paths_are_sent(self, snapshots, monkeypatch):
        generator = TestDataGenerator()
        process = UpdateProcess(generator)
        generator.import_snapshot(snapshots[0])
        process.update_statistics()
        generator.publish()
        sent = spy_on_writes(monkeypatch)
        monkeypatch.setattr(
            Collection, "replace_one",
            lambda *args: pytest.fail("publish rewrote a whole cluster"),
        )
        # Scoring without new records writes no score map, so no cluster
        # is sent even though every cluster was scored.
        process.update_statistics()
        generator.publish()
        assert sent == []
        generator.import_snapshot(snapshots[1])
        process.update_statistics()
        recorded = {
            ncid: [".".join(path) for path in paths]
            for ncid, paths in generator._dirty.items()
            if paths
        }
        generator.publish()
        assert sent and {ncid for ncid, _ in sent} == set(recorded)
        for ncid, writes in sent:
            # Post-states only, each of a recorded path or of the parent
            # it is written through.
            assert writes and all(len(write) == 2 for write in writes)
            assert all(
                any(
                    path == written or written.startswith(path + ".")
                    for written in recorded[ncid]
                )
                for path, _ in writes
            )

    def test_a_key_containing_a_dot_is_written_through_its_parent(
        self, tmp_path, monkeypatch
    ):
        generator = durable_generator(tmp_path)
        first = make_record("AA1", snapshot_dt="2012.01.01")
        generator.import_snapshot(Snapshot("2012.01.01", [first]))
        generator.publish()
        sent = spy_on_writes(monkeypatch)
        second = make_record("AA1", last_name="SMYTH", snapshot_dt="2013.01.01")
        generator.import_snapshot(Snapshot("2013.01.01", [second]))
        generator.publish()
        assert [ncid for ncid, _ in sent] == ["AA1"]
        assert [path for path, _ in sent[0][1]] == [
            "meta.hashes.1", "meta.inserts_per_snapshot", "records.1",
        ]
        assert_log_matches(tmp_path, generator)
        generator.database.close()
