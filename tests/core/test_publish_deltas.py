"""Publish writes per-cluster deltas that replay to the generator's state.

Every in-package writer records the paths it writes, and
:meth:`TestDataGenerator.publish` sends a stored cluster only those paths
through ``update_one``.  These tests reopen the store from its
write-ahead log alone (no checkpoint ever ran) after every publish and
compare it with the generator's in-memory clusters, so a writer that
forgets to record a path shows up as a difference.
"""

import json

import pytest

from repro.core import TestDataGenerator
from repro.core.augment import AugmentationPlan, Augmenter
from repro.core.parallel import import_snapshots_parallel
from repro.core.versioning import UpdateProcess
from repro.docstore import Collection, Database, DurableDatabase
from repro.docstore.wal import read_wal
from repro.votersim.schema import empty_record
from repro.votersim.snapshots import Snapshot


def canonical_clusters(clusters):
    return sorted(json.dumps(cluster, sort_keys=True) for cluster in clusters)


def assert_log_matches(directory, generator):
    """The store reopened from its WAL alone equals ``generator.clusters()``."""
    assert not list(directory.glob("*.jsonl")), "a checkpoint ran"
    reopened = Database.load(directory)
    assert canonical_clusters(reopened["clusters"].all()) == canonical_clusters(
        generator.clusters()
    )


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


class TestPublishTraffic:
    def test_only_written_paths_are_sent(self, snapshots, monkeypatch):
        generator = TestDataGenerator()
        process = UpdateProcess(generator)
        generator.import_snapshot(snapshots[0])
        process.update_statistics()
        generator.publish()
        sent = []
        update_one = Collection.update_one

        def spy(collection, query, update):
            sent.append(update)
            return update_one(collection, query, update)

        monkeypatch.setattr(Collection, "update_one", spy)
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
        generator.publish()
        assert sent and all(list(update) == ["$set"] for update in sent)

    def test_a_key_containing_a_dot_is_written_through_its_parent(
        self, tmp_path, monkeypatch
    ):
        generator = durable_generator(tmp_path)
        first = make_record("AA1", snapshot_dt="2012.01.01")
        generator.import_snapshot(Snapshot("2012.01.01", [first]))
        generator.publish()
        sent = []
        update_one = Collection.update_one

        def spy(collection, query, update):
            sent.append(update)
            return update_one(collection, query, update)

        monkeypatch.setattr(Collection, "update_one", spy)
        second = make_record("AA1", last_name="SMYTH", snapshot_dt="2013.01.01")
        generator.import_snapshot(Snapshot("2013.01.01", [second]))
        generator.publish()
        assert list(sent[0]["$set"]) == [
            "meta.hashes.1", "meta.inserts_per_snapshot", "records.1",
        ]
        assert_log_matches(tmp_path, generator)
        generator.database.close()
