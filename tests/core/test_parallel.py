"""Tests for sharded parallel snapshot import."""

import pytest

from repro.core import RemovalLevel, TestDataGenerator
from repro.core.parallel import import_snapshots_parallel, shard_of


class TestShardOf:
    def test_deterministic(self):
        assert shard_of("AA100001", 4) == shard_of("AA100001", 4)

    def test_whitespace_insensitive(self):
        assert shard_of(" AA1 ", 4) == shard_of("AA1", 4)

    def test_range(self):
        for entity_id in ("AA1", "BB2", "CC3", "DD4", "EE5"):
            assert 0 <= shard_of(entity_id, 3) < 3

    def test_distributes(self):
        shards = {shard_of(f"AA{i}", 4) for i in range(100)}
        assert shards == {0, 1, 2, 3}


class TestParallelImport:
    def test_matches_sequential_import(self, snapshots):
        sequential = TestDataGenerator(removal=RemovalLevel.TRIMMED)
        sequential.import_snapshots(snapshots)

        parallel = TestDataGenerator(removal=RemovalLevel.TRIMMED)
        import_snapshots_parallel(parallel, snapshots, shards=4, max_workers=0)

        assert parallel.cluster_count == sequential.cluster_count
        assert parallel.record_count == sequential.record_count
        assert parallel.duplicate_pair_count == sequential.duplicate_pair_count
        for ncid, cluster in sequential._clusters.items():
            other = parallel.cluster(ncid)
            assert other is not None
            assert other["meta"]["hashes"] == cluster["meta"]["hashes"]

    def test_merged_stats_match_sequential(self, snapshots):
        sequential = TestDataGenerator(removal=RemovalLevel.TRIMMED)
        sequential_stats = sequential.import_snapshots(snapshots)

        parallel = TestDataGenerator(removal=RemovalLevel.TRIMMED)
        parallel_stats = import_snapshots_parallel(
            parallel, snapshots, shards=3, max_workers=0
        )
        assert len(parallel_stats) == len(sequential_stats)
        for left, right in zip(parallel_stats, sequential_stats):
            assert left.snapshot_date == right.snapshot_date
            assert left.rows == right.rows
            assert left.new_records == right.new_records
            assert left.new_clusters == right.new_clusters

    def test_single_shard_equals_sequential(self, snapshots):
        parallel = TestDataGenerator(removal=RemovalLevel.TRIMMED)
        import_snapshots_parallel(parallel, snapshots, shards=1, max_workers=0)
        sequential = TestDataGenerator(removal=RemovalLevel.TRIMMED)
        sequential.import_snapshots(snapshots)
        assert parallel.record_count == sequential.record_count

    def test_publish_after_parallel_import(self, snapshots):
        generator = TestDataGenerator(removal=RemovalLevel.TRIMMED)
        import_snapshots_parallel(generator, snapshots, shards=4, max_workers=0)
        version = generator.publish("parallel initial load")
        assert version == 1
        stored = generator.database["versions"].find_one({"_id": 1})
        assert stored["records"] == generator.record_count
        assert stored["snapshots"] == [s.date for s in snapshots]

    def test_non_empty_generator_rejected(self, snapshots):
        generator = TestDataGenerator(removal=RemovalLevel.TRIMMED)
        generator.import_snapshot(snapshots[0])
        with pytest.raises(ValueError):
            import_snapshots_parallel(generator, snapshots[1:], max_workers=0)

    def test_invalid_shards(self, snapshots):
        generator = TestDataGenerator()
        with pytest.raises(ValueError):
            import_snapshots_parallel(generator, snapshots, shards=0)

    def test_process_pool_path(self, snapshots):
        # the real multiprocessing path on a small subset
        generator = TestDataGenerator(removal=RemovalLevel.TRIMMED)
        import_snapshots_parallel(
            generator, snapshots[:2], shards=2, max_workers=2
        )
        sequential = TestDataGenerator(removal=RemovalLevel.TRIMMED)
        sequential.import_snapshots(snapshots[:2])
        assert generator.record_count == sequential.record_count


class TestWorkerClamping:
    def test_zero_and_none_stay_zero(self):
        from repro.core.parallel import effective_worker_count

        assert effective_worker_count(0, warn=False) == 0
        assert effective_worker_count(None, warn=False) == 0

    def test_negative_request_rejected(self):
        from repro.core.parallel import effective_worker_count

        with pytest.raises(ValueError, match="workers must be >= 0, got -1"):
            effective_worker_count(-1, warn=False)

    def test_within_cpu_budget_unchanged(self):
        from repro.core.parallel import effective_worker_count

        assert effective_worker_count(1, warn=False) == 1

    def test_oversubscription_clamps_to_cpu_count(self):
        import os

        from repro.core.parallel import effective_worker_count

        cpus = os.cpu_count() or 1
        assert effective_worker_count(cpus + 5, warn=False) == cpus

    def test_warns_once_per_label(self):
        import os
        import warnings

        from repro.core.parallel import WorkerClampWarning, effective_worker_count

        cpus = os.cpu_count() or 1
        label = "clamp warn-once probe"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            effective_worker_count(cpus + 1, label=label)
            effective_worker_count(cpus + 1, label=label)
        clamps = [w for w in caught if issubclass(w.category, WorkerClampWarning)]
        assert len(clamps) <= 1  # once, or zero if an earlier test used it
        if clamps:
            assert clamps[0].message.requested == cpus + 1
            assert clamps[0].message.effective == cpus
