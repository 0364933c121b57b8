"""Batched & parallel cluster scoring must match the naive reference exactly.

Three layers are pinned against the uncached oracle in
:mod:`repro.core._reference`:

* the per-cluster APIs (``score_cluster`` / ``score_cluster_document``),
* the batched pair-dedup entry points (``score_clusters``),
* the sharded pipeline (``score_clusters_parallel``) — which must also be
  deterministic: any shard count produces identical cluster documents.
"""

import pytest

from repro.core import RemovalLevel, TestDataGenerator
from repro.core import _reference as coreref
from repro.core.heterogeneity import HeterogeneityScorer
from repro.core.parallel import score_clusters_parallel
from repro.core.plausibility import score_cluster, score_clusters
from repro.core.versioning import UpdateProcess


@pytest.fixture(scope="module")
def clusters(snapshots):
    gen = TestDataGenerator(removal=RemovalLevel.TRIMMED)
    gen.import_snapshots(snapshots)
    return list(gen.clusters())


@pytest.fixture(scope="module")
def plausibility_oracle(clusters):
    return coreref.score_plausibility_reference(clusters)


class TestPlausibilityBatch:
    def test_batch_matches_reference(self, clusters, plausibility_oracle):
        assert score_clusters(clusters) == plausibility_oracle

    def test_per_cluster_matches_reference(self, clusters, plausibility_oracle):
        for cluster in clusters:
            if len(cluster["records"]) > 1:
                assert score_cluster(cluster) == plausibility_oracle[cluster["ncid"]]

    def test_version_filter_matches_reference(self, clusters):
        scored = score_clusters(clusters, version=1)
        assert scored == coreref.score_plausibility_reference(clusters, version=1)


class TestHeterogeneityBatch:
    def test_batch_matches_reference(self, clusters):
        scorer = HeterogeneityScorer.from_clusters(clusters, ("person",))
        batched = scorer.score_clusters(clusters, ("person",))
        oracle = coreref.score_heterogeneity_reference(
            scorer.weights, clusters, ("person",)
        )
        assert batched == oracle

    def test_batch_matches_per_cluster_api(self, clusters):
        scorer = HeterogeneityScorer.from_clusters(clusters, ("person",))
        batched = scorer.score_clusters(clusters, ("person",))
        for cluster in clusters:
            assert batched[cluster["ncid"]] == scorer.score_cluster_document(
                cluster, ("person",)
            )

    def test_shared_cache_across_calls(self, clusters):
        scorer = HeterogeneityScorer.from_clusters(clusters, ("person",))
        cache = {}
        first = scorer.score_clusters(clusters, ("person",), cache=cache)
        filled = len(cache)
        second = scorer.score_clusters(clusters, ("person",), cache=cache)
        assert first == second
        assert len(cache) == filled  # second pass adds no new pairs


class TestParallelDeterminism:
    def test_shard_counts_agree(self, clusters, plausibility_oracle):
        scorer = HeterogeneityScorer.from_clusters(clusters, ("person",))
        results = [
            score_clusters_parallel(
                clusters,
                heterogeneity_all=scorer,
                shards=shards,
                max_workers=0,
            )
            for shards in (1, 2, 4)
        ]
        assert results[0] == results[1] == results[2]
        for cluster in clusters:
            maps = results[0][cluster["ncid"]]
            assert maps["plausibility"] == plausibility_oracle[cluster["ncid"]]

    def test_process_pool_matches_in_process(self, clusters):
        scorer = HeterogeneityScorer.from_clusters(clusters, ("person",))
        some = clusters[:40]
        in_process = score_clusters_parallel(
            some, heterogeneity_all=scorer, shards=2, max_workers=0
        )
        pooled = score_clusters_parallel(
            some, heterogeneity_all=scorer, shards=2, max_workers=2
        )
        assert pooled == in_process

    def test_rejects_bad_shards(self, clusters):
        with pytest.raises(ValueError):
            score_clusters_parallel(clusters, shards=0)


class TestUpdateProcessWiring:
    def test_worker_counts_yield_identical_documents(self, snapshots):
        documents = []
        for workers, shards in ((0, 1), (0, 4), (2, 2)):
            gen = TestDataGenerator(removal=RemovalLevel.TRIMMED)
            process = UpdateProcess(gen, workers=workers, shards=shards)
            process.run(snapshots)
            documents.append(
                {cluster["ncid"]: cluster for cluster in gen.clusters()}
            )
        assert documents[0] == documents[1] == documents[2]

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"workers": -1}, "workers must be >= 0, got -1"),
            ({"shards": 0}, "shards must be >= 1, got 0"),
            ({"workers": 2, "shards": -3}, "shards must be >= 1, got -3"),
        ],
    )
    def test_rejects_bad_workers_and_shards(self, options, message):
        with pytest.raises(ValueError, match=message):
            UpdateProcess(TestDataGenerator(), **options)
