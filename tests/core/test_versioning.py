"""Tests for the update process and version-similarity maps (Section 5)."""

import json

import pytest

import repro.core.versioning as versioning
from repro.core import RemovalLevel, TestDataGenerator
from repro.core.heterogeneity import HeterogeneityScorer
from repro.core.plausibility import cluster_plausibility, score_clusters
from repro.core.versioning import UpdateProcess, similarity_at_version
from repro.votersim.schema import empty_record
from repro.votersim.snapshots import Snapshot


def make_record(ncid="AA1", last_name="SMITH", snapshot="2012-01-01", **overrides):
    record = empty_record()
    record.update(
        ncid=ncid,
        last_name=last_name,
        first_name="JOHN",
        midl_name="Q",
        sex_code="M",
        sex="MALE",
        age="40",
        birth_place="NORTH CAROLINA",
        snapshot_dt=snapshot,
    )
    record.update(overrides)
    return record


@pytest.fixture
def updated_generator():
    generator = TestDataGenerator(removal=RemovalLevel.TRIMMED)
    process = UpdateProcess(generator)
    process.run([Snapshot("2012-01-01", [make_record(), make_record("AA2")])])
    process.run(
        [
            Snapshot(
                "2013-01-01",
                [make_record(last_name="SMYTH", snapshot="2013-01-01", age="41")],
            )
        ]
    )
    return generator


class TestUpdateProcess:
    def test_each_run_bumps_version(self, updated_generator):
        assert updated_generator.current_version == 2

    def test_version_documents(self, updated_generator):
        versions = updated_generator.database["versions"]
        assert versions.count_documents() == 2
        second = versions.find_one({"_id": 2})
        assert second["records"] == 3

    def test_statistics_only_update(self):
        generator = TestDataGenerator()
        process = UpdateProcess(generator)
        process.run([Snapshot("2012-01-01", [make_record()])], compute_statistics=False)
        version = process.run(note="recompute stats")
        assert version == 2
        note = generator.database["versions"].find_one({"_id": 2})["note"]
        assert note == "recompute stats"

    def test_plausibility_maps_written_incrementally(self, updated_generator):
        cluster = updated_generator.cluster("AA1")
        first, second = cluster["records"]
        assert first["plausibility"] == {}  # nothing earlier to compare to
        assert set(second["plausibility"]) == {"2"}
        assert set(second["plausibility"]["2"]) == {"0"}

    def test_heterogeneity_maps_both_scopes(self, updated_generator):
        cluster = updated_generator.cluster("AA1")
        second = cluster["records"][1]
        assert "2" in second["heterogeneity"]
        assert "2" in second["heterogeneity_person"]

    def test_scores_not_recomputed_for_old_pairs(self):
        generator = TestDataGenerator()
        process = UpdateProcess(generator)
        process.run([Snapshot("2012-01-01", [make_record(), make_record(last_name="SMYTHE")])])
        cluster = generator.cluster("AA1")
        original = dict(cluster["records"][1]["plausibility"])
        process.run([Snapshot("2013-01-01", [make_record(last_name="SCHMIDT", snapshot="2013-01-01")])])
        cluster = generator.cluster("AA1")
        assert cluster["records"][1]["plausibility"] == original  # untouched
        assert "2" in cluster["records"][2]["plausibility"]


class TestSimilarityAtVersion:
    def test_merges_maps_up_to_version(self):
        record = {
            "plausibility": {
                "1": {"0": 0.9},
                "3": {"1": 0.8, "2": 0.7},
            }
        }
        assert similarity_at_version(record, "plausibility", 1) == {0: 0.9}
        assert similarity_at_version(record, "plausibility", 2) == {0: 0.9}
        assert similarity_at_version(record, "plausibility", 3) == {
            0: 0.9, 1: 0.8, 2: 0.7,
        }

    def test_missing_kind_is_empty(self):
        assert similarity_at_version({}, "plausibility", 5) == {}


class TestHistoricalReconstruction:
    def test_plausibility_of_old_version_reproducible(self, updated_generator):
        cluster = updated_generator.cluster("AA1")
        # at version 1 the cluster had a single record -> plausibility 1.0
        assert cluster_plausibility(cluster, version=1) == 1.0
        # at version 2 both records exist -> score possibly below 1
        assert cluster_plausibility(cluster, version=2) <= 1.0

    def test_stored_scores_match_recomputation(self, updated_generator):
        from repro.core.plausibility import pair_plausibility
        from repro.core.clusters import record_view

        cluster = updated_generator.cluster("AA1")
        first, second = cluster["records"]
        stored = second["plausibility"]["2"]["0"]
        recomputed = pair_plausibility(
            record_view(first, ("person",)),
            record_view(second, ("person",)),
            first["snapshots"][0],
            second["snapshots"][0],
        )
        assert stored == pytest.approx(recomputed, abs=1e-5)


def _canonical(clusters):
    return sorted(json.dumps(cluster, sort_keys=True) for cluster in clusters)


def _full_rescan_update(generator):
    """The reference statistics step: every cluster scored, weights rebuilt."""
    profile = generator.profile
    version = generator.pending_version
    clusters = list(generator.clusters())
    primary = (profile.primary_group,)
    primary_attributes = tuple(
        a for a in profile.primary_attributes() if a != profile.id_attribute
    )
    scored = {
        "plausibility": score_clusters(clusters, version),
        "heterogeneity": HeterogeneityScorer.from_clusters(
            clusters, profile.group_names, profile.scored_attributes(profile.group_names)
        ).score_clusters(clusters, profile.group_names, version=version),
        "heterogeneity_person": HeterogeneityScorer.from_clusters(
            clusters, primary, primary_attributes
        ).score_clusters(clusters, primary, version=version),
    }
    for cluster in clusters:
        for kind, by_ncid in scored.items():
            for j, row in by_ncid[cluster["ncid"]].items():
                cluster["records"][j][kind][str(version)] = {
                    str(i): round(score, 6) for i, score in row.items()
                }


class TestStatisticsScoreOnlyWhatAVersionAdds:
    def test_only_clusters_that_receive_maps_are_shipped(self, snapshots, monkeypatch):
        generator = TestDataGenerator()
        shipped, per_version, stored = [], [], []
        score, publish = versioning.score_clusters_parallel, generator.publish

        def counting(clusters, version=None, **kwargs):
            shipped.extend(cluster["ncid"] for cluster in clusters)
            return score(clusters, version, **kwargs)

        def publishing(**kwargs):
            # A cluster receives maps when this snapshot inserted a record
            # that has an earlier record to be compared with.
            date = generator._imported_snapshots[-1]
            expected = sorted(
                cluster["ncid"]
                for cluster in generator.clusters()
                if cluster["meta"]["inserts_per_snapshot"].get(date)
                and len(cluster["records"]) > 1
            )
            per_version.append((sorted(shipped), expected))
            stored.append(generator.cluster_count)
            shipped.clear()
            return publish(**kwargs)

        monkeypatch.setattr(versioning, "score_clusters_parallel", counting)
        monkeypatch.setattr(generator, "publish", publishing)
        UpdateProcess(generator).run_incremental(snapshots)
        assert len(per_version) == len(snapshots)
        for received, expected in per_version:
            assert received == expected
        received_total = sum(len(received) for received, _ in per_version)
        assert 0 < received_total < sum(stored)
        assert per_version[0][0] == []  # the first version has no earlier record

    @pytest.mark.parametrize("workers, shards", [(0, None), (2, 3)])
    def test_documents_equal_full_rescan(self, snapshots, workers, shards):
        reference = TestDataGenerator()
        for snapshot in snapshots:
            reference.import_snapshot(snapshot)
            _full_rescan_update(reference)
            reference.publish()
        generator = TestDataGenerator()
        UpdateProcess(generator, workers=workers, shards=shards).run_incremental(
            snapshots
        )
        expected = _canonical(reference.clusters())
        assert _canonical(generator.clusters()) == expected
        assert _canonical(generator.database["clusters"].all()) == expected

    def test_custom_plausibility_sees_every_cluster_each_update(self, snapshots):
        generator = TestDataGenerator()
        calls = []

        def custom(cluster, version):
            calls.append((version, cluster["ncid"]))
            return {}

        published = UpdateProcess(generator, plausibility_fn=custom).run_incremental(
            snapshots[:5]
        )
        for version in published:
            seen = [ncid for at, ncid in calls if at == version]
            at_version = [
                cluster["ncid"]
                for cluster in generator.clusters()
                if cluster["meta"]["first_version"] <= version
            ]
            assert sorted(seen) == sorted(at_version)
