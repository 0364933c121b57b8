"""Runtime sanitizer tests: read-result mutation safety and the determinism
harness.

The last class is the acceptance gate for the parallel entry points:
``score_candidates_packed`` and ``score_clusters_parallel`` must produce
bit-identical results across the (1, 1) / (2, 4) / (4, 8) worker/shard
configurations.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heterogeneity import HeterogeneityScorer
from repro.core.parallel import score_clusters_parallel
from repro.core import RemovalLevel, TestDataGenerator
from repro.dedup import DetectionPipeline, RecordMatcher, score_candidates_packed
from repro.docstore import Database
from repro.docstore.collection import Collection
from repro.sanitizers import (
    DEFAULT_CONFIGS,
    NondeterminismError,
    determinism_check,
)


@pytest.fixture()
def people():
    collection = Collection("people")
    collection.insert_many(
        [
            {"name": "ada", "tags": ["x", "y"], "meta": {"age": 36}},
            {"name": "ben", "tags": [], "meta": {"age": 41}},
        ]
    )
    return collection


# Random documents with nested dicts and lists — the shapes a lazy
# DocumentView wraps on access.
_view_values = st.one_of(
    st.integers(-5, 5),
    st.sampled_from(["x", "yy"]),
    st.none(),
    st.booleans(),
    st.lists(st.integers(-3, 3), max_size=3),
)
_view_documents = st.lists(
    st.fixed_dictionaries(
        {"ncid": st.sampled_from(["AA1", "BB2", "CC3"])},
        optional={
            "a": _view_values,
            "nested": st.fixed_dictionaries(
                {"x": st.integers(-3, 3)},
                optional={"lst": st.lists(st.integers(0, 3), max_size=3)},
            ),
        },
    ),
    min_size=1,
    max_size=8,
)


class TestLazyViewMutationSafety:
    """Copy-on-read views: caller mutations must never reach the store.

    Documents returned by reads are the caller's to wreck, and the stored
    state must not notice.
    """

    @given(_view_documents, st.data())
    @settings(max_examples=120, deadline=None)
    def test_mutating_results_never_corrupts_stored_state(self, docs, data):
        collection = Database()["c"]
        collection.create_index("ncid", "hash")
        for position, doc in enumerate(docs):
            stored = dict(doc)
            stored.setdefault("_id", position)
            collection.insert_one(copy.deepcopy(stored))
        baseline = copy.deepcopy(list(collection.all()))

        probes = [{}, {"ncid": "AA1"}, {"a": {"$exists": True}}]
        for _ in range(data.draw(st.integers(1, 3))):
            returned = collection.find(data.draw(st.sampled_from(probes)))
            for document in returned:
                # Top-level writes, nested writes through chained views,
                # list mutation, deletion, then total destruction.
                document["smashed"] = [1, {"deep": 2}]
                nested = document.get("nested")
                if isinstance(nested, dict):
                    nested["x"] = 99
                    nested.setdefault("lst", []).append(7)
                value = document.get("a")
                if isinstance(value, list):
                    value.append(123)
                document.pop("a", None)
                document.clear()
        single = collection.find_one({"ncid": "AA1"})
        if single is not None:
            single["ncid"] = "ZZ9"
        # Distinct values that are containers: sub-documents and lists.
        for value in collection.distinct(data.draw(st.sampled_from(["nested", "a"]))):
            if isinstance(value, dict):
                value["x"] = 99
                value.setdefault("lst", []).append(7)
            elif isinstance(value, list):
                value.append(123)
        assert copy.deepcopy(list(collection.all())) == baseline

    def test_aggregate_results_are_mutation_safe(self, people):
        baseline = copy.deepcopy(list(people.all()))
        for row in people.aggregate([{"$project": {"name": 1, "meta": 1}}]):
            row["meta"]["age"] = -1
            row["name"] = "mangled"
        for row in people.aggregate([{"$unwind": "$tags"}]):
            row["tags"] = "mangled"
            row["meta"]["age"] = -2
        assert copy.deepcopy(list(people.all())) == baseline

    def test_views_deep_copy_to_plain_containers(self, people):
        document = people.find_one({"name": "ada"})
        clone = copy.deepcopy(document)
        assert type(clone) is dict
        assert type(clone["meta"]) is dict
        assert type(clone["tags"]) is list
        clone["meta"]["age"] = 0
        assert people.find_one({"name": "ada"})["meta"]["age"] == 36


class TestDeterminismCheckHarness:
    def test_consistent_computation_passes(self):
        report = determinism_check(lambda workers, shards: [1, 2, 3])
        assert report.consistent
        assert report.configs == DEFAULT_CONFIGS
        assert report.divergences == ()

    def test_divergence_names_the_config_and_element(self):
        def compute(workers, shards):
            return {"scores": [1, 2, 3 if shards < 8 else 4]}

        with pytest.raises(NondeterminismError) as info:
            determinism_check(compute, label="scores")
        message = str(info.value)
        assert "scores diverged at workers=4 shards=8" in message
        assert "$.scores[2]: 4 != 3" in message

    def test_report_mode_collects_instead_of_raising(self):
        def compute(workers, shards):
            return workers  # every config differs from the baseline

        report = determinism_check(compute, raise_on_divergence=False)
        assert not report.consistent
        assert len(report.divergences) == 2
        assert report.baseline == 1

    def test_rejects_empty_configs(self):
        with pytest.raises(ValueError):
            determinism_check(lambda workers, shards: 0, configs=())


# ----------------------------------------------------- acceptance criteria

ATTRIBUTES = ("first_name", "midl_name", "last_name", "city", "zip")
NAME_ATTRIBUTES = ("first_name", "midl_name", "last_name")

_NAMES = ("ANNA", "ANNE", "BEN", "BENNY", "CARL", "CARLA", "DORA", "DORIS")


def _overlap(left, right):
    """A deliberately non-trivial (but pure and picklable) measure."""
    if left == right:
        return 1.0
    if not left or not right:
        return 0.0
    shared = len(set(left) & set(right))
    return shared / max(len(set(left)), len(set(right)))


def _synthetic_records(count=48):
    records = []
    for i in range(count):
        records.append(
            {
                "first_name": _NAMES[i % len(_NAMES)],
                "midl_name": _NAMES[(i // 2) % len(_NAMES)],
                "last_name": _NAMES[(i * 3) % len(_NAMES)],
                "city": f"CITY{i % 5}",
                "zip": str(10000 + i % 7),
            }
        )
    return records


@pytest.fixture(scope="module")
def clusters(snapshots):
    gen = TestDataGenerator(removal=RemovalLevel.TRIMMED)
    gen.import_snapshots(snapshots)
    return list(gen.clusters())


class TestParallelEntryPointsAreDeterministic:
    def test_score_candidates_packed(self):
        records = _synthetic_records()
        pipeline = DetectionPipeline(window=6, passes=3)
        keys, _stats = pipeline.candidates(records, ATTRIBUTES)
        assert keys, "fixture produced no candidate pairs"
        matcher = RecordMatcher.from_records(
            records, ATTRIBUTES, _overlap, NAME_ATTRIBUTES
        )
        report = determinism_check(
            lambda workers, shards: score_candidates_packed(
                records, keys, matcher, shards=shards, max_workers=workers
            ),
            label="score_candidates_packed",
        )
        assert report.consistent
        assert report.configs == ((1, 1), (2, 4), (4, 8))

    def test_score_clusters_parallel(self, clusters):
        subset = clusters[:40]
        scorer = HeterogeneityScorer.from_clusters(subset, ("person",))
        report = determinism_check(
            lambda workers, shards: score_clusters_parallel(
                subset,
                heterogeneity_all=scorer,
                shards=shards,
                max_workers=workers,
            ),
            label="score_clusters_parallel",
        )
        assert report.consistent
        assert report.configs == ((1, 1), (2, 4), (4, 8))
