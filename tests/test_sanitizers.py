"""Runtime sanitizer tests: frozen documents and the determinism harness.

The last class is the acceptance gate for the parallel entry points:
``score_candidates_packed`` and ``score_clusters_parallel`` must produce
bit-identical results across the (1, 1) / (2, 4) / (4, 8) worker/shard
configurations.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sanitizers
from repro.core.heterogeneity import HeterogeneityScorer
from repro.core.parallel import score_clusters_parallel
from repro.core import RemovalLevel, TestDataGenerator
from repro.dedup import DetectionPipeline, RecordMatcher, score_candidates_packed
from repro.docstore import Database
from repro.docstore.collection import Collection
from repro.sanitizers import (
    DEFAULT_CONFIGS,
    FrozenDocumentError,
    NondeterminismError,
    determinism_check,
    freeze,
    freeze_documents,
    thaw,
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


class TestFrozenContainers:
    def test_reads_behave_like_plain_containers(self):
        frozen = freeze({"a": [1, {"b": 2}], "c": "text"})
        assert frozen["a"][1]["b"] == 2
        assert list(frozen) == ["a", "c"]
        assert len(frozen["a"]) == 2
        assert frozen == {"a": [1, {"b": 2}], "c": "text"}

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.__setitem__("k", 1),
            lambda d: d.__delitem__("a"),
            lambda d: d.pop("a"),
            lambda d: d.popitem(),
            lambda d: d.clear(),
            lambda d: d.update(k=1),
            lambda d: d.setdefault("k", 1),
        ],
    )
    def test_dict_mutators_raise(self, mutate):
        frozen = freeze({"a": 1})
        with pytest.raises(FrozenDocumentError):
            mutate(frozen)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda l: l.append(1),
            lambda l: l.extend([1]),
            lambda l: l.insert(0, 1),
            lambda l: l.remove(1),
            lambda l: l.pop(),
            lambda l: l.clear(),
            lambda l: l.sort(),
            lambda l: l.reverse(),
            lambda l: l.__setitem__(0, 9),
            lambda l: l.__delitem__(0),
        ],
    )
    def test_list_mutators_raise(self, mutate):
        frozen = freeze({"a": [1, 2]})["a"]
        with pytest.raises(FrozenDocumentError):
            mutate(frozen)

    def test_thaw_returns_plain_mutable_containers(self):
        thawed = thaw(freeze({"a": [1, {"b": 2}]}))
        assert type(thawed) is dict
        assert type(thawed["a"]) is list
        thawed["a"].append(3)
        assert thawed["a"][-1] == 3

    def test_deepcopy_escapes_the_freeze(self):
        duplicate = copy.deepcopy(freeze({"a": [1]}))
        assert type(duplicate) is dict and type(duplicate["a"]) is list
        duplicate["a"].append(2)
        assert duplicate == {"a": [1, 2]}


class TestFreezeDocuments:
    def test_find_results_are_poisoned(self, people):
        with freeze_documents():
            rows = people.find({"name": "ada"})
            assert rows[0]["meta"]["age"] == 36
            with pytest.raises(FrozenDocumentError):
                rows[0]["name"] = "eve"
            with pytest.raises(FrozenDocumentError):
                rows[0]["tags"].append("z")

    def test_find_one_aggregate_and_all_are_covered(self, people):
        with freeze_documents():
            one = people.find_one({"name": "ben"})
            with pytest.raises(FrozenDocumentError):
                one["meta"].update(age=42)
            (row,) = people.aggregate([{"$match": {"name": "ada"}}])
            with pytest.raises(FrozenDocumentError):
                row.pop("name")
            for document in people.all():
                with pytest.raises(FrozenDocumentError):
                    document["seen"] = True

    def test_methods_are_restored_on_exit(self, people):
        with freeze_documents():
            pass
        row = people.find({"name": "ada"})[0]
        row["name"] = "mutable-again"  # plain dict once the block ends
        assert people.find({"name": "ada"})[0]["name"] == "ada"

    def test_nested_blocks_restore_cleanly(self, people):
        with freeze_documents():
            with freeze_documents():
                with pytest.raises(FrozenDocumentError):
                    people.find_one({"name": "ada"})["x"] = 1
            with pytest.raises(FrozenDocumentError):
                people.find_one({"name": "ada"})["x"] = 1
        people.find_one({"name": "ada"})["x"] = 1  # unfrozen again

    def test_writes_still_work_under_freezing(self, people):
        with freeze_documents():
            people.insert_one({"name": "cleo"})
            assert people.find_one({"name": "cleo"})["name"] == "cleo"


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

    The hypothesis property is the runtime counterpart of what
    ``freeze_documents`` polices statically: documents returned by reads
    are the caller's to wreck, and the stored state must not notice.
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
