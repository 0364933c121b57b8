"""Unit tests for copy-on-read views, the only way reads return documents.

``DocumentView``/``ListView`` must be observably identical to the deep
copies they replace — equality, iteration, JSON, pickling — while keeping
caller mutations away from the wrapped storage, and results held across
writes must keep showing the version they were read from.
"""

import copy
import json
import pickle

import pytest

from repro.docstore import Collection
from repro.docstore.views import DocumentView, ListView, lazy_document, thaw, wrap_value


def sample():
    return {"a": 1, "nested": {"x": [1, {"deep": 2}]}, "tags": ["p", "q"]}


class TestDocumentView:
    def test_reads_equal_the_wrapped_document(self):
        stored = sample()
        view = lazy_document(stored)
        assert view == stored
        assert dict(view) == stored
        assert view["nested"]["x"][1]["deep"] == 2
        assert sorted(view) == sorted(stored)
        assert len(view) == len(stored)
        assert json.dumps(view, sort_keys=True) == json.dumps(
            stored, sort_keys=True
        )

    def test_nested_access_returns_memoized_views(self):
        view = lazy_document(sample())
        assert isinstance(view["nested"], DocumentView)
        assert isinstance(view["tags"], ListView)
        assert view["nested"] is view["nested"]  # wrapped once, reused

    def test_mutations_stay_in_the_view(self):
        stored = sample()
        view = lazy_document(stored)
        view["a"] = 99
        view["nested"]["x"].append("extra")
        view["nested"]["x"][1]["deep"] = -1
        view["tags"].pop()
        del view["nested"]["x"][0]
        assert stored == sample()  # storage untouched
        assert view["a"] == 99
        assert view["nested"]["x"][0]["deep"] == -1

    def test_items_and_values_wrap_everything(self):
        view = lazy_document(sample())
        for _key, value in view.items():
            if isinstance(value, (dict, list)):
                assert isinstance(value, (DocumentView, ListView))
        assert all(
            not type(value) in (dict, list) for value in view.values()
        )

    def test_deepcopy_and_pickle_escape_to_plain_containers(self):
        view = lazy_document(sample())
        for clone in (copy.deepcopy(view), pickle.loads(pickle.dumps(view))):
            assert clone == sample()
            assert type(clone) is dict
            assert type(clone["nested"]) is dict
            assert type(clone["nested"]["x"]) is list

    def test_thaw_returns_independent_plain_copy(self):
        stored = sample()
        thawed = thaw(lazy_document(stored))
        assert type(thawed) is dict and thawed == stored
        thawed["nested"]["x"][1]["deep"] = -5
        assert stored == sample()

    def test_wrap_value_passes_scalars_and_views_through(self):
        assert wrap_value(7) == 7
        assert wrap_value("s") == "s"
        assert wrap_value(None) is None
        view = lazy_document(sample())
        assert wrap_value(view) is view
        assert isinstance(wrap_value([1, 2]), ListView)


class TestRawCopyEscapes:
    """C-level copy APIs must never expose the stored containers.

    ``dict(view)`` / ``{**view}`` / ``plain.update(view)`` normally take a
    raw-table fast path that ignores ``__getitem__``; the ``__iter__``
    override opts the views out of it, so every copy's nested containers
    are themselves views and mutating a copy can never reach the store.
    """

    def assert_store_safe(self, stored, copied):
        copied["nested"]["x"].append("poison")
        copied["nested"]["x"][1]["deep"] = "poison"
        copied["tags"].append("poison")
        assert stored == sample()

    def test_dict_constructor_wraps_nested_containers(self):
        stored = sample()
        self.assert_store_safe(stored, dict(lazy_document(stored)))

    def test_dict_unpacking_wraps_nested_containers(self):
        stored = sample()
        self.assert_store_safe(stored, {**lazy_document(stored)})

    def test_plain_dict_update_wraps_nested_containers(self):
        stored = sample()
        target = {}
        target.update(lazy_document(stored))
        self.assert_store_safe(stored, target)

    def test_view_copy_wraps_nested_containers(self):
        stored = sample()
        copied = lazy_document(stored).copy()
        assert type(copied) is dict
        self.assert_store_safe(stored, copied)

    def test_dict_union_wraps_nested_containers(self):
        stored = sample()
        self.assert_store_safe(stored, lazy_document(stored) | {"extra": 1})
        self.assert_store_safe(stored, {"extra": 1} | lazy_document(stored))

    def test_list_copy_concat_and_repeat_wrap_elements(self):
        stored = sample()
        view = lazy_document(stored)
        for copied in (
            view["tags"].copy(),
            view["tags"] + ["z"],
            ["z"] + view["tags"],
            view["tags"] * 2,
            2 * view["tags"],
            view["nested"]["x"] + view["nested"]["x"],
        ):
            assert type(copied) is list
            for element in copied:
                if isinstance(element, dict):
                    element["deep"] = "poison"
        assert stored == sample()

    def test_list_constructor_and_extend_wrap_elements(self):
        stored = sample()
        view = lazy_document(stored)
        target = list(view["nested"]["x"])
        target.extend(view["nested"]["x"])
        for element in target:
            if isinstance(element, dict):
                element["deep"] = "poison"
        assert stored == sample()


class TestWriteAfterReadStability:
    """Results handed out before a write must never change after it.

    Eager mode returned independent deep copies; lazy views must match
    that.  They do because no write mutates a stored document: an update
    installs a new version that copies only the paths it writes
    (``PathCopy``), a replace or delete swaps the map entry, and the
    version a view was built over stays as it was.
    """

    def test_update_after_find_one_leaves_result_stable(self):
        collection = Collection("c")
        collection.insert_one({"_id": 1, "a": {"b": 1}, "tags": [1]})
        before = collection.find_one({"_id": 1})
        collection.update_one({"_id": 1}, {"$set": {"a.b": 2}})
        collection.update_one({"_id": 1}, {"$push": {"tags": 9}})
        assert before["a"]["b"] == 1
        assert before["tags"] == [1]
        assert collection.find_one({"_id": 1})["a"]["b"] == 2

    @pytest.mark.parametrize(
        "write",
        [
            lambda c: c.update_many({}, {"$set": {"a.b": -1}}),
            lambda c: c.replace_one({"_id": 3}, {"ncid": "NEW", "a": {"b": -1}}),
            lambda c: c.delete_many({}),
        ],
        ids=["update_many", "replace_one", "delete_many"],
    )
    def test_update_after_find_leaves_results_stable_for_every_match(self, write):
        collection = Collection("c")
        collection.insert_many(
            {"_id": i, "ncid": f"NC{i}", "a": {"b": i}} for i in range(6)
        )
        before = collection.find({}, sort=[("_id", 1)])
        write(collection)
        assert [doc["a"]["b"] for doc in before] == list(range(6))
        assert [doc["ncid"] for doc in before] == [f"NC{i}" for i in range(6)]

    def test_repeated_update_between_reads_copies_each_time(self):
        collection = Collection("c")
        collection.insert_one({"_id": 1, "a": {"b": 0}})
        held = []
        for expected in range(3):
            held.append(collection.find_one({"_id": 1}))
            collection.update_one({"_id": 1}, {"$inc": {"a.b": 1}})
        assert [doc["a"]["b"] for doc in held] == [0, 1, 2]

    def test_interleaved_all_iteration_stays_stable(self):
        collection = Collection("c")
        collection.insert_many({"_id": i, "a": {"b": i}} for i in range(4))
        stream = collection.all()
        held = [next(stream), next(stream)]
        collection.update_many({}, {"$set": {"a.b": -1}})
        held.extend(stream)
        assert [doc["a"]["b"] for doc in held[:2]] == [0, 1]
        # Documents materialized after the write see its effect, as eager
        # iteration over live state always did.
        assert [doc["a"]["b"] for doc in held[2:]] == [-1, -1]

    def test_all_skips_documents_deleted_mid_iteration(self):
        collection = Collection("c")
        collection.insert_many({"_id": i} for i in range(4))
        stream = collection.all()
        held = [next(stream)]
        collection.delete_many({"_id": 1})
        held.extend(stream)
        assert [doc["_id"] for doc in held] == [0, 2, 3]
