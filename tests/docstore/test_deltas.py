"""Path-copying updates and the delta journal.

An update builds a document's next version by copying only the containers
on the paths it writes; the version is journaled, indexed and installed
only once every operator succeeded.  The write-ahead log records the
post-state of each written path (list elements by position), and replay
sends those writes through the same path-copying routine.
"""

import json

import pytest

from repro import faults
from repro.docstore import (
    Collection,
    Database,
    DegradedWriteError,
    DurableDatabase,
    QueryError,
)
from repro.docstore.documents import PathCopy
from repro.docstore.storage import save_database
from repro.docstore.wal import read_wal


def logged(directory, name="docs"):
    """Every record of a collection's log, commit markers excluded."""
    recovery = read_wal(directory / f"{name}.wal", 10**9, truncate_torn=False)
    return [
        {key: value for key, value in op.items() if key != "commit_epoch"}
        for op in recovery.operations
    ]


class TestPathCopy:
    def test_untouched_subtrees_stay_shared(self):
        old = {"a": {"b": 1}, "c": {"d": [1, 2]}, "tags": ["x"]}
        version = PathCopy(old)
        version.set("a.b", 2)
        new = version.document
        assert old == {"a": {"b": 1}, "c": {"d": [1, 2]}, "tags": ["x"]}
        assert new["a"] == {"b": 2} and new["a"] is not old["a"]
        assert new["c"] is old["c"] and new["tags"] is old["tags"]

    def test_each_container_is_copied_once_per_version(self):
        old = {"records": [{"snapshots": ["d1"]}, {"snapshots": []}]}
        version = PathCopy(old)
        version.set("records.0.snapshots.1", "d2")
        records = version.document["records"]
        version.set("records.0.snapshots.2", "d3")
        assert version.document["records"] is records
        assert records[0]["snapshots"] == ["d1", "d2", "d3"]
        assert records[1] is old["records"][1]
        assert old["records"][0]["snapshots"] == ["d1"]

    def test_past_the_end_pads_with_none(self):
        version = PathCopy({"tags": ["a"]})
        version.set("tags.3", "d")
        assert version.document["tags"] == ["a", None, None, "d"]

    def test_past_the_end_intermediate_creates_a_document(self):
        version = PathCopy({"xs": []})
        version.set("xs.1.v", 9)
        assert version.document["xs"] == [None, {"v": 9}]

    def test_non_numeric_list_segment_raises(self):
        with pytest.raises(QueryError):
            PathCopy({"xs": [{"v": 1}]}).set("xs.v", 2)

    def test_unset_of_absent_path_writes_nothing(self):
        version = PathCopy({"a": {"b": 1}, "xs": [1]})
        assert version.unset("a.c") is False
        assert version.unset("xs.v") is False
        assert version.unset("q.r") is False
        assert version.writes == []

    def test_writes_journal_post_states_in_order(self):
        version = PathCopy({"a": 1, "tags": ["x"]})
        version.set("tags.1", "y")
        version.unset("a")
        assert version.writes == [["tags.1", "y"], ["a"]]

    def test_apply_replays_writes(self):
        old = {"a": 1, "tags": ["x"]}
        version = PathCopy(old)
        version.set("tags.1", "y")
        version.unset("a")
        replayed = PathCopy(old)
        replayed.apply(json.loads(json.dumps(version.writes)))
        assert replayed.document == version.document == {"tags": ["x", "y"]}


class TestPositionalSet:
    def test_set_at_list_end_appends(self):
        collection = Collection("c")
        collection.insert_one({"_id": 1, "tags": ["a"]})
        collection.update_one({"_id": 1}, {"$set": {"tags.1": "b"}})
        assert collection.find_one({"_id": 1})["tags"] == ["a", "b"]

    def test_set_past_list_end_pads_with_null(self):
        collection = Collection("c")
        collection.insert_one({"_id": 1, "tags": ["a"]})
        collection.update_one({"_id": 1}, {"$set": {"tags.3": "d"}})
        assert collection.find_one({"_id": 1})["tags"] == ["a", None, None, "d"]


class TestAtomicUpdates:
    """A failed update leaves the document untouched, live and on disk."""

    def test_failed_update_is_not_half_applied(self, tmp_path):
        database = DurableDatabase(tmp_path)
        docs = database["docs"]
        docs.insert_one({"_id": 1, "n": 5})
        database.commit()
        before = {"_id": 1, "n": 5}
        with pytest.raises(QueryError):
            docs.update_one({"_id": 1}, {"$set": {"a": 1}, "$push": {"n": 2}})
        assert docs.find_one({"_id": 1}) == before
        database.commit()
        database.close()
        reopened = DurableDatabase(tmp_path)
        assert reopened["docs"].find_one({"_id": 1}) == before
        reopened.close()

    def test_update_many_keeps_documents_before_the_failure(self, tmp_path):
        database = DurableDatabase(tmp_path)
        docs = database["docs"]
        docs.insert_many(
            [{"_id": 1, "n": [1]}, {"_id": 2, "n": 2}, {"_id": 3, "n": [3]}]
        )
        with pytest.raises(QueryError):
            docs.update_many({}, {"$set": {"seen": True}, "$push": {"n": 0}})
        expected = [
            {"_id": 1, "n": [1, 0], "seen": True},
            {"_id": 2, "n": 2},
            {"_id": 3, "n": [3]},
        ]
        assert list(docs.all()) == expected
        database.close()
        reopened = DurableDatabase(tmp_path)
        assert list(reopened["docs"].all()) == expected
        reopened.close()

    def test_failed_update_leaves_indexes_alone(self):
        collection = Collection("c")
        collection.create_index("k")
        collection.insert_one({"_id": 1, "k": "a", "n": 5})
        with pytest.raises(QueryError):
            collection.update_one({"_id": 1}, {"$set": {"k": "b"}, "$push": {"n": 1}})
        assert collection.find({"k": "a"}) == [{"_id": 1, "k": "a", "n": 5}]
        assert collection.find({"k": "b"}) == []


class TestDeltaJournal:
    @pytest.fixture
    def database(self, tmp_path):
        database = DurableDatabase(tmp_path)
        database["docs"].insert_one(
            {"_id": 1, "tags": ["a", "b", "c"], "n": 1, "old": {"x": 1}}
        )
        return database

    def journaled(self, database, tmp_path, update):
        database["docs"].update_one({"_id": 1}, update)
        database.commit()
        return logged(tmp_path)[-1]

    def test_push_journals_the_element_position(self, database, tmp_path):
        record = self.journaled(database, tmp_path, {"$push": {"tags": "d"}})
        assert record == {"op": "update", "id": 1, "writes": [["tags.3", "d"]]}

    def test_inc_and_pull_journal_the_resulting_value(self, database, tmp_path):
        record = self.journaled(
            database, tmp_path, {"$inc": {"n": 4}, "$pull": {"tags": "b"}}
        )
        assert record["writes"] == [["n", 5], ["tags", ["a", "c"]]]

    def test_unset_and_rename_journal_removals(self, database, tmp_path):
        record = self.journaled(
            database, tmp_path, {"$unset": {"n": ""}, "$rename": {"old.x": "new"}}
        )
        assert record["writes"] == [["n"], ["old.x"], ["new", 1]]

    def test_update_that_writes_nothing_journals_nothing(self, database, tmp_path):
        database.commit()
        before = logged(tmp_path)
        database["docs"].update_one({"_id": 1}, {"$unset": {"absent": ""}})
        database["docs"].update_one({"_id": 1}, {"$addToSet": {"tags": "a"}})
        database["docs"].update_one({"_id": 1}, {"$pull": {"tags": "zz"}})
        database.commit()
        assert logged(tmp_path) == before

    def test_replace_one_journals_the_whole_document(self, database, tmp_path):
        database["docs"].replace_one({"_id": 1}, {"v": 2})
        database.commit()
        assert logged(tmp_path)[-1] == {
            "op": "replace", "id": 1, "doc": {"_id": 1, "v": 2},
        }
        database.close()
        assert list(Database.load(tmp_path)["docs"].all()) == [{"_id": 1, "v": 2}]

    def test_every_operator_replays_to_the_live_state(self, database, tmp_path):
        docs = database["docs"]
        docs.update_one({"_id": 1}, {"$push": {"tags": "d"}, "$inc": {"n": 2}})
        docs.update_one({"_id": 1}, {"$addToSet": {"tags": "e"}})
        docs.update_one({"_id": 1}, {"$pull": {"tags": "a"}})
        docs.update_one({"_id": 1}, {"$rename": {"old": "renamed"}})
        docs.update_one({"_id": 1}, {"$unset": {"renamed.x": ""}})
        docs.update_one({"_id": 1}, {"$set": {"tags.6": "g", "deep.er.path": [1]}})
        live = docs.find_one({"_id": 1})
        database.close()
        assert Database.load(tmp_path)["docs"].find_one({"_id": 1}) == live

    def test_update_of_an_absent_id_replays_as_a_no_op(self, tmp_path):
        database = DurableDatabase(tmp_path)
        docs = database["docs"]
        docs.insert_one({"_id": 1, "n": 1})
        docs.update_one({"_id": 1}, {"$set": {"n": 2}})
        docs.delete_many({"_id": 1})
        database.close()
        collection = Database.load(tmp_path)["docs"]
        collection._replay_update(1, [["n", 3]])
        assert len(collection) == 0

    def test_stale_log_replays_over_a_newer_snapshot(self, tmp_path):
        """A crash between a checkpoint's snapshot and its log rotation.

        The stale log's positional ``tags.3`` write lands on the newer
        snapshot's one-element list; null padding keeps it from failing,
        and the later logged ``$set`` restores the snapshot's value.
        """
        database = DurableDatabase(tmp_path)
        docs = database["docs"]
        docs.insert_one({"_id": 1, "tags": ["a", "b", "c"]})
        database.checkpoint()
        docs.update_one({"_id": 1}, {"$push": {"tags": "d"}})
        docs.update_one({"_id": 1}, {"$set": {"tags": ["z"]}})
        database.commit()
        save_database(database, tmp_path)  # the snapshot lands, no rotation
        database.close(commit=False)
        assert logged(tmp_path)[0]["writes"] == [["tags.3", "d"]]
        reopened = DurableDatabase(tmp_path)
        assert list(reopened["docs"].all()) == [{"_id": 1, "tags": ["z"]}]
        reopened.close()

    def test_stale_log_replays_over_a_changed_container_type(self, tmp_path):
        """A stale write into a document whose field later became a list."""
        database = DurableDatabase(tmp_path)
        docs = database["docs"]
        docs.insert_one({"_id": 1, "a": {"x": 0}})
        database.checkpoint()
        docs.update_one({"_id": 1}, {"$set": {"a.x": 1}})
        docs.update_one({"_id": 1}, {"$set": {"a": [1]}})
        database.commit()
        save_database(database, tmp_path)  # the snapshot lands, no rotation
        database.close(commit=False)
        reopened = DurableDatabase(tmp_path)
        assert list(reopened["docs"].all()) == [{"_id": 1, "a": [1]}]
        reopened.close()


class TestWriteById:
    """A batch of post-state writes by ``_id``: staged, journaled, installed."""

    @pytest.fixture
    def database(self, tmp_path):
        database = DurableDatabase(tmp_path)
        docs = database["docs"]
        docs.create_index("k")
        docs.insert_many(
            [
                {"_id": 1, "k": "a", "tags": ["x"], "xs": [1]},
                {"_id": 2, "k": "b", "n": 1},
                {"_id": 3, "k": "c"},
            ]
        )
        database.commit()
        return database

    def test_batch_is_one_append_of_per_document_records(self, database, tmp_path):
        docs = database["docs"]
        batch = [(1, [["tags.1", "y"]]), ("absent", [["n", 9]]), (2, [["k", "z"], ["n"]])]
        changed = []
        writes = faults.count_ops(
            lambda: changed.append(docs.write_by_id(batch)), only=("write",)
        )
        assert changed == [2] and writes == 1
        database.commit()
        assert logged(tmp_path)[-2:] == [
            {"op": "update", "id": 1, "writes": [["tags.1", "y"]]},
            {"op": "update", "id": 2, "writes": [["k", "z"], ["n"]]},
        ]
        assert docs.find({"k": "z"}) == [{"_id": 2, "k": "z"}]
        assert docs.find({"k": "b"}) == []
        live = list(docs.all())
        database.close()
        assert list(Database.load(tmp_path)["docs"].all()) == live

    @pytest.mark.parametrize(
        "bad",
        [["_id", 5], ["_id.x", 5], ["xs.v", 1], ["a", 1, 2], "tags", [7, 1]],
        ids=["id", "id-child", "list-by-key", "three-items", "not-a-list", "non-str-path"],
    )
    def test_a_malformed_write_changes_nothing(self, database, tmp_path, bad):
        docs = database["docs"]
        before = list(docs.all())
        log = logged(tmp_path)
        with pytest.raises(QueryError):
            docs.write_by_id([(2, [["k", "z"]]), (1, [["tags.1", "y"], bad])])
        database.commit()
        assert list(docs.all()) == before
        assert docs.find({"k": "z"}) == []
        assert logged(tmp_path) == log

    def test_values_are_copied_once(self, database):
        value = {"deep": [1]}
        database["docs"].write_by_id([(3, [["v", value]])])
        value["deep"].append(2)
        assert database["docs"].find_one({"_id": 3})["v"] == {"deep": [1]}

    def test_an_id_listed_twice_builds_one_version(self, database, tmp_path):
        docs = database["docs"]
        assert docs.write_by_id([(3, [["n", 1]]), (3, [["m", 2]])]) == 1
        database.commit()
        assert logged(tmp_path)[-1] == {
            "op": "update", "id": 3, "writes": [["n", 1], ["m", 2]],
        }
        assert docs.find_one({"_id": 3}) == {"_id": 3, "k": "c", "n": 1, "m": 2}

    def test_replay_skips_what_a_live_write_rejects(self, database):
        docs = database["docs"]
        with pytest.raises(QueryError):
            docs.write_by_id([(1, [["xs.v", 1]])])
        docs._replay_update(1, [["xs.v", 1], ["n", 4]])
        assert docs.find_one({"_id": 1})["n"] == 4

    def test_a_quarantined_collection_refuses_the_batch(self, database):
        docs = database["docs"]
        docs._take_dark("test")
        with pytest.raises(DegradedWriteError):
            docs.write_by_id([(1, [["n", 1]])])


#: Writes whose WAL record cannot be encoded (a set is not JSON), by name.
UNENCODABLE_WRITES = {
    "insert_one": lambda docs: docs.insert_one({"_id": "b", "k": "x", "v": {1, 2}}),
    "insert_many": lambda docs: docs.insert_many(
        [{"_id": "b", "k": "x", "n": 2}, {"_id": "c", "k": "x", "v": {1, 2}}]
    ),
    "update_one": lambda docs: docs.update_one(
        {"_id": "a"}, {"$set": {"k": "y", "n": 5, "w": {1, 2}}}
    ),
    "update_many": lambda docs: docs.update_many(
        {"k": "x"}, {"$set": {"k": "y", "n": 5, "w": {1, 2}}}
    ),
    "replace_one": lambda docs: docs.replace_one(
        {"_id": "a"}, {"k": "y", "n": 5, "v": {1, 2}}
    ),
    "write_by_id": lambda docs: docs.write_by_id(
        [("a", [["k", "y"], ["n", 5], ["w", {1, 2}]])]
    ),
}


@pytest.mark.parametrize("write", sorted(UNENCODABLE_WRITES))
def test_a_write_the_journal_rejects_changes_nothing(tmp_path, write):
    """Memory and log never disagree: the write raises, nothing is installed."""
    database = DurableDatabase(tmp_path)
    docs = database["docs"]
    docs.create_index("k")
    docs.create_index("n", "sorted")
    docs.insert_one({"_id": "a", "k": "x", "n": 1})
    database.commit()
    before = list(docs.all())
    with pytest.raises(TypeError):
        UNENCODABLE_WRITES[write](docs)
    assert list(docs.all()) == before
    assert docs.find({"k": "x"}) == before
    assert docs.find({"k": "y"}) == []
    assert docs.find({"n": {"$gte": 0}}) == before
    assert docs.count_documents({"n": {"$gt": 1}}) == 0
    database.commit()
    database.close()
    reopened = DurableDatabase(tmp_path)
    assert list(reopened["docs"].all()) == before
    reopened.close()


#: Writes storing a list whose elements freeze to index keys of mixed
#: types (``(1,)`` beside ``("a",)``, ``(("x", 1),)`` beside
#: ``(("x", "a"),)``), by name.
MIXED_KEY_WRITES = {
    "insert_one": lambda docs: docs.insert_one({"_id": "b", "v": [[1], ["a"], 3]}),
    "insert_many": lambda docs: docs.insert_many(
        [{"_id": "b", "v": [[1], ["a"], 3]}, {"_id": "c", "v": [{"x": 1}, {"x": "a"}]}]
    ),
    "update_one": lambda docs: docs.update_one(
        {"_id": "a"}, {"$set": {"v": [[None], [1], 3]}}
    ),
    "replace_one": lambda docs: docs.replace_one(
        {"_id": "a"}, {"v": [{"x": 1}, {"x": "a"}, 3]}
    ),
    "write_by_id": lambda docs: docs.write_by_id([("a", [["v", [[1], ["a"], 3]]])]),
}


@pytest.mark.parametrize("write", sorted(MIXED_KEY_WRITES))
def test_a_write_of_mixed_index_keys_stays_reopenable(tmp_path, write):
    """Index maintenance after the journal append cannot raise for JSON values."""
    database = DurableDatabase(tmp_path)
    docs = database["docs"]
    docs.create_index("v", "sorted")
    docs.insert_one({"_id": "a", "v": [["z"]]})
    database.commit()
    MIXED_KEY_WRITES[write](docs)
    live = list(docs.all())
    with_three = docs.find({"v": 3})
    database.commit()
    database.close()
    reopened = DurableDatabase(tmp_path)
    assert list(reopened["docs"].all()) == live
    assert reopened["docs"].find({"v": 3}) == with_three
    reopened.close()
