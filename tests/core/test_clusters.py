"""Tests for the cluster document layout helpers."""

from repro.core.clusters import (
    cluster_pairs,
    duplicate_pair_count,
    full_view,
    record_view,
    split_record,
)
from repro.docstore import Database
from repro.votersim.schema import ALL_ATTRIBUTES


class TestSplitRecord:
    def test_groups(self):
        record = {
            "ncid": "AA1",
            "last_name": "SMITH",
            "county_desc": "WAKE",
            "election_lbl": "11/06/2012 GENERAL",
            "snapshot_dt": "2012-01-01",
        }
        parts = split_record(record)
        assert parts["person"] == {"ncid": "AA1", "last_name": "SMITH"}
        assert parts["district"] == {"county_desc": "WAKE"}
        assert parts["election"] == {"election_lbl": "11/06/2012 GENERAL"}
        assert parts["meta"] == {"snapshot_dt": "2012-01-01"}

    def test_empty_values_dropped_for_sparsity(self):
        record = {a: "" for a in ALL_ATTRIBUTES}
        record["last_name"] = "SMITH"
        parts = split_record(record)
        assert parts["person"] == {"last_name": "SMITH"}
        assert parts["district"] == {}

    def test_whitespace_only_values_dropped(self):
        parts = split_record({"last_name": "   "})
        assert parts["person"] == {}

    def test_unknown_attributes_ignored(self):
        parts = split_record({"not_in_schema": "X", "last_name": "Y"})
        assert parts["person"] == {"last_name": "Y"}
        assert all("not_in_schema" not in sub for sub in parts.values())


class TestRecordView:
    def test_person_view(self):
        doc = {"person": {"last_name": "SMITH"}, "meta": {"snapshot_dt": "2012"}}
        assert record_view(doc) == {"last_name": "SMITH"}

    def test_multi_group_view(self):
        doc = {"person": {"a": 1}, "district": {"b": 2}}
        assert record_view(doc, ("person", "district")) == {"a": 1, "b": 2}

    def test_full_view(self):
        doc = {
            "person": {"a": 1},
            "district": {"b": 2},
            "election": {"c": 3},
            "meta": {"d": 4},
        }
        assert full_view(doc) == {"a": 1, "b": 2, "c": 3, "d": 4}

    def test_missing_groups_tolerated(self):
        assert record_view({}, ("person",)) == {}

    def test_flat_of_a_store_view_is_independent_of_the_store(self):
        stored = {
            "_id": "AA1",
            "records": [
                {
                    "person": {"last_name": "SMITH", "tags": ["x"], "alias": {"v": "S"}},
                    "district": {"county_desc": "WAKE"},
                }
            ],
        }
        database = Database("views")
        database["clusters"].insert_one(stored)
        (view,) = database["clusters"].all()
        flat = record_view(view["records"][0], ("person", "district"))
        assert flat == {
            "last_name": "SMITH", "tags": ["x"], "alias": {"v": "S"}, "county_desc": "WAKE",
        }
        flat["last_name"] = "JONES"
        flat["tags"].append("y")
        flat["alias"]["v"] = "J"
        flat["county_desc"] = "DURHAM"
        assert database["clusters"].find_one({"_id": "AA1"}) == stored


class TestPairs:
    def test_cluster_pairs_order(self):
        cluster = {"records": [1, 2, 3]}
        assert list(cluster_pairs(cluster)) == [(0, 1), (0, 2), (1, 2)]

    def test_singleton_has_no_pairs(self):
        assert list(cluster_pairs({"records": [1]})) == []

    def test_duplicate_pair_count(self):
        assert duplicate_pair_count(1) == 0
        assert duplicate_pair_count(2) == 1
        assert duplicate_pair_count(5) == 10
        assert duplicate_pair_count(238) == 28203
