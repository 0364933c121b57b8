"""Tests for the filter (query) language."""

import pytest

from repro.docstore.errors import QueryError
from repro.docstore.matching import compile_filter, matches


class TestEquality:
    def test_literal_equality(self):
        assert matches({"a": 1}, {"a": 1})
        assert not matches({"a": 1}, {"a": 2})

    def test_nested_path(self):
        assert matches({"a": {"b": "x"}}, {"a.b": "x"})

    def test_missing_field_equals_none(self):
        assert matches({}, {"a": None})
        assert not matches({}, {"a": 1})

    def test_array_contains(self):
        assert matches({"tags": ["x", "y"]}, {"tags": "x"})
        assert not matches({"tags": ["x", "y"]}, {"tags": "z"})

    def test_whole_array_equality(self):
        assert matches({"tags": ["x", "y"]}, {"tags": ["x", "y"]})

    def test_empty_filter_matches_everything(self):
        assert matches({"anything": 1}, {})
        assert matches({}, None)


class TestComparisons:
    def test_gt_gte_lt_lte(self):
        doc = {"n": 5}
        assert matches(doc, {"n": {"$gt": 4}})
        assert not matches(doc, {"n": {"$gt": 5}})
        assert matches(doc, {"n": {"$gte": 5}})
        assert matches(doc, {"n": {"$lt": 6}})
        assert matches(doc, {"n": {"$lte": 5}})

    def test_combined_range(self):
        assert matches({"n": 5}, {"n": {"$gte": 2, "$lt": 9}})
        assert not matches({"n": 1}, {"n": {"$gte": 2, "$lt": 9}})

    def test_comparison_on_missing_field_is_false(self):
        assert not matches({}, {"n": {"$gt": 0}})

    def test_mixed_types_do_not_raise(self):
        assert not matches({"n": "abc"}, {"n": {"$gt": 5}})

    def test_array_any_semantics(self):
        assert matches({"n": [1, 10]}, {"n": {"$gt": 5}})
        assert not matches({"n": [1, 2]}, {"n": {"$gt": 5}})

    def test_ne(self):
        assert matches({"a": 1}, {"a": {"$ne": 2}})
        assert not matches({"a": 1}, {"a": {"$ne": 1}})


class TestSetOperators:
    def test_in(self):
        assert matches({"a": 2}, {"a": {"$in": [1, 2, 3]}})
        assert not matches({"a": 9}, {"a": {"$in": [1, 2, 3]}})

    def test_in_with_array_field(self):
        assert matches({"a": [7, 9]}, {"a": {"$in": [9]}})

    def test_in_missing_matches_none_member(self):
        assert matches({}, {"a": {"$in": [None, 1]}})
        assert not matches({}, {"a": {"$in": [1]}})

    def test_nin(self):
        assert matches({"a": 9}, {"a": {"$nin": [1, 2]}})
        assert not matches({"a": 1}, {"a": {"$nin": [1, 2]}})

    def test_in_requires_list(self):
        with pytest.raises(QueryError):
            matches({"a": 1}, {"a": {"$in": 1}})

    def test_all(self):
        assert matches({"a": [1, 2, 3]}, {"a": {"$all": [1, 3]}})
        assert not matches({"a": [1, 2]}, {"a": {"$all": [1, 3]}})


class TestExistsRegexSize:
    def test_exists(self):
        assert matches({"a": None}, {"a": {"$exists": True}})
        assert not matches({}, {"a": {"$exists": True}})
        assert matches({}, {"a": {"$exists": False}})

    def test_regex(self):
        assert matches({"name": "WILLIAMS"}, {"name": {"$regex": "^WIL"}})
        assert not matches({"name": "SMITH"}, {"name": {"$regex": "^WIL"}})

    def test_regex_on_non_string_is_false(self):
        assert not matches({"name": 42}, {"name": {"$regex": "4"}})

    def test_size(self):
        assert matches({"xs": [1, 2]}, {"xs": {"$size": 2}})
        assert not matches({"xs": [1]}, {"xs": {"$size": 2}})
        assert not matches({"xs": "ab"}, {"xs": {"$size": 2}})

    def test_elem_match(self):
        doc = {"records": [{"v": 1}, {"v": 5}]}
        assert matches(doc, {"records": {"$elemMatch": {"v": {"$gt": 3}}}})
        assert not matches(doc, {"records": {"$elemMatch": {"v": {"$gt": 9}}}})


class TestLogical:
    def test_and(self):
        assert matches({"a": 1, "b": 2}, {"$and": [{"a": 1}, {"b": 2}]})
        assert not matches({"a": 1, "b": 3}, {"$and": [{"a": 1}, {"b": 2}]})

    def test_or(self):
        assert matches({"a": 1}, {"$or": [{"a": 1}, {"a": 2}]})
        assert not matches({"a": 3}, {"$or": [{"a": 1}, {"a": 2}]})

    def test_nor(self):
        assert matches({"a": 3}, {"$nor": [{"a": 1}, {"a": 2}]})

    def test_not_operator(self):
        assert matches({"a": 1}, {"a": {"$not": {"$gt": 5}}})
        assert not matches({"a": 9}, {"a": {"$not": {"$gt": 5}}})

    def test_implicit_and_of_fields(self):
        assert matches({"a": 1, "b": 2}, {"a": 1, "b": 2})
        assert not matches({"a": 1, "b": 9}, {"a": 1, "b": 2})

    def test_unknown_top_level_operator(self):
        with pytest.raises(QueryError):
            matches({}, {"$xor": []})

    def test_unknown_field_operator(self):
        with pytest.raises(QueryError):
            matches({"a": 1}, {"a": {"$near": 1}})

    def test_filter_must_be_dict(self):
        with pytest.raises(QueryError):
            compile_filter([("a", 1)])
