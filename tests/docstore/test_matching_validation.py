"""Compile-time validation behaviour of ``compile_filter``.

These pin the guarantees the static analyzer builds on: malformed filters
fail when the filter is *compiled*, before any document is inspected, and
mixed operator/plain conditions are a hard error instead of silently
degrading to literal equality.
"""

import pytest

from repro.docstore.errors import QueryError
from repro.docstore.matching import compile_filter, matches


class TestCompileTimeErrors:
    def test_errors_raise_before_any_document_is_seen(self):
        for bad in (
            {"a": {"$in": 5}},
            {"a": {"$regex": "["}},
            {"a": {"$regex": 42}},
            {"a": {"$size": -1}},
            {"a": {"$size": True}},
            {"a": {"$elemMatch": [1]}},
            {"$and": {"a": 1}},
            {"a": {"$unknownOp": 1}},
            {1: 2},
            {"$or": [{1: 2}]},
            {"xs": {"$elemMatch": {2: 3}}},
        ):
            with pytest.raises(QueryError):
                compile_filter(bad)

    def test_elem_match_inner_filter_validated_at_compile_time(self):
        with pytest.raises(QueryError):
            compile_filter({"xs": {"$elemMatch": {"v": {"$regex": "["}}}})

    def test_not_operand_validated_at_compile_time(self):
        with pytest.raises(QueryError):
            compile_filter({"a": {"$not": {"$in": "abc"}}})


class TestMixedConditions:
    def test_mixed_dollar_and_plain_keys_raise(self):
        with pytest.raises(QueryError, match="mixes"):
            compile_filter({"a": {"$gt": 1, "b": 2}})

    def test_pure_plain_dict_is_literal_equality(self):
        assert matches({"a": {"b": 2}}, {"a": {"b": 2}})
        assert not matches({"a": {"b": 2, "c": 3}}, {"a": {"b": 2}})

    def test_pure_operator_dict_still_works(self):
        assert matches({"a": 5}, {"a": {"$gt": 1, "$lt": 9}})


class TestPrecompiledRegex:
    def test_regex_matches_after_compilation(self):
        predicate = compile_filter({"name": {"$regex": "^SM"}})
        assert predicate({"name": "SMITH"})
        assert not predicate({"name": "JONES"})

    def test_compiled_predicate_is_reusable(self):
        predicate = compile_filter({"n": {"$gte": 3}, "name": {"$regex": "H$"}})
        hits = [
            doc
            for doc in (
                {"n": 4, "name": "SMITH"},
                {"n": 2, "name": "SMITH"},
                {"n": 9, "name": "DOE"},
            )
            if predicate(doc)
        ]
        assert hits == [{"n": 4, "name": "SMITH"}]
