"""Unit tests for the index-usage hint analyzer (I4xx codes).

One test class per code, mirroring ``tests/analysis/test_analyzer.py``;
every I4xx code documented in ``docs/static-analysis.md`` is pinned here.
"""

from repro.analysis import PUSHDOWN_STAGES, WARNING, analyze_index_usage
from repro.docstore import Collection


def codes(diagnostics):
    return [d.code for d in diagnostics]


HASH_ON_AGE = [{"path": "age", "kind": "hash"}]
SORTED_ON_AGE = [{"path": "age", "kind": "sorted"}]
BOTH = [{"path": "age", "kind": "hash"}, {"path": "age", "kind": "sorted"}]


class TestCleanShapes:
    def test_no_indexes_no_hints(self):
        assert analyze_index_usage({"age": {"$gt": 1}}, indexes=[]) == []

    def test_servable_conditions_are_silent(self):
        assert analyze_index_usage({"age": 3}, indexes=HASH_ON_AGE) == []
        assert analyze_index_usage({"age": {"$in": [1, 2]}}, indexes=HASH_ON_AGE) == []
        assert (
            analyze_index_usage({"age": {"$gte": 1, "$lt": 9}}, indexes=SORTED_ON_AGE)
            == []
        )

    def test_unindexed_path_is_silent(self):
        assert analyze_index_usage({"name": {"$regex": "a"}}, indexes=HASH_ON_AGE) == []

    def test_mixed_condition_with_servable_operator_is_silent(self):
        # The $eq can use the index; $regex just stays residual.
        diagnostics = analyze_index_usage(
            {"age": {"$eq": 3, "$exists": True}}, indexes=HASH_ON_AGE
        )
        assert diagnostics == []


class TestI401RangeOnHashIndex:
    def test_range_on_hash_only_path(self):
        diagnostics = analyze_index_usage({"age": {"$gt": 30}}, indexes=HASH_ON_AGE)
        assert codes(diagnostics) == ["I401"]
        assert diagnostics[0].severity == WARNING
        assert "sorted index" in diagnostics[0].hint

    def test_sorted_index_silences_it(self):
        assert analyze_index_usage({"age": {"$gt": 30}}, indexes=BOTH) == []

    def test_inside_and_branch(self):
        diagnostics = analyze_index_usage(
            {"$and": [{"age": {"$lt": 9}}]}, indexes=HASH_ON_AGE
        )
        assert codes(diagnostics) == ["I401"]
        assert "$and[0]" in diagnostics[0].path


class TestI402IndexBlindOperators:
    def test_ne_on_indexed_path(self):
        diagnostics = analyze_index_usage({"age": {"$ne": 3}}, indexes=BOTH)
        assert codes(diagnostics) == ["I402"]

    def test_regex_on_indexed_path(self):
        diagnostics = analyze_index_usage(
            {"age": {"$regex": "^4"}}, indexes=HASH_ON_AGE
        )
        assert codes(diagnostics) == ["I402"]


class TestI403OrOverIndexedPaths:
    def test_or_over_indexed_path(self):
        diagnostics = analyze_index_usage(
            {"$or": [{"age": 3}, {"age": 4}]}, indexes=HASH_ON_AGE
        )
        assert codes(diagnostics) == ["I403"]

    def test_or_over_unindexed_paths_is_silent(self):
        assert (
            analyze_index_usage(
                {"$or": [{"name": "a"}, {"name": "b"}]}, indexes=HASH_ON_AGE
            )
            == []
        )


class TestI404SortCannotUseIndex:
    def test_sort_on_hash_only_path(self):
        diagnostics = analyze_index_usage(
            None, sort=[("age", 1)], indexes=HASH_ON_AGE
        )
        assert codes(diagnostics) == ["I404"]

    def test_sort_on_sorted_path_is_silent(self):
        assert analyze_index_usage(None, sort=[("age", -1)], indexes=BOTH) == []

    def test_multi_field_sort_over_sorted_path(self):
        diagnostics = analyze_index_usage(
            None, sort=[("age", 1), ("name", 1)], indexes=SORTED_ON_AGE
        )
        assert codes(diagnostics) == ["I404"]

    def test_multi_field_sort_without_indexes_is_silent(self):
        assert (
            analyze_index_usage(
                None, sort=[("x", 1), ("y", 1)], indexes=SORTED_ON_AGE
            )
            == []
        )


class TestI405MatchBlockedFromPushdown:
    def test_match_after_group(self):
        diagnostics = analyze_index_usage(
            pipeline=[
                {"$group": {"_id": "$city", "age": {"$min": "$age"}}},
                {"$match": {"age": {"$gte": 30}}},
            ],
            indexes=SORTED_ON_AGE,
        )
        assert codes(diagnostics) == ["I405"]
        assert "stage[1]" in diagnostics[0].path

    def test_leading_match_is_analyzed_not_blocked(self):
        diagnostics = analyze_index_usage(
            pipeline=[{"$match": {"age": {"$gt": 1}}}, {"$group": {"_id": None}}],
            indexes=HASH_ON_AGE,
        )
        assert codes(diagnostics) == ["I401"]

    def test_match_on_unindexed_path_after_block_is_silent(self):
        assert (
            analyze_index_usage(
                pipeline=[{"$unwind": "$r"}, {"$match": {"r.x": 1}}],
                indexes=SORTED_ON_AGE,
            )
            == []
        )


class TestPushdownRegistryPin:
    def test_matches_planner(self):
        from repro.docstore.planner import split_pushdown

        pushdown = split_pushdown(
            [
                {"$match": {"a": 1}},
                {"$sort": {"a": 1}},
                {"$skip": 1},
                {"$limit": 1},
                {"$group": {"_id": None}},
            ]
        )
        assert set(pushdown.pushed) == PUSHDOWN_STAGES


class TestExplainSurfacesHints:
    def test_explain_includes_rendered_hints(self):
        collection = Collection("c")
        collection.create_index("age", "hash")
        collection.insert_many([{"age": n} for n in range(5)])
        explained = collection.explain({"age": {"$gt": 2}})
        assert explained["plan"] == "full_scan"
        assert any("I401" in hint for hint in explained["hints"])

    def test_explain_clean_query_has_no_hints(self):
        collection = Collection("c")
        collection.create_index("age", "sorted")
        collection.insert_many([{"age": n} for n in range(5)])
        explained = collection.explain({"age": {"$gt": 2}}, sort=[("age", 1)])
        assert explained["hints"] == []
