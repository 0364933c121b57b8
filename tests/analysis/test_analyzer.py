"""Unit tests for the query/pipeline static analyzer.

One test class per diagnostic code family, so every code documented in
``docs/static-analysis.md`` is pinned by at least one test.
"""

from repro.analysis import (
    analyze_filter,
    analyze_pipeline,
    cluster_schema,
    has_errors,
)


def codes(diagnostics):
    return [d.code for d in diagnostics]


def only(diagnostics, code):
    found = [d for d in diagnostics if d.code == code]
    assert found, f"expected a {code} in {[d.render() for d in diagnostics]}"
    return found[0]


class TestCleanSpecs:
    def test_empty_filter(self):
        assert analyze_filter({}) == []
        assert analyze_filter(None) == []

    def test_plain_equality(self):
        assert analyze_filter({"a": 1, "b.c": "x"}) == []

    def test_operators(self):
        assert (
            analyze_filter(
                {
                    "n": {"$gt": 1, "$lte": 9},
                    "s": {"$regex": "^A"},
                    "tags": {"$all": ["x"], "$size": 2},
                    "k": {"$in": [1, 2]},
                    "$or": [{"a": 1}, {"a": {"$exists": False}}],
                }
            )
            == []
        )

    def test_literal_subdocument_equality_is_not_mixed(self):
        # No $-keys at all: literal equality against a sub-document.
        assert analyze_filter({"a": {"b": 1, "c": 2}}) == []

    def test_clean_pipeline(self):
        assert (
            analyze_pipeline(
                [
                    {"$match": {"n": {"$gte": 2}}},
                    {"$addFields": {"double": {"$multiply": ["$n", 2]}}},
                    {"$group": {"_id": "$k", "total": {"$sum": "$double"}}},
                    {"$sort": {"total": -1}},
                    {"$limit": 10},
                ]
            )
            == []
        )


class TestQ001UnknownOperator:
    def test_typo_gets_hint(self):
        diagnostic = only(analyze_filter({"a": {"$regx": "x"}}), "Q001")
        assert diagnostic.severity == "error"
        assert "did you mean '$regex'?" in diagnostic.hint

    def test_far_off_name_has_no_hint(self):
        diagnostic = only(analyze_filter({"a": {"$frobnicate": 1}}), "Q001")
        assert diagnostic.hint is None

    def test_inside_not(self):
        assert "Q001" in codes(analyze_filter({"a": {"$not": {"$gtt": 3}}}))

    def test_inside_elem_match(self):
        assert "Q001" in codes(
            analyze_filter({"xs": {"$elemMatch": {"v": {"$gte2": 1}}}})
        )


class TestQ002UnknownTopLevel:
    def test_top_level_typo(self):
        diagnostic = only(analyze_filter({"$andd": [{"a": 1}]}), "Q002")
        assert "did you mean '$and'?" in diagnostic.hint

    def test_field_operator_at_top_level(self):
        # $gt only makes sense under a field; as a top-level key it is Q002.
        assert "Q002" in codes(analyze_filter({"$gt": 3}))


class TestQ003OperandShape:
    def test_in_requires_list(self):
        assert "Q003" in codes(analyze_filter({"a": {"$in": 5}}))

    def test_and_requires_list(self):
        assert "Q003" in codes(analyze_filter({"$and": {"a": 1}}))

    def test_size_rejects_negative_bool_and_str(self):
        assert "Q003" in codes(analyze_filter({"a": {"$size": -1}}))
        assert "Q003" in codes(analyze_filter({"a": {"$size": True}}))
        assert "Q003" in codes(analyze_filter({"a": {"$size": "2"}}))

    def test_elem_match_requires_dict(self):
        assert "Q003" in codes(analyze_filter({"a": {"$elemMatch": [1]}}))

    def test_expression_arity(self):
        assert "Q003" in codes(
            analyze_pipeline([{"$addFields": {"x": {"$subtract": ["$a"]}}}])
        )
        assert "Q003" in codes(
            analyze_pipeline([{"$addFields": {"x": {"$cond": [1, 2]}}}])
        )
        assert "Q003" in codes(
            analyze_pipeline([{"$addFields": {"x": {"$cond": {"if": 1}}}}])
        )
        assert "Q003" in codes(
            analyze_pipeline([{"$addFields": {"x": {"$add": 3}}}])
        )


class TestQ004Regex:
    def test_invalid_pattern_caught_statically(self):
        diagnostic = only(analyze_filter({"a": {"$regex": "["}}), "Q004")
        assert "invalid $regex" in diagnostic.message

    def test_non_string_pattern(self):
        assert "Q004" in codes(analyze_filter({"a": {"$regex": 42}}))

    def test_valid_pattern_is_clean(self):
        assert analyze_filter({"a": {"$regex": "^[A-Z]+$"}}) == []


class TestQ005Vacuous:
    def test_empty_in_warns(self):
        diagnostic = only(analyze_filter({"a": {"$in": []}}), "Q005")
        assert diagnostic.severity == "warning"
        assert "matches no document" in diagnostic.message

    def test_empty_or_and_nin(self):
        assert "Q005" in codes(analyze_filter({"$or": []}))
        assert "Q005" in codes(analyze_filter({"a": {"$nin": []}}))

    def test_vacuous_in_is_only_a_warning(self):
        assert not has_errors(analyze_filter({"a": {"$in": []}}))


class TestQ006MixedKeys:
    def test_mixed_condition(self):
        diagnostic = only(analyze_filter({"a": {"$gt": 1, "b": 2}}), "Q006")
        assert "mixes $-operators" in diagnostic.message

    def test_pure_operator_condition_is_clean(self):
        assert analyze_filter({"a": {"$gt": 1, "$lt": 5}}) == []


class TestQ007UnknownFieldPath:
    def test_typo_in_leaf_gets_path_hint(self):
        schema = cluster_schema()
        diagnostic = only(
            analyze_filter({"records.person.last_nme": "X"}, schema), "Q007"
        )
        assert "records.person.last_name" in diagnostic.hint

    def test_array_indexes_are_transparent(self):
        schema = cluster_schema()
        assert analyze_filter({"records.0.person.last_name": "X"}, schema) == []

    def test_open_prefix_accepts_dynamic_keys(self):
        schema = cluster_schema()
        assert analyze_filter({"records.plausibility.3": {"$lt": 0.5}}, schema) == []

    def test_no_schema_no_field_checks(self):
        assert analyze_filter({"no.such.path": 1}) == []

    def test_intermediate_node_is_known(self):
        schema = cluster_schema()
        assert analyze_filter({"records.person": {"$exists": True}}, schema) == []


class TestQ008MalformedFilter:
    def test_non_dict_filter(self):
        assert "Q008" in codes(analyze_filter([("a", 1)]))

    def test_non_dict_logical_member(self):
        assert "Q008" in codes(analyze_filter({"$and": [{"a": 1}, 7]}))


class TestP101P102Stages:
    def test_unknown_stage_with_hint(self):
        diagnostic = only(analyze_pipeline([{"$grup": {"_id": None}}]), "P101")
        assert "did you mean '$group'?" in diagnostic.hint

    def test_multi_key_stage(self):
        assert "P102" in codes(analyze_pipeline([{"$match": {}, "$limit": 1}]))

    def test_non_dict_stage(self):
        assert "P102" in codes(analyze_pipeline(["$match"]))

    def test_non_list_pipeline(self):
        assert "P102" in codes(analyze_pipeline({"$match": {}}))

    def test_group_without_id(self):
        assert "P102" in codes(analyze_pipeline([{"$group": {"n": {"$sum": 1}}}]))

    def test_negative_limit_and_bool_skip(self):
        assert "P102" in codes(analyze_pipeline([{"$limit": -1}]))
        assert "P102" in codes(analyze_pipeline([{"$skip": True}]))

    def test_bad_sort_direction(self):
        assert "P102" in codes(analyze_pipeline([{"$sort": {"a": "up"}}]))

    def test_bad_unwind_path(self):
        assert "P102" in codes(analyze_pipeline([{"$unwind": "records"}]))

    def test_replace_root_needs_new_root(self):
        assert "P102" in codes(analyze_pipeline([{"$replaceRoot": {"to": "$a"}}]))

    def test_count_needs_name(self):
        assert "P102" in codes(analyze_pipeline([{"$count": ""}]))


class TestP103P104Expressions:
    def test_unknown_expression_operator(self):
        diagnostic = only(
            analyze_pipeline([{"$addFields": {"x": {"$multply": ["$a", 2]}}}]),
            "P103",
        )
        assert "did you mean '$multiply'?" in diagnostic.hint

    def test_unknown_accumulator(self):
        diagnostic = only(
            analyze_pipeline([{"$group": {"_id": None, "n": {"$summ": 1}}}]),
            "P104",
        )
        assert "did you mean '$sum'?" in diagnostic.hint

    def test_accumulator_must_be_single_op(self):
        assert "P102" in codes(
            analyze_pipeline([{"$group": {"_id": None, "n": 1}}])
        )


class TestP105StageOrderHazards:
    def test_match_on_field_dropped_by_project(self):
        diagnostics = analyze_pipeline(
            [{"$project": {"ncid": 1}}, {"$match": {"records.hash": "x"}}],
            cluster_schema(),
        )
        diagnostic = only(diagnostics, "P105")
        assert "available fields" in diagnostic.hint

    def test_match_on_field_excluded_by_project(self):
        diagnostics = analyze_pipeline(
            [{"$project": {"meta": 0}}, {"$match": {"meta.first_version": 1}}],
            cluster_schema(),
        )
        assert "removed by an earlier $project" in only(diagnostics, "P105").message

    def test_sort_on_field_dropped_by_group(self):
        diagnostics = analyze_pipeline(
            [
                {"$group": {"_id": "$ncid", "n": {"$sum": 1}}},
                {"$sort": {"ncid": 1}},
            ],
            cluster_schema(),
        )
        assert "P105" in codes(diagnostics)

    def test_group_output_fields_are_usable(self):
        assert (
            analyze_pipeline(
                [
                    {"$group": {"_id": "$ncid", "n": {"$sum": 1}}},
                    {"$match": {"n": {"$gte": 2}}},
                    {"$sort": {"_id": 1}},
                ],
                cluster_schema(),
            )
            == []
        )

    def test_added_fields_are_usable(self):
        assert (
            analyze_pipeline(
                [
                    {"$addFields": {"size": {"$size": "$records"}}},
                    {"$match": {"size": {"$gte": 2}}},
                ],
                cluster_schema(),
            )
            == []
        )

    def test_replace_root_descends_into_records(self):
        # The canonical unwind-and-promote pattern must stay clean.
        assert (
            analyze_pipeline(
                [
                    {"$unwind": "$records"},
                    {"$replaceRoot": {"newRoot": "$records"}},
                    {"$match": {"person.last_name": {"$exists": True}}},
                ],
                cluster_schema(),
            )
            == []
        )

    def test_replace_root_into_expression_disables_checks(self):
        assert (
            analyze_pipeline(
                [
                    {"$replaceRoot": {"newRoot": {"a": "$ncid"}}},
                    {"$match": {"anything.goes": 1}},
                ],
                cluster_schema(),
            )
            == []
        )


class TestP106SortAfterLimit:
    def test_warns(self):
        diagnostic = only(
            analyze_pipeline([{"$limit": 5}, {"$sort": {"a": 1}}]), "P106"
        )
        assert diagnostic.severity == "warning"

    def test_sort_before_limit_is_clean(self):
        assert analyze_pipeline([{"$sort": {"a": 1}}, {"$limit": 5}]) == []
