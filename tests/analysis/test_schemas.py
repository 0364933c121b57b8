"""Tests for SchemaPaths, the schema builders and the operator registries."""

from repro.analysis import (
    ACCUMULATORS,
    EXPRESSION_OPERATORS,
    FILTER_OPERATORS,
    PIPELINE_STAGES,
    SchemaPaths,
    cluster_schema,
    flat_record_schema,
    suggest,
)
from repro.analysis.schemas import normalize_path


class TestNormalizePath:
    def test_strips_numeric_segments(self):
        assert normalize_path("records.2.person.age") == "records.person.age"
        assert normalize_path("a.0.b.13.c") == "a.b.c"

    def test_plain_paths_unchanged(self):
        assert normalize_path("a.b") == "a.b"
        assert normalize_path("") == ""


class TestSchemaPaths:
    def test_exact_and_intermediate(self):
        schema = SchemaPaths(["a.b.c", "x"])
        assert schema.knows("a.b.c")
        assert schema.knows("a.b")  # intermediate sub-document node
        assert schema.knows("a")
        assert schema.knows("x")
        assert not schema.knows("a.b.d")
        assert not schema.knows("y")

    def test_leaves_are_terminal(self):
        # Going deeper than a declared leaf is unknown; dynamic
        # sub-documents must be declared as open_prefixes instead.
        schema = SchemaPaths(["a.b"])
        assert not schema.knows("a.b.anything")
        assert SchemaPaths(open_prefixes=["a.b"]).knows("a.b.anything")

    def test_open_prefixes(self):
        schema = SchemaPaths(["a"], open_prefixes=["meta.scores"])
        assert schema.knows("meta.scores")
        assert schema.knows("meta.scores.v3.anything")
        assert not schema.knows("meta.other")

    def test_permissive_knows_everything(self):
        schema = SchemaPaths(permissive=True)
        assert schema.knows("whatever.you.like")
        assert schema.suggest_path("whatever") is None

    def test_suggest_whole_path(self):
        schema = SchemaPaths(["ncid", "records.hash"])
        assert schema.suggest_path("ncide") == "ncid"

    def test_suggest_leaf_typo_in_deep_path(self):
        schema = cluster_schema()
        assert (
            schema.suggest_path("records.person.last_nme")
            == "records.person.last_name"
        )

    def test_descend(self):
        schema = SchemaPaths(["records.person.age", "records.hash", "top"])
        element = schema.descend("records")
        assert element.knows("person.age")
        assert element.knows("hash")
        assert not element.knows("top")

    def test_descend_into_open_prefix_is_permissive(self):
        schema = SchemaPaths(open_prefixes=["meta.scores"])
        assert schema.descend("meta.scores").permissive
        assert schema.descend("meta.scores.v1").permissive

    def test_from_documents(self):
        schema = SchemaPaths.from_documents(
            [
                {"a": 1, "b": {"c": "x"}},
                {"b": {"d": 2}, "tags": ["t1", "t2"], "e": [{"f": 1}]},
            ]
        )
        for path in ("a", "b.c", "b.d", "tags", "e.f"):
            assert schema.knows(path), path
        assert not schema.knows("z")


class TestClusterSchema:
    def test_core_cluster_paths(self):
        schema = cluster_schema()
        for path in (
            "_id",
            "ncid",
            "records.person.last_name",
            "records.district.county_id",
            "records.hash",
            "records.first_version",
            "meta.hashes",
            "meta.first_version",
        ):
            assert schema.knows(path), path

    def test_dynamic_maps_are_open(self):
        schema = cluster_schema()
        assert schema.knows("records.plausibility.7")
        assert schema.knows("records.heterogeneity.12")
        assert schema.knows("meta.inserts_per_snapshot.2008-01-01")

    def test_unknown_attribute_rejected(self):
        assert not cluster_schema().knows("records.person.shoe_size")

    def test_flat_record_schema_respects_groups(self):
        person_only = flat_record_schema(groups=("person",))
        assert person_only.knows("last_name")
        assert not person_only.knows("county_id")
        everything = flat_record_schema()
        assert everything.knows("county_id")


class TestRegistries:
    def test_pipeline_stages_match_dispatch_table(self):
        from repro.docstore.aggregation import _STAGES

        assert PIPELINE_STAGES == frozenset(_STAGES)

    def test_filter_operators_match_matching_module(self):
        """Every registry operator compiles; unknown ones raise.

        This pins the registry to ``compile_filter``'s actual dispatch so
        the two cannot drift apart.
        """
        from repro.docstore.errors import QueryError
        from repro.docstore.matching import compile_filter

        operand = {
            "$exists": True,
            "$regex": "x",
            "$in": [1],
            "$nin": [1],
            "$all": [1],
            "$size": 1,
            "$elemMatch": {"a": 1},
            "$not": {"$eq": 1},
        }
        for op in FILTER_OPERATORS:
            compile_filter({"field": {op: operand.get(op, 1)}})
        try:
            compile_filter({"field": {"$definitelyNot": 1}})
        except QueryError:
            pass
        else:  # pragma: no cover - the assertion is the point
            raise AssertionError("unknown operator must raise QueryError")

    def test_expression_operators_evaluate(self):
        from repro.docstore.aggregation import evaluate

        operands = {
            "$literal": 1,
            "$add": [1, 2],
            "$subtract": [3, 1],
            "$multiply": [2, 2],
            "$divide": [4, 2],
            "$size": "$xs",
            "$concat": ["a", "b"],
            "$cond": [True, 1, 2],
            "$ifNull": ["$missing", 0],
            "$min": [1, 2],
            "$max": [1, 2],
            "$avg": [1, 2],
        }
        assert set(operands) == set(EXPRESSION_OPERATORS)
        for op, operand in operands.items():
            evaluate({op: operand}, {"xs": [1, 2]})

    def test_accumulators_accepted(self):
        from repro.docstore.aggregation import run_pipeline

        for op in ACCUMULATORS:
            list(
                run_pipeline(
                    [{"v": 1}], [{"$group": {"_id": None, "out": {op: "$v"}}}]
                )
            )


class TestSuggest:
    def test_within_distance(self):
        assert suggest("$grup", PIPELINE_STAGES) == "$group"
        assert suggest("$regx", FILTER_OPERATORS) == "$regex"

    def test_transposition_is_one_edit(self):
        assert suggest("$isze", {"$size"}) == "$size"

    def test_beyond_distance_returns_none(self):
        assert suggest("$completely_off", FILTER_OPERATORS) is None

    def test_deterministic_tie_break(self):
        assert suggest("ab", {"aa", "ac"}) == "aa"
