"""Unit tests for the dedup-pipeline usage hint (I408).

Mirrors ``tests/analysis/test_index_usage.py``: one class per code for
shapes that must warn, one for shapes that must stay silent, plus the
fixture corpus under ``fixtures/dedup_usage/``.  The analyzer is
AST-only — sources here are never executed.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import WARNING, analyze_dedup_usage

FIXTURES = Path(__file__).parent / "fixtures" / "dedup_usage"


def codes(diagnostics):
    return [d.code for d in diagnostics]


def analyze(source):
    return analyze_dedup_usage(textwrap.dedent(source), filename="check.py")


class TestI408Warns:
    def test_allpairs_combinations_into_score_candidates(self):
        diagnostics = analyze(
            """
            pairs = combinations(range(len(records)), 2)
            scores = score_candidates_packed(records, pairs, matcher)
            """
        )
        assert codes(diagnostics) == ["I408"]
        assert diagnostics[0].severity == WARNING
        assert diagnostics[0].path == "check.py:3"
        assert "combinations" in diagnostics[0].message
        assert "O(n^2)" in diagnostics[0].message
        assert "lsh" in diagnostics[0].hint

    def test_allpairs_nested_and_module_qualified(self):
        diagnostics = analyze(
            """
            scores = repro.dedup.score_candidates_packed(
                records, itertools.combinations(range(n), 2), matcher
            )
            """
        )
        assert codes(diagnostics) == ["I408"]

    def test_pack_pairs_wrapped_allpairs_into_packed_scorer(self):
        diagnostics = analyze(
            """
            keys = pack_pairs(combinations(range(len(records)), 2), len(records))
            scores = score_candidates_packed(records, keys, matcher)
            """
        )
        assert codes(diagnostics) == ["I408"]
        assert "score_candidates_packed" in diagnostics[0].message

    def test_snm_only_tuple_unpacked_keys(self):
        diagnostics = analyze(
            """
            keys, stats = sorted_neighborhood_candidates(records, attrs, 20)
            scores = score_candidates_packed(records, keys, matcher)
            """
        )
        assert codes(diagnostics) == ["I408"]
        assert "sorted_neighborhood_candidates" in diagnostics[0].message
        assert "lsh_candidates" in diagnostics[0].hint

    def test_snm_only_subscript_projection(self):
        diagnostics = analyze(
            """
            keys = sorted_neighborhood_candidates(records, attrs, 20)[0]
            scores = score_candidates_packed(records, keys, matcher)
            """
        )
        assert codes(diagnostics) == ["I408"]

    def test_enclosing_scope_binding_visible(self):
        diagnostics = analyze(
            """
            pairs = combinations(range(len(records)), 2)

            def run(matcher):
                return score_candidates_packed(records, pairs, matcher)
            """
        )
        assert codes(diagnostics) == ["I408"]

    def test_one_warning_per_scoring_call(self):
        diagnostics = analyze(
            """
            keys, stats = sorted_neighborhood_candidates(records, attrs)
            a = score_candidates_packed(records, keys, m1)
            b = score_candidates_packed(records, keys, m2)
            """
        )
        assert codes(diagnostics) == ["I408", "I408"]

    def test_keys_keyword_argument(self):
        diagnostics = analyze(
            """
            keys, stats = sorted_neighborhood_candidates(records, attrs)
            scores = score_candidates_packed(records, matcher=m, keys=keys)
            """
        )
        assert codes(diagnostics) == ["I408"]

    def test_fixture_corpus_exact_codes(self):
        source = (FIXTURES / "naive_quadratic.py").read_text(encoding="utf-8")
        diagnostics = analyze_dedup_usage(source, filename="naive_quadratic.py")
        assert codes(diagnostics) == ["I408", "I408", "I408"]
        paths = [d.path for d in diagnostics]
        assert paths == [
            "naive_quadratic.py:21",
            "naive_quadratic.py:27",
            "naive_quadratic.py:33",
        ]
        allpairs_bare, allpairs_packed, snm_only = diagnostics
        assert "combinations()" in allpairs_bare.message
        assert "score_candidates_packed()" in allpairs_packed.message
        assert "lone" in snm_only.message
        assert all("lsh" in d.hint for d in diagnostics)


class TestI408Silent:
    def test_lsh_pass_is_silent(self):
        assert (
            analyze(
                """
                keys, stats = lsh_candidates(records, attrs, bands=16, rows=4)
                scores = score_candidates_packed(records, keys, matcher)
                """
            )
            == []
        )

    def test_multipass_snm_into_packed_scorer_is_silent(self):
        # SNM keys unioned with another pass family are not a lone pass.
        assert (
            analyze(
                """
                keys, stats = sorted_neighborhood_candidates(records, attrs, 20)
                more, more_stats = lsh_candidates(records, attrs)
                keys = keys | more
                scores = score_candidates_packed(records, keys, matcher)
                """
            )
            == []
        )

    def test_rebinding_kills_allpairs_provenance(self):
        assert (
            analyze(
                """
                pairs = combinations(range(len(records)), 2)
                pairs = prune(pairs)
                scores = score_candidates_packed(records, pairs, matcher)
                """
            )
            == []
        )

    def test_stats_half_of_tuple_unpack_carries_nothing(self):
        assert (
            analyze(
                """
                keys, stats = sorted_neighborhood_candidates(records, attrs)
                scores = score_candidates_packed(records, stats, matcher)
                """
            )
            == []
        )

    def test_combinations_alone_is_silent(self):
        assert (
            analyze(
                """
                pairs = combinations(range(len(records)), 2)
                store(pairs)
                """
            )
            == []
        )

    def test_clean_pipeline_code(self):
        assert (
            analyze(
                """
                pipeline = DetectionPipeline(window=20, passes=5, workers=4)
                result = pipeline.detect(records, attributes, matcher, gold)
                """
            )
            == []
        )

    def test_untracked_candidates_are_silent(self):
        assert (
            analyze(
                """
                scores = score_candidates_packed(records, load_keys(path), matcher)
                """
            )
            == []
        )

    def test_sibling_function_scopes_do_not_leak(self):
        assert (
            analyze(
                """
                def generate(records):
                    keys, stats = sorted_neighborhood_candidates(records, attrs)
                    return keys

                def score(records, keys, matcher):
                    return score_candidates_packed(records, keys, matcher)
                """
            )
            == []
        )

    def test_syntax_error_raises(self):
        with pytest.raises(SyntaxError):
            analyze_dedup_usage("def broken(:")
