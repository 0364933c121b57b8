"""The acceptance rule of ``benchmarks/perfbench_pairs.py``.

The script is not a package module, so it is loaded by path.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "perfbench_pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("perfbench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestVerdict:
    def test_same_medians_are_within_bound(self, pairs):
        runs = [100.0, 101.0, 99.0, 100.0, 102.0]
        assert pairs.verdict(runs, runs, True, 0.25) == "within bound"

    def test_worse_by_up_to_the_bound_is_within_bound(self, pairs):
        parent = [100.0] * 10
        assert pairs.verdict(parent, [76.0] * 10, True, 0.25) == "within bound"
        assert pairs.verdict(parent, [124.0] * 10, False, 0.25) == "within bound"

    def test_worse_by_more_than_the_bound(self, pairs):
        parent = [100.0] * 10
        assert pairs.verdict(parent, [74.0] * 10, True, 0.25) == "worse than bound"
        assert pairs.verdict(parent, [126.0] * 10, False, 0.25) == "worse than bound"

    def test_better_is_within_bound(self, pairs):
        parent = [100.0] * 10
        assert pairs.verdict(parent, [300.0] * 10, True, 0.25) == "within bound"
        assert pairs.verdict(parent, [10.0] * 10, False, 0.25) == "within bound"

    def test_spread_wider_than_the_bound_is_unresolved(self, pairs):
        parent = [60.0, 80.0, 100.0, 120.0, 140.0]  # quartiles 70 and 130
        assert pairs.verdict(parent, [100.0] * 5, True, 0.25) == "unresolved"
        assert pairs.verdict(parent, [60.0] * 5, True, 0.25) == "unresolved"

    def test_wide_spread_resolves_when_every_change_run_wins(self, pairs):
        parent = [60.0, 80.0, 100.0, 120.0, 140.0]
        assert pairs.verdict(parent, [141.0, 150.0, 160.0], True, 0.25) == "within bound"
        assert pairs.verdict(parent, [50.0, 59.0], False, 0.25) == "within bound"
        # One change run that does not beat the best parent run is enough.
        assert pairs.verdict(parent, [140.0, 150.0, 160.0], True, 0.25) == "unresolved"

    def test_zero_parent_median(self, pairs):
        assert pairs.verdict([0.0] * 4, [0.0] * 4, True, 0.15) == "within bound"
        assert pairs.verdict([0.0] * 4, [0.1] * 4, False, 0.15) == "worse than bound"


class TestDigestsDiffer:
    def test_equal_digests(self, pairs):
        digests = {"parent": ["a", "b"], "change": ["a", "b"]}
        assert pairs.digests_differ(digests) == []

    def test_names_the_pairs_that_differ(self, pairs):
        digests = {"parent": ["a", "a", "a"], "change": ["a", "b", ""]}
        assert pairs.digests_differ(digests) == [2, 3]


class TestInputsDiffer:
    def test_same_inputs(self, pairs):
        used = {"snapshots": "a1", "store": "b2"}
        inputs = {"parent": [used, dict(used)], "change": [dict(used), dict(used)]}
        assert pairs.inputs_differ(inputs) == []

    def test_names_the_pairs_and_inputs_that_differ(self, pairs):
        parent = {"snapshots": "a1", "store": "b2", "cuts": "c3"}
        inputs = {
            "parent": [parent, parent, parent, {}],
            "change": [
                dict(parent),
                dict(parent, store="xx"),
                {"snapshots": "zz", "store": "yy"},
                {},
            ],
        }
        assert pairs.inputs_differ(inputs) == [
            (2, ["store"]),
            (3, ["cuts", "snapshots", "store"]),
        ]


def test_gain_rule(pairs):
    parent = [100.0, 101.0, 99.0, 100.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0]
    change = [value + 20.0 for value in parent]
    wins, gap, spread, holds = pairs.gain_holds(parent, change, True)
    assert (wins, holds) == (10, True)
    assert gap == pytest.approx(20.0)
    assert pairs.gain_holds(parent, parent, True)[3] is False
