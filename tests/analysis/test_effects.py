"""Unit tests for the per-function effect inference (repro.analysis.effects)."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.effects import (
    analyze_effects_sources,
    analyze_module_source,
)

PATH = Path("mod.py")


def summaries(source):
    return analyze_effects_sources([(source, PATH, "mod")]).functions


def summary(source, qualname="mod.f"):
    return summaries(source)[qualname]


class TestGlobalEffects:
    def test_read_write_mutate_are_distinguished(self):
        source = (
            "CACHE = {}\n"
            "LIMIT = 10\n"
            "def f(x):\n"
            "    CACHE[x] = x\n"
            "    return LIMIT\n"
            "def g():\n"
            "    global LIMIT\n"
            "    LIMIT = 20\n"
        )
        f = summary(source)
        assert "mod.CACHE" in f.mutates_globals
        assert "mod.LIMIT" in f.reads_globals
        assert not f.writes_globals
        g = summary(source, "mod.g")
        assert "mod.LIMIT" in g.writes_globals
        assert not g.mutates_globals

    def test_mutating_method_call_on_global(self):
        source = "ITEMS = []\ndef f(x):\n    ITEMS.append(x)\n"
        assert "mod.ITEMS" in summary(source).mutates_globals

    def test_local_shadowing_is_not_a_global_effect(self):
        source = "ITEMS = []\ndef f(x):\n    ITEMS = [x]\n    ITEMS.append(x)\n"
        f = summary(source)
        assert not f.mutates_globals
        assert not f.writes_globals

    def test_module_level_mutable_globals_are_recorded(self):
        source = "CACHE = {}\nNAMES = list()\nLIMIT = 3\n"
        module = analyze_module_source(source, PATH, "mod")
        assert set(module.mutable_globals) == {"CACHE", "NAMES"}
        line, label = module.mutable_globals["CACHE"]
        assert (line, label) == (1, "dict")


class TestParamAndClosureEffects:
    def test_direct_param_mutation(self):
        source = "def f(items):\n    items.append(1)\n"
        f = summary(source)
        assert "items" in f.mutates_params
        assert "items" in f.transitive_param_mutations

    def test_transitive_param_mutation_through_helper(self):
        source = (
            "def helper(bucket):\n"
            "    bucket.append(1)\n"
            "def f(items):\n"
            "    helper(items)\n"
        )
        f = summary(source)
        assert "items" not in f.mutates_params
        assert "items" in f.transitive_param_mutations

    def test_transitive_mutation_through_keyword_argument(self):
        source = (
            "def helper(bucket):\n"
            "    bucket.append(1)\n"
            "def f(items):\n"
            "    helper(bucket=items)\n"
        )
        assert "items" in summary(source).transitive_param_mutations

    def test_copied_param_is_not_a_transitive_mutation(self):
        source = (
            "def helper(bucket):\n"
            "    bucket.append(1)\n"
            "def f(items):\n"
            "    helper(list(items))\n"
        )
        assert "items" not in summary(source).transitive_param_mutations

    def test_closure_mutation(self):
        source = (
            "def f():\n"
            "    seen = []\n"
            "    def inner(x):\n"
            "        seen.append(x)\n"
            "    return inner\n"
        )
        inner = summaries(source)["mod.f.inner"]
        assert "seen" in inner.mutates_closure


class TestNondeterminismSources:
    def test_global_rng_and_time_and_env(self):
        source = (
            "import os\n"
            "import random\n"
            "import time\n"
            "def f():\n"
            "    return random.random(), time.time(), os.environ['HOME']\n"
        )
        f = summary(source)
        assert [e.target for e in f.rng] == ["random.random"]
        assert [e.target for e in f.time] == ["time.time"]
        assert [e.target for e in f.env] == ["os.environ"]

    def test_seeded_rng_is_not_flagged(self):
        source = (
            "import random\n"
            "def f(seed):\n"
            "    rng = random.Random(seed)\n"
            "    return rng.random()\n"
        )
        assert summary(source).rng == []

    def test_import_aliases_are_resolved(self):
        source = (
            "from random import random as roll\n"
            "def f():\n"
            "    return roll()\n"
        )
        assert [e.target for e in summary(source).rng] == ["random.random"]

    @pytest.mark.parametrize(
        "prelude, body, kind, target",
        [
            ("", "    import random\n    return random.random()\n", "rng", "random.random"),
            ("", "    import time\n    return time.time()\n", "time", "time.time"),
            ("", "    from time import time\n    return time()\n", "time", "time.time"),
            ("", "    import os\n    return os.environ.get('X')\n", "env", "os.environ"),
            (
                "",
                "    import numpy as np\n    return np.random.rand()\n",
                "rng",
                "numpy.random.rand",
            ),
            (
                "import numpy as np\n",
                "    return np.random.rand()\n",
                "rng",
                "numpy.random.rand",
            ),
        ],
        ids=[
            "local-random",
            "local-time",
            "local-from-time",
            "local-os-environ",
            "local-numpy-alias",
            "module-numpy-alias",
        ],
    )
    def test_local_imports_and_numpy_alias(self, prelude, body, kind, target):
        # This package imports numpy (and often the stdlib) inside
        # functions, so function-local bindings must resolve too.
        source = prelude + "def f():\n" + body
        effects = getattr(summary(source), kind)
        assert [e.target for e in effects] == [target]

    def test_seeded_local_rng_is_not_flagged(self):
        source = (
            "def f():\n"
            "    import random\n"
            "    import numpy as np\n"
            "    return random.Random(1).random(), np.random.default_rng(1)\n"
        )
        assert summary(source).rng == []

    def test_local_import_does_not_leak_into_siblings(self):
        source = (
            "def g():\n"
            "    import random as r\n"
            "    return r\n"
            "def f(r):\n"
            "    return r.random()\n"
        )
        assert summary(source).rng == []


class TestOrderAndDocstoreEffects:
    def test_set_iteration_feeding_append(self):
        source = (
            "def f(values):\n"
            "    out = []\n"
            "    for v in set(values):\n"
            "        out.append(v)\n"
            "    return out\n"
        )
        effects = summary(source).set_iterations
        assert [e.detail for e in effects] == ["list append"]

    def test_sorted_set_iteration_is_clean(self):
        source = (
            "def f(values):\n"
            "    out = []\n"
            "    for v in sorted(set(values)):\n"
            "        out.append(v)\n"
            "    return out\n"
        )
        assert summary(source).set_iterations == []

    def test_docstore_private_write(self):
        source = "def f(collection, doc):\n    collection._documents[1] = doc\n"
        effects = summary(source).docstore_private_writes
        assert [e.target for e in effects] == ["_documents"]


class TestCallGraph:
    def test_intra_module_calls_resolve(self):
        source = "def helper():\n    return 1\ndef f():\n    return helper()\n"
        calls = summary(source).calls
        resolved = [c for c in calls if c.callee == "mod.helper"]
        assert resolved and resolved[0].resolved

    def test_cross_module_import_alias_resolves(self):
        left = ("def target(x):\n    x.append(1)\n", Path("a.py"), "pkg.a")
        right = (
            "from pkg.a import target as t\ndef f(items):\n    t(items)\n",
            Path("b.py"),
            "pkg.b",
        )
        report = analyze_effects_sources([left, right])
        f = report.functions["pkg.b.f"]
        assert "items" in f.transitive_param_mutations


# ---------------------------------------------------------------- stability

_NAMES = st.sampled_from(["alpha", "beta", "gamma", "delta"])

_STATEMENTS = st.sampled_from(
    [
        "    {g}[x] = x",
        "    {g}.append(x)",
        "    out = []",
        "    out = [v for v in sorted({g})]",
        "    for v in set(range(x)):\n        pass",
        "    import random\n    y = random.random()",
        "    import time\n    y = time.time()",
        "    x.append(1)",
        "    return x",
    ]
)


@st.composite
def modules(draw):
    global_name = draw(_NAMES).upper()
    function_name = draw(_NAMES)
    body = draw(st.lists(_STATEMENTS, min_size=1, max_size=4))
    lines = [f"{global_name} = []", f"def {function_name}(x):"]
    lines.extend(statement.format(g=global_name) for statement in body)
    return "\n".join(lines) + "\n"


class TestStability:
    @given(modules())
    @settings(max_examples=60, deadline=None)
    def test_summaries_stable_across_reparses(self, source):
        first = analyze_module_source(source, PATH, "mod")
        second = analyze_module_source(source, PATH, "mod")
        assert set(first.functions) == set(second.functions)
        for qualname, left in first.functions.items():
            assert left.to_dict() == second.functions[qualname].to_dict()

    @given(modules())
    @settings(max_examples=30, deadline=None)
    def test_analysis_never_crashes(self, source):
        module = analyze_module_source(source, PATH, "mod")
        for summary_ in module.functions.values():
            summary_.to_dict()
