"""Tests for the repo-invariant AST linter — and the repo-wide gate itself."""

from pathlib import Path

from repro.analysis.lint import lint_paths, lint_source, main

CLEAN = '''"""Module docstring."""

from __future__ import annotations


def f(x=None):
    if x is None:
        x = []
    return x
'''


def codes(findings):
    return [f.code for f in findings]


def lint(source, path="src/repro/mod.py", **kwargs):
    return lint_source(source, Path(path), **kwargs)


class TestLintRules:
    def test_clean_module(self):
        assert lint(CLEAN) == []

    def test_l000_syntax_error(self):
        assert codes(lint("def broken(:\n")) == ["L000"]

    def test_l001_mutable_defaults(self):
        # The collections constructors count too, bare or dotted, and a
        # constructor call with arguments is still a fresh mutable object.
        defaults = [
            "[]",
            "{}",
            "set()",
            "list()",
            "collections.defaultdict(list)",
            "Counter()",
            "deque()",
            "list(range(3))",
            "bytearray(4)",
            "OrderedDict()",
        ]
        for default in defaults:
            source = CLEAN + f"def g(a, *, b={default}):\n    pass\n"
            assert codes(lint(source)) == ["L001"], default

    def test_l001_lambda_default(self):
        source = CLEAN + "g = lambda xs=[]: xs\n"
        assert "L001" in codes(lint(source))

    def test_l001_ignores_immutable_defaults(self):
        source = CLEAN + "def g(a=(), b=0, c='x', d=frozenset()):\n    pass\n"
        assert lint(source) == []

    def test_l002_bare_except(self):
        source = CLEAN + "try:\n    pass\nexcept:\n    pass\n"
        assert "L002" in codes(lint(source))
        narrow = CLEAN + "try:\n    pass\nexcept ValueError:\n    pass\n"
        assert lint(narrow) == []

    def test_l003_print_in_library(self):
        source = CLEAN + "print('hello')\n"
        assert "L003" in codes(lint(source))

    def test_l003_allowed_in_cli_and_tests(self):
        source = CLEAN + "print('hello')\n"
        assert lint(source, path="src/repro/cli.py") == []
        assert lint(source, path="tests/test_x.py", is_library=False) == []

    def test_l004_docstore_foreign_raise(self):
        source = CLEAN + "def f():\n    raise ValueError('nope')\n"
        findings = lint(source, is_docstore=True)
        assert "L004" in codes(findings)

    def test_l004_hierarchy_and_reraise_allowed(self):
        source = CLEAN + (
            "def f():\n"
            "    try:\n"
            "        raise QueryError('bad')\n"
            "    except Exception:\n"
            "        raise\n"
        )
        assert lint(source, is_docstore=True) == []

    def test_l004_not_applied_outside_docstore(self):
        source = CLEAN + "def f():\n    raise ValueError('fine elsewhere')\n"
        assert lint(source, is_docstore=False) == []

    def test_l005_missing_future_import(self):
        source = '"""Doc."""\n\nX = 1\n'
        assert codes(lint(source)) == ["L005"]
        assert lint(source, is_library=False) == []

    def test_l006_non_optional_none_default(self):
        source = CLEAN + "def g(a: str = None):\n    return a\n"
        assert codes(lint(source)) == ["L006"]

    def test_l006_subscript_and_kwonly(self):
        source = CLEAN + (
            "def g(a: Sequence[str] = None, *, b: Dict[str, int] = None):\n"
            "    return a, b\n"
        )
        assert codes(lint(source)).count("L006") == 2

    def test_l006_allows_optional_spellings(self):
        source = CLEAN + (
            "def g(\n"
            "    a: Optional[str] = None,\n"
            "    b: typing.Optional[int] = None,\n"
            "    c: Union[str, None] = None,\n"
            "    d: 'str | None' = None,\n"
            "    e: Any = None,\n"
            "    f: object = None,\n"
            "    g: 'Optional[Sequence[str]]' = None,\n"
            "    h=None,\n"
            "):\n"
            "    pass\n"
        )
        assert lint(source) == []

    def test_l006_allows_pep604_union(self):
        source = CLEAN + "def g(a: str | None = None):\n    return a\n"
        assert lint(source) == []

    def test_l006_ignores_non_none_defaults(self):
        source = CLEAN + "def g(a: str = 'x', b: int = 0):\n    return a, b\n"
        assert lint(source) == []

    def test_l007_direct_open_for_write(self):
        source = CLEAN + "h = open('c.jsonl', 'w')\n"
        path = "src/repro/docstore/storage2.py"
        assert "L007" in codes(lint(source, path=path, is_docstore=True))

    def test_l007_mode_keyword_and_path_open(self):
        source = CLEAN + (
            "h = open('c.jsonl', mode='ab')\n"
            "g = p.open('wb')\n"
        )
        path = "src/repro/docstore/storage2.py"
        assert codes(lint(source, path=path, is_docstore=True)).count("L007") == 2

    def test_l007_write_text_and_write_bytes(self):
        source = CLEAN + "p.write_text('x')\np.write_bytes(b'y')\n"
        path = "src/repro/docstore/storage2.py"
        assert codes(lint(source, path=path, is_docstore=True)).count("L007") == 2

    def test_l007_read_modes_allowed(self):
        source = CLEAN + (
            "h = open('c.jsonl')\n"
            "g = open('c.jsonl', 'r')\n"
            "f = p.open('rb')\n"
            "t = p.read_text()\n"
        )
        path = "src/repro/docstore/storage2.py"
        assert lint(source, path=path, is_docstore=True) == []

    def test_l007_wal_module_exempt(self):
        source = CLEAN + "h = open('c.wal', 'wb')\n"
        assert lint(source, path="src/repro/docstore/wal.py", is_docstore=True) == []

    def test_l007_not_applied_outside_docstore_library(self):
        source = CLEAN + "h = open('c.jsonl', 'w')\n"
        assert lint(source, is_docstore=False) == []
        assert (
            lint(
                source,
                path="tests/docstore/test_x.py",
                is_library=False,
                is_docstore=True,
            )
            == []
        )

    def test_l007_dynamic_mode_not_guessed(self):
        source = CLEAN + "def f(m):\n    return open('c.jsonl', m)\n"
        path = "src/repro/docstore/storage2.py"
        assert lint(source, path=path, is_docstore=True) == []

    def test_l008_deep_copy_on_read_surface(self):
        source = CLEAN + (
            "def execute_find(state):\n"
            "    return [deep_copy(doc) for doc in state]\n"
        )
        path = "src/repro/docstore/planner2.py"
        assert "L008" in codes(lint(source, path=path, is_docstore=True))

    def test_l008_covers_attribute_calls_and_named_surfaces(self):
        source = CLEAN + (
            "def find(state):\n"
            "    return documents.deep_copy(state)\n"
        )
        path = "src/repro/docstore/collection2.py"
        assert "L008" in codes(lint(source, path=path, is_docstore=True))

    def test_l008_ignores_write_paths_and_other_modules(self):
        write_path = CLEAN + (
            "def insert_one(doc):\n"
            "    return deep_copy(doc)\n"
        )
        path = "src/repro/docstore/collection2.py"
        assert lint(write_path, path=path, is_docstore=True) == []
        read_surface = CLEAN + (
            "def find(state):\n"
            "    return deep_copy(state)\n"
        )
        # The materialization helpers themselves are home turf...
        home = "src/repro/docstore/documents.py"
        assert lint(read_surface, path=home, is_docstore=True) == []
        # ...and modules outside the docstore library are out of scope.
        assert lint(read_surface, path="src/repro/core/x.py") == []

    def test_l008_suppressed_by_inline_ignore(self):
        source = CLEAN + (
            "def find(state):\n"
            "    return deep_copy(state)  # repro: ignore[L008]\n"
        )
        path = "src/repro/docstore/collection2.py"
        assert lint(source, path=path, is_docstore=True) == []

    def test_l009_stale_suppression_is_flagged(self):
        source = CLEAN + "X = 1  # repro: ignore[L008]\n"
        path = "src/repro/docstore/collection2.py"
        assert codes(lint(source, path=path, is_docstore=True)) == ["L009"]

    def test_l009_skips_other_tools_codes(self):
        source = CLEAN + "X = 1  # repro: ignore[R103]\n"
        path = "src/repro/docstore/collection2.py"
        # R-codes belong to the concurrency analyzer; not our staleness call.
        assert lint(source, path=path, is_docstore=True) == []

    def test_l009_flags_unknown_codes(self):
        # A typo, another family's retired code, or a retired R-code: no
        # tool owns it, so nothing else would ever report it.
        for code in ("L0008", "I408", "R104", "R103,X999"):
            source = CLEAN + f"X = 1  # repro: ignore[{code}]\n"
            (finding,) = lint(source)
            assert finding.code == "L009", code
            assert finding.path.endswith(":10:0")
            assert "unknown code" in finding.message

    def test_l009_unknown_code_beside_a_used_one(self):
        source = CLEAN + (
            "def find(state):\n"
            "    return deep_copy(state)  # repro: ignore[L008,L0008]\n"
        )
        path = "src/repro/docstore/collection2.py"
        (finding,) = lint(source, path=path, is_docstore=True)
        assert finding.code == "L009"
        assert finding.message.endswith("names unknown code(s) L0008")


class TestLintPaths:
    def test_classifies_by_location(self, tmp_path):
        src = tmp_path / "src" / "repro" / "docstore"
        src.mkdir(parents=True)
        bad = src / "bad.py"
        bad.write_text(
            "from __future__ import annotations\n"
            "def f():\n    raise KeyError('x')\n"
        )
        findings = lint_paths([tmp_path])
        assert codes(findings) == ["L004"]
        assert str(bad) in findings[0].path

    def test_main_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "ok.py"
        good.write_text("X = 1\n")
        assert main([str(good)]) == 0
        bad = tmp_path / "src" / "repro"
        bad.mkdir(parents=True)
        (bad / "bad.py").write_text("def f(x=[]):\n    return x\n")
        assert main([str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "L001" in captured.err and "L005" in captured.err


class TestRepoGate:
    def test_repo_is_lint_clean(self):
        """The enforced invariant: src, tests, benchmarks and examples
        carry no lint findings."""
        root = Path(__file__).resolve().parents[2]
        findings = lint_paths(
            [root / "src", root / "tests", root / "benchmarks", root / "examples"]
        )
        assert findings == [], "\n".join(f.render() for f in findings)
