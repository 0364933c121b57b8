"""The documentation cites only what exists.

Every dotted ``repro.…`` name in README.md, DESIGN.md, EXPERIMENTS.md and
docs/*.md must import as a module or resolve as an attribute of one, and
every ``#anchor`` link in them must name a heading of the file it points
to.  A module, function or section that is deleted or renamed then fails
here instead of leaving the docs pointing at nothing.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = sorted(
    [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
    + list((ROOT / "docs").glob("*.md"))
)

DOTTED_NAME = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
ANCHOR_LINK = re.compile(r"\]\(([^()\s#]*)#([^()\s]+)\)")
HEADING = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")
FENCE = re.compile(r"^\s*(```|~~~)")


def _resolves(name: str) -> bool:
    """Whether ``name`` is a module, or an attribute path inside one."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def _anchors(path: Path) -> set:
    """GitHub's heading anchors of one markdown file.

    A heading's anchor is its text lowercased, stripped of everything but
    word characters, hyphens and spaces, with each space made a hyphen; a
    repeated anchor takes ``-1``, ``-2``, … suffixes.  Lines inside fenced
    code blocks are not headings.
    """
    anchors: set = set()
    seen: dict = {}
    fenced = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if FENCE.match(line):
            fenced = not fenced
            continue
        match = None if fenced else HEADING.match(line)
        if match is None:
            continue
        slug = re.sub(r"[^\w\- ]", "", match.group(1).lower()).replace(" ", "-")
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        anchors.add(slug if not count else f"{slug}-{count}")
    return anchors


def _cited_names():
    return sorted(
        {
            (path.relative_to(ROOT).as_posix(), name)
            for path in DOCS
            for name in DOTTED_NAME.findall(path.read_text(encoding="utf-8"))
        }
    )


def _anchor_links():
    return sorted(
        {
            (path.relative_to(ROOT).as_posix(), target, anchor)
            for path in DOCS
            for target, anchor in ANCHOR_LINK.findall(path.read_text(encoding="utf-8"))
        }
    )


def test_the_scan_finds_names_and_links():
    # A broken pattern would make both checks below vacuous.
    assert len(_cited_names()) > 30
    assert len(_anchor_links()) > 10


@pytest.mark.parametrize("doc, name", _cited_names())
def test_cited_name_resolves(doc, name):
    assert _resolves(name), f"{doc} cites {name}, which does not exist"


@pytest.mark.parametrize("doc, target, anchor", _anchor_links())
def test_anchor_link_resolves(doc, target, anchor):
    source = ROOT / doc
    linked = (source.parent / target).resolve() if target else source
    assert linked.is_file(), f"{doc} links to missing file {target}"
    assert anchor in _anchors(linked), f"{doc} links to {target}#{anchor}, which has no such heading"
