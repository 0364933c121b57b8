"""Diagnostic records emitted by the static analyzers.

Every analyzer in this package — the query/pipeline analyzer, the
customisation-spec validator and the repo AST linter — reports its findings
as :class:`Diagnostic` records instead of raising, so callers can collect,
filter, render or escalate them uniformly.  A diagnostic carries a stable
``code`` (``Q…`` for filters, ``P…`` for pipelines, ``C…`` for customisation
specs, ``L…`` for lint findings), a severity, the location inside the spec
(or ``file:line`` for lint), a message and an optional did-you-mean hint.

The two source-level tools (the linter's L-codes and the concurrency
analyzer's R-codes) share one inline suppression syntax, parsed by
:func:`collect_suppressions`.
"""

from __future__ import annotations

import dataclasses
import io
import re
import tokenize
from typing import Dict, Iterable, List, Optional, Tuple

#: Severity of a diagnostic that makes the spec unusable.
ERROR = "error"
#: Severity of a suspicious but executable construct.
WARNING = "warning"


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    """One finding of a static analyzer."""

    #: Stable machine-readable code, e.g. ``"Q001"``.
    code: str
    #: ``"error"`` or ``"warning"``.
    severity: str
    #: Location inside the analyzed spec (e.g. ``"$.records.person.name"``,
    #: ``"stage[2].$match"``) or ``"file:line:col"`` for lint findings.
    path: str
    #: Human-readable description of the problem.
    message: str
    #: Optional suggestion (typically a did-you-mean).
    hint: Optional[str] = None

    def render(self) -> str:
        """One-line human-readable rendering."""
        text = f"{self.severity} {self.code} at {self.path}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    """Whether any diagnostic is of :data:`ERROR` severity."""
    return any(d.severity == ERROR for d in diagnostics)


def errors_only(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """The :data:`ERROR`-severity subset, in order."""
    return [d for d in diagnostics if d.severity == ERROR]


def render_report(diagnostics: Iterable[Diagnostic]) -> str:
    """Render diagnostics one per line (empty string when clean)."""
    return "\n".join(d.render() for d in diagnostics)


#: Inline suppression comments: a hash, then ``repro: ignore`` with the
#: suppressed codes comma-separated in square brackets.
_SUPPRESSION = re.compile(r"#\s*repro:\s*ignore\[([A-Z0-9,\s]+)\]")


def collect_suppressions(source: str) -> Dict[int, Tuple[str, ...]]:
    """``{line: codes}`` of the ``# repro: ignore[...]`` comments in ``source``.

    Tokenizing (rather than scanning raw lines) keeps ``# repro: ignore``
    examples inside docstrings from counting as live suppressions.
    Unparsable source yields the comments read before the error (the
    linter reports the error itself as L000).
    """
    lines: Dict[int, Tuple[str, ...]] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESSION.search(token.string)
            if match:
                lines[token.start[0]] = tuple(
                    code.strip()
                    for code in match.group(1).split(",")
                    if code.strip()
                )
    except (tokenize.TokenizeError, SyntaxError, IndentationError):
        pass
    return lines
