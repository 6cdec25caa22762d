"""Structured lint findings and their text rendering.

A :class:`Finding` is one rule violation at one source location.  The
linter's contract with ``scripts/check.sh`` is exit-code based, but the
records themselves are structured so tooling (editors, CI annotators)
can consume ``--json`` output without scraping text.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Sequence

__all__ = ["Finding", "format_text", "finding_sort_key"]


def finding_sort_key(finding: "Finding"):
    """The one canonical ordering: ``(path, line, col, rule)``.

    Every rendering (text, JSON) sorts with this key so
    output order is deterministic and diffs stay minimal.
    """
    return (finding.path, finding.line, finding.col, finding.rule)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    path:
        File the finding is in (as given to the linter).
    line / col:
        1-based line and 0-based column of the offending node.
    rule:
        Stable kebab-case rule identifier (e.g. ``wall-clock``).
    message:
        What is wrong, concretely ("call to time.time()").
    hint:
        How to fix it ("inject a clock, or take the simulator's
        ``sim.now``").
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    hint: str

    def to_dict(self) -> Dict[str, Any]:
        """The finding as a JSON-serializable dict."""
        return dataclasses.asdict(self)

    def format(self) -> str:
        """One ``path:line:col: [rule] message`` text line."""
        return (f"{self.path}:{self.line}:{self.col}: [{self.rule}] "
                f"{self.message} (fix: {self.hint})")


def format_text(findings: Sequence[Finding]) -> str:
    """Render findings as one text line each, sorted by location."""
    ordered = sorted(findings, key=finding_sort_key)
    return "\n".join(f.format() for f in ordered)

