"""The static lint pass: file walking, pragmas, allowlist filtering.

The public entry points are :func:`lint_source` (one module from a
string), :func:`lint_file` and :func:`lint_paths` (files and directory
trees).  All of them return sorted :class:`~repro.lint.findings.Finding`
lists, already filtered through the configuration's per-module
allowlists and any ``# repro-lint: allow(rule)`` inline pragmas.
"""

from __future__ import annotations

import ast
import pathlib
import re
from typing import Dict, Iterable, List, Sequence, Set, Union

from .config import DEFAULT_CONFIG, LintConfig
from .findings import Finding, finding_sort_key
from .rules import scan_module

__all__ = ["lint_source", "lint_file", "lint_paths", "LintError"]

#: ``# repro-lint: allow(rule-a, rule-b)`` — waives the named rules (or
#: every rule, with ``*``) on the pragma's line and the line below it.
_PRAGMA = re.compile(r"#\s*repro-lint:\s*allow\(([^)]*)\)")


class LintError(RuntimeError):
    """Raised for unreadable or syntactically invalid input files."""


def pragma_lines(source: str) -> Dict[int, Set[str]]:
    """Map line numbers to the set of rule ids waived on that line."""
    waived: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA.search(text)
        if match is None:
            continue
        rules = {part.strip() for part in match.group(1).split(",")
                 if part.strip()}
        waived[lineno] = rules
    return waived


def suppressed(rule: str, line: int, waived: Dict[int, Set[str]]) -> bool:
    """True when an inline pragma waives ``rule`` at ``line``."""
    for lineno in (line, line - 1):
        rules = waived.get(lineno)
        if rules and (rule in rules or "*" in rules):
            return True
    return False


def lint_source(source: str, path: str = "<string>",
                config: LintConfig = DEFAULT_CONFIG) -> List[Finding]:
    """Lint one module given as source text."""
    posix_path = path.replace("\\", "/")
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise LintError(f"{path}: {exc}") from exc
    waived = pragma_lines(source)
    findings = [
        f for f in scan_module(tree, path, posix_path, config)
        if not config.rule_allowed(f.rule, posix_path)
        and not suppressed(f.rule, f.line, waived)
    ]
    return sorted(findings, key=lambda f: (f.line, f.col, f.rule))


def lint_file(path: Union[str, pathlib.Path],
              config: LintConfig = DEFAULT_CONFIG) -> List[Finding]:
    """Lint one ``.py`` file."""
    path = pathlib.Path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"cannot read {path}: {exc}") from exc
    return lint_source(source, str(path), config)


def _iter_python_files(
        paths: Iterable[Union[str, pathlib.Path]]) -> List[pathlib.Path]:
    files: List[pathlib.Path] = []
    for entry in paths:
        entry = pathlib.Path(entry)
        if entry.is_dir():
            files.extend(sorted(entry.rglob("*.py")))
        elif entry.suffix == ".py" or entry.is_file():
            files.append(entry)
        else:
            raise LintError(f"no such file or directory: {entry}")
    return files


def lint_paths(paths: Sequence[Union[str, pathlib.Path]],
               config: LintConfig = DEFAULT_CONFIG) -> List[Finding]:
    """Lint files and directory trees; directories are walked for .py."""
    findings: List[Finding] = []
    for file in _iter_python_files(paths):
        findings.extend(lint_file(file, config))
    return sorted(findings, key=finding_sort_key)
