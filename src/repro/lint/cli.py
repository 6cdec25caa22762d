"""The ``python -m repro lint`` verb and its one entry point.

:func:`lint_paths` builds one :class:`~repro.lint.graph.ProjectGraph`
per given path (default: ``src/repro``) — each file read and parsed
once — and runs the per-file determinism rules over it and, with
``--deep``, the flow-aware passes of :mod:`repro.lint.deep`
(cache-key completeness, RNG-stream discipline) over the same graph.

Exit codes: 0 clean, 1 findings, 2 usage or input error (bad path, a
file that is not UTF-8 or does not parse).  ``--json`` emits one
machine-readable document; findings are always sorted by ``(path,
line, col, rule)``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Sequence, Union

from .config import ALL_RULES, DEEP_RULES, DEFAULT_CONFIG, LintConfig
from .deep import deep_findings
from .findings import Finding, finding_sort_key, format_text
from .graph import LintError, build_graph
from .rules import scan_module

__all__ = ["add_lint_parser", "run_lint", "lint_paths",
           "DEFAULT_LINT_PATH"]

#: What ``python -m repro lint`` lints when no paths are given.
DEFAULT_LINT_PATH = "src/repro"


def lint_paths(paths: Sequence[Union[str, pathlib.Path]],
               config: LintConfig = DEFAULT_CONFIG, *,
               deep: bool = False) -> List[Finding]:
    """Lint files and package directories; with ``deep``, also run the
    whole-program passes over each path's graph.  Every finding, per-file
    or deep, passes the same allowlist and inline-pragma filter."""
    findings: List[Finding] = []
    for path in paths:
        graph = build_graph(path)
        raw = [f for module in graph.modules.values()
               for f in scan_module(module, config)]
        if deep:
            raw += deep_findings(graph)
        module_of = {m.path: m for m in graph.modules.values()}
        findings += [
            f for f in raw
            if not config.rule_allowed(f.rule, module_of[f.path].posix_path)
            and not graph.waived(module_of[f.path].name, f.rule, f.line)]
    return sorted(findings, key=finding_sort_key)


def add_lint_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``lint`` subcommand on the CLI's subparsers."""
    rules = ", ".join(sorted(ALL_RULES))
    deep_rules = ", ".join(sorted(DEEP_RULES))
    lint = sub.add_parser(
        "lint",
        help="determinism linter + whole-program analyzer",
        description=f"Static determinism rules ({rules}) and the "
                    f"whole-program deep passes ({deep_rules}).")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help=f"files/directories to lint (default: "
                           f"{DEFAULT_LINT_PATH})")
    lint.add_argument("--json", action="store_true",
                      help="emit findings as JSON")
    lint.add_argument("--deep", action="store_true",
                      help="also run the whole-program passes "
                           "(cache-key completeness, RNG-stream "
                           "discipline) over every lint path")
    lint.set_defaults(fn=run_lint)


def run_lint(args: argparse.Namespace) -> int:
    try:
        findings = lint_paths(args.paths or [DEFAULT_LINT_PATH],
                              DEFAULT_CONFIG, deep=args.deep)
    except LintError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    if args.json:
        payload = {
            "findings": [f.to_dict() for f in findings],
            "finding_count": len(findings),
            "clean": not findings,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if findings else 0

    if findings:
        print(format_text(findings))
    summary = f"lint: {len(findings)} finding(s)"
    print(summary if findings else f"{summary} — clean", file=sys.stderr)
    return 1 if findings else 0
