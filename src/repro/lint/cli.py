"""The ``python -m repro lint`` verb and its one entry point.

:func:`lint_paths` builds one :class:`~repro.lint.graph.ProjectGraph`
per given path (default: ``src/repro``) — each file read and parsed
once — and runs the per-file determinism rules over it and, with
``--deep``, the flow-aware passes of :mod:`repro.lint.deep`
(cache-key completeness, RNG-stream discipline) over the same graph.
``--sanitize-traces`` also replays captured trace files through the
unit-end TCP protocol check (:mod:`repro.simnet.checks`); with no file
arguments the golden fixtures under ``tests/simnet/fixtures/`` are
validated.

Exit codes: 0 clean, 1 findings or invariant violations, 2 usage or
input error (bad path, a file that is not UTF-8 or does not parse,
an unparsable or empty trace).  ``--json`` emits one machine-readable
document combining all layers; findings are always sorted by ``(path,
line, col, rule)``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Sequence, Union

from ..simnet.checks import SanitizerConfig, Violation, validate_rows
from ..simnet.trace import parse_trace_text
from .config import ALL_RULES, DEEP_RULES, DEFAULT_CONFIG, LintConfig
from .deep import deep_findings
from .findings import Finding, finding_sort_key, format_text
from .graph import LintError, build_graph
from .rules import scan_module

__all__ = ["add_lint_parser", "run_lint", "lint_paths",
           "DEFAULT_LINT_PATH", "GOLDEN_TRACE_DIR"]

#: What ``python -m repro lint`` lints when no paths are given.
DEFAULT_LINT_PATH = "src/repro"

#: Where the golden WAN fixtures live, relative to the repo root.
GOLDEN_TRACE_DIR = "tests/simnet/fixtures"


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
        help="determinism linter + whole-program analyzer + TCP trace "
             "sanitizer",
        description=f"Static determinism rules ({rules}), the "
                    f"whole-program deep passes ({deep_rules}), and "
                    "the runtime TCP protocol sanitizer over captured "
                    "traces.")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help=f"files/directories to lint (default: "
                           f"{DEFAULT_LINT_PATH})")
    lint.add_argument("--json", action="store_true",
                      help="emit findings and violations as JSON")
    lint.add_argument("--deep", action="store_true",
                      help="also run the whole-program passes "
                           "(cache-key completeness, RNG-stream "
                           "discipline) over every lint path")
    lint.add_argument("--sanitize-traces", nargs="*", metavar="TRACE",
                      default=None,
                      help="also validate trace files against the TCP "
                           "invariants (default: the golden WAN "
                           f"fixtures under {GOLDEN_TRACE_DIR}/)")
    lint.set_defaults(fn=run_lint)


def _trace_files(args: argparse.Namespace) -> List[pathlib.Path]:
    if args.sanitize_traces:
        return [pathlib.Path(p) for p in args.sanitize_traces]
    fixture_dir = pathlib.Path(GOLDEN_TRACE_DIR)
    traces = sorted(fixture_dir.glob("*.trace"))
    if not traces:
        raise LintError(f"no *.trace files under {fixture_dir} "
                        "(run from the repository root, or pass "
                        "trace paths explicitly)")
    return traces


def _config_for_fixture(name: str) -> SanitizerConfig:
    """Pick the sanitizer config a committed fixture validates under.

    ``lossy_*`` fixtures were captured under fault injection: RSTs and
    retransmissions are legitimate there, so they validate as a
    ``faulty`` run (the sequence/handshake/Nagle invariants still
    apply).  A ``golden_<mode>_<env>.trace`` whose mode and environment
    tokens resolve in the registry validates as the runner would
    sanitize that cell: the transit bound for the mode's parallel
    connections plus the connection-shape rules its
    :class:`~repro.core.transport.Transport` declares.  Anything else
    gets the generic config.
    """
    if name.startswith("lossy_"):
        return SanitizerConfig(faulty=True)
    from ..core.registry import resolve_environment, resolve_mode
    try:
        _, mode_token, env_token = name.rsplit(".", 1)[0].split("_")
        mode = resolve_mode(mode_token)
        environment = resolve_environment(env_token)
    except ValueError:    # not that shape, or names nothing registered
        return SanitizerConfig()
    client = mode.client_config()
    generic = SanitizerConfig()
    return SanitizerConfig.for_run(
        environment=environment, client_nodelay=True, server_nodelay=True,
        client_delack=generic.client_delack,
        server_delack=generic.server_delack,
        max_parallel=client.max_connections,
        mode_rules=mode.transport.trace_rules(client))


def run_lint(args: argparse.Namespace) -> int:
    try:
        findings = lint_paths(args.paths or [DEFAULT_LINT_PATH],
                              DEFAULT_CONFIG, deep=args.deep)
    except LintError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    trace_violations: Dict[str, List[Violation]] = {}
    if args.sanitize_traces is not None:
        try:
            trace_files = _trace_files(args)
            for trace in trace_files:
                text = trace.read_text(encoding="utf-8")
                trace_violations[str(trace)] = validate_rows(
                    parse_trace_text(text),
                    _config_for_fixture(trace.name))
        except (OSError, ValueError, LintError) as exc:
            print(f"lint: {exc}", file=sys.stderr)
            return 2

    violation_count = sum(len(v) for v in trace_violations.values())
    dirty = bool(findings) or violation_count > 0

    if args.json:
        payload = {
            "findings": [f.to_dict() for f in findings],
            "traces": {
                path: [v.to_dict() for v in violations]
                for path, violations in sorted(trace_violations.items())
            },
            "finding_count": len(findings),
            "violation_count": violation_count,
            "clean": not dirty,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if dirty else 0

    if findings:
        print(format_text(findings))
    for path, violations in sorted(trace_violations.items()):
        status = "clean" if not violations else \
            f"{len(violations)} violation(s)"
        print(f"trace {path}: {status}")
        for violation in violations:
            print(f"  {violation.format()}")
    summary = (f"lint: {len(findings)} finding(s), "
               f"{violation_count} trace violation(s)")
    print(summary if dirty else
          f"{summary} — clean", file=sys.stderr)
    return 1 if dirty else 0
