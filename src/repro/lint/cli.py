"""The ``python -m repro lint`` verb.

Layer 1 (always): statically lint the given paths (default:
``src/repro``) with the per-file determinism rules.  Layer 2 (opt-in
via ``--deep``): build the whole-program graph and run the flow-aware
passes of :mod:`repro.lint.deep` (cache-key completeness, RNG-stream
discipline, pool purity).  Layer 3 (opt-in via ``--sanitize-traces``):
replay captured trace files through the TCP protocol sanitizer; with
no file arguments the golden fixtures under ``tests/simnet/fixtures/``
are validated.

Exit codes: 0 clean, 1 findings or invariant violations, 2 usage or
configuration error (bad path, unparsable trace).  ``--json`` emits
one machine-readable document combining all layers; findings are
always sorted by ``(path, line, col, rule)``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
from typing import Dict, List

from .config import ALL_RULES, DEFAULT_CONFIG
from .deep import DEEP_RULES, DEFAULT_DEEP_CONFIG, DeepError, run_deep
from .findings import Finding, finding_sort_key, format_text
from .sanitizer import SanitizerConfig, Violation, validate_trace_text
from .static import LintError, lint_paths

__all__ = ["add_lint_parser", "run_lint", "DEFAULT_LINT_PATH",
           "GOLDEN_TRACE_DIR"]

#: What ``python -m repro lint`` lints when no paths are given.
DEFAULT_LINT_PATH = "src/repro"

#: Where the golden WAN fixtures live, relative to the repo root.
GOLDEN_TRACE_DIR = "tests/simnet/fixtures"


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
                           "discipline, pool purity) over the first "
                           "lint path")
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
    retransmissions are legitimate there, so they validate under the
    relaxed config (the sequence/handshake/Nagle invariants still
    apply).  A ``golden_<mode>_<env>.trace`` whose mode and environment
    tokens resolve in the registry validates as the runner would
    sanitize that cell: the transit bound for the mode's parallel
    connections plus the connection-shape rules its
    :class:`~repro.core.transport.Transport` declares.  Anything else
    gets the generic config.
    """
    if name.startswith("lossy_"):
        return SanitizerConfig.for_faulty_run()
    from ..core.registry import resolve_environment, resolve_mode
    try:
        _, mode_token, env_token = name.rsplit(".", 1)[0].split("_")
        mode = resolve_mode(mode_token)
        environment = resolve_environment(env_token)
    except ValueError:    # not that shape, or names nothing registered
        return SanitizerConfig()
    client = mode.client_config()
    generic = SanitizerConfig()
    config = SanitizerConfig.for_run(
        environment=environment, client_nodelay=True, server_nodelay=True,
        client_delack=generic.client_delack,
        server_delack=generic.server_delack,
        max_parallel=client.max_connections)
    return dataclasses.replace(
        config, mode_rules=mode.transport.trace_rules(client))


def run_lint(args: argparse.Namespace) -> int:
    paths = args.paths or [DEFAULT_LINT_PATH]
    try:
        findings = lint_paths(paths, DEFAULT_CONFIG)
    except LintError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2

    if args.deep:
        try:
            deep_findings = run_deep(paths[0], DEFAULT_DEEP_CONFIG)
        except DeepError as exc:
            print(f"lint: {exc}", file=sys.stderr)
            return 2
        findings = sorted(findings + deep_findings,
                          key=finding_sort_key)

    trace_violations: Dict[str, List[Violation]] = {}
    if args.sanitize_traces is not None:
        try:
            trace_files = _trace_files(args)
            for trace in trace_files:
                text = trace.read_text(encoding="utf-8")
                trace_violations[str(trace)] = validate_trace_text(
                    text, _config_for_fixture(trace.name))
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
