"""repro.lint — determinism linter and TCP protocol sanitizer.

Layers of correctness checking for the reproduction, the first two
over one front end (:mod:`repro.lint.graph`: each file read and parsed
once into a project graph) and one entry point
(:func:`~repro.lint.cli.lint_paths`):

* **Per-file** (:mod:`repro.lint.rules`): a pass over each parsed
  module that flags the defects no runtime identity test reliably
  sees — wall-clock reads, salted-hash iteration order, exact float
  comparison on simulated clocks, mutable default arguments, missing
  ``__slots__`` in per-packet hot-path modules, and worker pools
  outside ``repro.matrix``.
* **Whole-program** (:mod:`repro.lint.deep`): the graph's symbol
  table, imports and call graph feeding two flow-aware passes —
  cache-key completeness (every
  run-affecting ``run_experiment`` parameter arrives from an
  ``ExperimentSpec`` field; the fields key the cache by declaration)
  and RNG-stream discipline (every ``random.Random`` seeded from the
  experiment seed, no stream shared between components).  Surfaced as
  ``python -m repro lint --deep``, a must-be-clean gate.

Global-RNG draws, OS entropy and worker-global writes have no rule:
the identity tests (serial ≡ parallel, cached or journaled ≡ fresh,
memo-cold, same seed → same result) catch them.
* **Runtime** (:mod:`repro.lint.sanitizer`): a TCP invariant checker
  that replays a captured trace and asserts the protocol behaviours the
  paper's results depend on — handshake ordering, sequence
  monotonicity, no ACK of unsent data, no payload after FIN, Nagle
  compliance, delayed-ACK deadlines, and independent half-close
  teardown.  Every simulated matrix unit replays its own trace through
  it at unit end; ``python -m repro lint --sanitize-traces`` replays
  committed trace files.

All layers surface through ``python -m repro lint``.
"""

from .cli import lint_paths
from .config import ALL_RULES, DEEP_RULES, DEFAULT_CONFIG, LintConfig
from .findings import Finding, finding_sort_key, format_text
from .graph import LintError, ProjectGraph, build_graph
from .sanitizer import (
    FrameStreamValidator,
    InvariantViolationError,
    ModeTraceRules,
    SanitizerConfig,
    TraceValidator,
    Violation,
    parse_trace_text,
    validate_rows,
    validate_trace_text,
)

__all__ = [
    "ALL_RULES",
    "DEFAULT_CONFIG",
    "LintConfig",
    "DEEP_RULES",
    "ProjectGraph",
    "build_graph",
    "Finding",
    "finding_sort_key",
    "format_text",
    "LintError",
    "lint_paths",
    "FrameStreamValidator",
    "InvariantViolationError",
    "ModeTraceRules",
    "SanitizerConfig",
    "TraceValidator",
    "Violation",
    "parse_trace_text",
    "validate_rows",
    "validate_trace_text",
]
