"""repro.lint — determinism linter and TCP protocol sanitizer.

Two layers of correctness checking for the reproduction:

* **Static** (:mod:`repro.lint.static`, :mod:`repro.lint.rules`): an
  AST pass over the source tree that flags constructs which silently
  break bit-identical reproducibility — wall-clock reads, global RNG
  use, OS entropy, salted-hash iteration order, exact float comparison
  on simulated clocks, mutable default arguments, and missing
  ``__slots__`` in per-packet hot-path modules.
* **Whole-program** (:mod:`repro.lint.graph`, :mod:`repro.lint.deep`):
  a project-wide symbol table, import graph and call graph feeding
  three flow-aware passes — cache-key completeness (every
  run-affecting ``run_experiment`` parameter arrives from an
  ``ExperimentSpec`` field; the fields key the cache by declaration),
  RNG-stream discipline (every ``random.Random`` seeded from the
  experiment seed, no stream shared between components), and pool
  purity (no module-global writes in code reachable from
  ``MatrixRunner``'s chunk dispatch).  Surfaced as ``python -m repro
  lint --deep``, a must-be-clean gate.
* **Runtime** (:mod:`repro.lint.sanitizer`): a TCP invariant checker
  that replays captured traces (or observes a live simulation through a
  link tap) and asserts the protocol behaviours the paper's results
  depend on — handshake ordering, sequence monotonicity, no ACK of
  unsent data, no payload after FIN, Nagle compliance, delayed-ACK
  deadlines, and independent half-close teardown.

Both layers surface through ``python -m repro lint``.
"""

from .config import ALL_RULES, DEFAULT_CONFIG, LintConfig
from .deep import (DEEP_RULES, DEFAULT_DEEP_CONFIG, DeepConfig,
                   DeepError, run_deep)
from .findings import Finding, finding_sort_key, format_text
from .graph import ProjectGraph, build_graph
from .sanitizer import (
    FrameStreamValidator,
    InvariantViolationError,
    LiveSanitizer,
    ModeTraceRules,
    SanitizerConfig,
    TraceValidator,
    Violation,
    parse_trace_text,
    validate_records,
    validate_trace_text,
)
from .static import LintError, lint_file, lint_paths, lint_source

__all__ = [
    "ALL_RULES",
    "DEFAULT_CONFIG",
    "LintConfig",
    "DEEP_RULES",
    "DEFAULT_DEEP_CONFIG",
    "DeepConfig",
    "DeepError",
    "run_deep",
    "ProjectGraph",
    "build_graph",
    "Finding",
    "finding_sort_key",
    "format_text",
    "LintError",
    "lint_file",
    "lint_paths",
    "lint_source",
    "FrameStreamValidator",
    "InvariantViolationError",
    "LiveSanitizer",
    "ModeTraceRules",
    "SanitizerConfig",
    "TraceValidator",
    "Violation",
    "parse_trace_text",
    "validate_records",
    "validate_trace_text",
]
