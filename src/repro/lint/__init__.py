"""repro.lint — the static determinism linter.

Two layers of static checking for the reproduction, both over one
front end (:mod:`repro.lint.graph`: each file read and parsed
once into a project graph) and one entry point
(:func:`~repro.lint.cli.lint_paths`):

* **Per-file** (:mod:`repro.lint.rules`): a pass over each parsed
  module that flags the defects no runtime identity test reliably
  sees — wall-clock reads, salted-hash iteration order, exact float
  comparison on simulated clocks, mutable default arguments, missing
  ``__slots__`` in per-packet hot-path modules, and worker pools or
  processes started outside ``repro.matrix``.
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

Both layers surface through ``python -m repro lint``, which with
``--sanitize-traces`` also replays trace files through the unit-end
TCP protocol check every simulated unit runs
(:mod:`repro.simnet.checks`); that check is not part of this package.
"""

from .cli import lint_paths
from .config import ALL_RULES, DEEP_RULES, DEFAULT_CONFIG, LintConfig
from .findings import Finding, finding_sort_key, format_text
from .graph import LintError, ProjectGraph, build_graph

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
]
