"""Linter configuration: the rule catalogue, allowlists, hot-path modules.

One suppression mechanism covers every rule, per-file and deep alike,
in two deliberately narrow forms:

* **per-module allowlists** — a rule id mapped to path fragments; a
  finding in any file whose (posix-normalized) path contains one of
  the fragments is dropped.  This is for *designed* exemptions, and
  there are two, both the matrix runner: it reads the real clock
  because timing units and holding workers to deadlines is its job
  (``wall-clock``), and it starts the one set of worker processes
  (``pool-outside-matrix``).
* **inline pragmas** — a ``repro-lint: allow(rule-id)`` comment on the
  offending line (or the line directly above) waives the named rules
  for that line only, for the rare spot where the construct is
  deliberate.  A pragma naming no known rule is itself a finding.

The ``slots-hot-path`` rule inverts the pattern: it applies *only* to
designated hot-path modules (the per-packet / per-event object code in
``simnet``), listed in :attr:`LintConfig.hot_path_modules`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Tuple

__all__ = ["LintConfig", "DEFAULT_CONFIG", "ALL_RULES", "DEEP_RULES"]

#: Every per-file rule, with a one-line description.
ALL_RULES: Dict[str, str] = {
    "wall-clock": "wall-clock read (time.time / datetime.now / ...) in "
                  "simulation code",
    "set-iteration": "iteration over a set (directly or through list / "
                     "tuple / enumerate / iter / str.join) or dict.keys()",
    "float-clock-compare": "float == / != comparison on a simulated-"
                           "clock value",
    "mutable-default": "mutable default argument",
    "slots-hot-path": "class without __slots__ in a designated hot-path "
                      "module",
    "pool-outside-matrix": "multiprocessing Pool or Process started "
                           "outside repro.matrix (worker processes "
                           "must be MatrixRunner's managed, warmed "
                           "workers)",
    "unknown-pragma-rule": "inline pragma names a rule id the linter "
                           "does not know (it waives nothing)",
}

#: Every whole-program rule of :mod:`repro.lint.deep` (``--deep``).
DEEP_RULES: Dict[str, str] = {
    "cache-key-unkeyed-param": "run-affecting run_experiment parameter "
                               "not forwarded from a spec field",
    "rng-seed-origin": "random.Random(...) whose seed is not derived "
                       "from an experiment seed",
    "rng-shared-stream": "one RNG object passed to several components "
                         "that need independent streams",
}


@dataclasses.dataclass(frozen=True)
class LintConfig:
    """Configuration for one lint run."""

    #: rule id -> path fragments exempt from that rule.
    allowlist: Mapping[str, Tuple[str, ...]] = dataclasses.field(
        default_factory=dict)
    #: Path fragments naming modules where ``slots-hot-path`` applies.
    hot_path_modules: Tuple[str, ...] = ()

    def rule_allowed(self, rule: str, posix_path: str) -> bool:
        """True when ``posix_path`` is allowlisted for ``rule``."""
        return any(fragment in posix_path
                   for fragment in self.allowlist.get(rule, ()))

    def is_hot_path(self, posix_path: str) -> bool:
        """True when the ``slots-hot-path`` rule applies to this file."""
        return any(fragment in posix_path
                   for fragment in self.hot_path_modules)


#: The repository's own configuration: the matrix runner measures wall
#: time by design; the per-packet/per-event object modules of the
#: simulator are the designated ``__slots__`` hot path.
DEFAULT_CONFIG = LintConfig(
    allowlist={
        # Wall-clock reads are the runner's purpose: it times real work
        # (per-unit wall time) and holds real worker processes to
        # wall-clock deadlines.  Everything else must go through an
        # injected clock or sim.now.
        "wall-clock": ("repro/matrix/runner.py",),
        # The one module that starts worker processes: MatrixRunner's
        # persistent, warmed workers, which it feeds chunks and
        # replaces one at a time.  Ad-hoc workers elsewhere would
        # skip the site warm-up, chunked dispatch and supervision.
        "pool-outside-matrix": ("repro/matrix/runner.py",),
    },
    hot_path_modules=(
        "simnet/engine.py",
        # The fast-forward driver replays the per-segment arithmetic
        # for whole bulk-transfer windows per call.
        "simnet/fastforward.py",
        "simnet/packet.py",
        "simnet/tcp.py",
        "simnet/trace.py",
        # The MUX frame codec runs once per TCP delivery in MUX modes.
        "http/framing.py",
        # The fault injector runs once per delivered segment.
        "faults/injector.py",
        # The artifact store sits on every encode path; the runner's
        # worker machinery is touched once per dispatch chunk and on
        # every wake-up of its wait on the busy workers.
        "content/artifacts.py",
        "matrix/runner.py",
        # The MUX client's per-stream/per-connection state is allocated
        # on every stream open and touched on every frame delivery.
        "client/mux.py",
        # The fleet engine's per-session state is allocated once per
        # user and touched on every page completion; spec compilation
        # and share aggregation run once per cohort unit.
        "fleet/spec.py",
        "fleet/engine.py",
        "fleet/runner.py",
    ),
)
