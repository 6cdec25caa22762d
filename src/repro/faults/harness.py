"""Harness-level fault injection: hostile-machine faults for the engine.

:mod:`repro.faults` attacks the simulated *network* and *server*;
this module attacks the experiment harness itself — the worker
processes of the :class:`~repro.matrix.runner.MatrixRunner` pool.  A
:class:`HarnessFaultPlan` scripts three machine faults against the
units of a dispatched grid:

* **worker kill** — the worker SIGKILLs itself just before running a
  designated unit (an OOM-killed or segfaulted worker);
* **hung cell** — the worker stalls on a designated unit long past any
  reasonable wall-clock budget (a wedged syscall, a livelocked run);
* **poison cell** — a designated unit raises on every attempt,
  optionally restricted to one seed (a deterministic software bug).

Determinism mirrors :mod:`repro.faults.injector`: faults are scripted
by *unit ordinal* (the unit's slot index in the dispatched batch),
seed and attempt number — no clocks, no randomness — so a chaotic run
replays exactly from its plan and grid alone.  Kill and hang model
*transient* machine faults: they fire on the first attempt only, and
only inside a pool worker (never in the parent, where a self-SIGKILL
would take the whole run down).  Poison models a *deterministic* bug:
it raises in workers and in the parent's serial rung alike, so the
retry ladder exhausts and the unit is quarantined as a
:class:`~repro.core.runner.UnitFailure`.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import time
from typing import Optional, Tuple

__all__ = ["HarnessPoisonError", "HarnessFaultPlan"]


class HarnessPoisonError(RuntimeError):
    """The scripted failure a poison cell raises on every attempt."""


@dataclasses.dataclass(frozen=True)
class HarnessFaultPlan:
    """A deterministic script of machine faults against grid units."""

    name: str
    #: SIGKILL the executing worker before running this unit ordinal
    #: (first attempt only, workers only).
    kill_unit: Optional[int] = None
    #: Stall this unit ordinal for :attr:`hang_seconds` (first attempt
    #: only, workers only) — long enough that the supervisor's
    #: per-unit deadline fires first and respawns the pool.
    hang_unit: Optional[int] = None
    hang_seconds: float = 3600.0
    #: Unit ordinals that raise :class:`HarnessPoisonError` on *every*
    #: attempt, in workers and in the parent's serial retry alike.
    poison_units: Tuple[int, ...] = ()
    #: Restrict the poison to one seed (None poisons every seed of the
    #: listed ordinals).
    poison_seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "poison_units",
                           tuple(int(u) for u in self.poison_units))

    def apply(self, index: int, seed: int, attempt: int) -> None:
        """Fire the fault scripted for this (unit, seed, attempt).

        Called by the worker chunk entry (and the serial execution
        path) immediately before the unit runs.  Returns normally when
        nothing is scripted; raises for poison; never returns for a
        kill; blocks for a hang.
        """
        if index in self.poison_units and (
                self.poison_seed is None or seed == self.poison_seed):
            raise HarnessPoisonError(
                f"harness plan {self.name!r}: poison unit {index} "
                f"(seed {seed}, attempt {attempt})")
        if attempt > 1 or multiprocessing.parent_process() is None:
            # Kill and hang are transient machine faults: first attempt
            # only, and only where dying is survivable (a pool worker).
            return
        if self.kill_unit is not None and index == self.kill_unit:
            os.kill(os.getpid(), signal.SIGKILL)
        if self.hang_unit is not None and index == self.hang_unit:
            time.sleep(self.hang_seconds)

