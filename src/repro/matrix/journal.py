"""Crash-safe run journals: resumable experiment grids.

A :class:`RunJournal` is the third namespace of the one store
(:mod:`repro.store`): a :class:`~repro.matrix.cache.ResultCache` at
``<cache dir>/runs/<run_id>/`` that also keeps the run's quarantine
verdicts (the ``failure`` result kind).  It records every resolved
unit, so an interrupted grid (ctrl-C, a reboot, an OOM-killed parent)
resumes with ``--journal [RUN_ID]``, and replayed units decode
byte-for-byte.  Entries are keyed by
:func:`~repro.matrix.cache.unit_key`, so a stale journal never
contaminates a changed experiment and runs of one workload can share
one.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Union

from .cache import ResultCache, decode_entry
from .spec import ExperimentSpec

__all__ = ["RunJournal"]


class RunJournal(ResultCache):
    """The result cache of one run, quarantine verdicts included."""

    __slots__ = ("run_id",)

    def __init__(self, run_id: str, root: Union[str, Path]) -> None:
        super().__init__(Path(root) / run_id)
        self.run_id = run_id

    def record_result(self, spec: ExperimentSpec, seed: int,
                      outcome: Any, *, key: Optional[str] = None) -> None:
        """Record a resolved unit: its result or its quarantine verdict.

        ``key`` is the unit's :func:`~repro.matrix.cache.unit_key` when
        the caller already hashed it.
        """
        self.put(spec, seed, outcome, key=key)

    def load(self) -> Dict[str, Any]:
        """Every readable entry's outcome, keyed by unit key."""
        outcomes: Dict[str, Any] = {}
        for key in self.sorted_keys():
            outcome = self.read(key, decode_entry)
            if outcome is not None:
                outcomes[key] = outcome
        return outcomes
