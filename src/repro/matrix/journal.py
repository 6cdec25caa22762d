"""Crash-safe run journals: resumable experiment grids.

A :class:`RunJournal` is the result cache of one run: a
:class:`~repro.matrix.cache.ResultCache` whose directory belongs to
one run id and which also keeps the run's quarantine verdicts (a
:class:`~repro.core.runner.UnitFailure` is the cache's ``failure``
result kind).  It records every resolved unit, so an interrupted grid
(ctrl-C at hour two, a machine reboot, an OOM-killed parent) resumes
with ``--journal [RUN_ID]`` instead of starting over.  Replayed units
decode byte-for-byte: a resumed run's
:class:`~repro.core.runner.AveragedResult` numbers are identical to an
uninterrupted run's.

Layout: ``<cache dir>/runs/<run_id>/<unit_key>.json``, one cache entry
per resolved unit, written and read (corrupt entries healed by
deletion) exactly as the result cache's.  The unit key (spec canonical
JSON + seed + package version, :func:`~repro.matrix.cache.unit_key`)
guarantees a stale journal can never contaminate a changed experiment,
so any number of runs of one workload can share a journal.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Union

from .cache import ResultCache
from .spec import ExperimentSpec

__all__ = ["RunJournal"]


class RunJournal(ResultCache):
    """The result cache of one run, quarantine verdicts included."""

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
        for path in sorted(self.root.glob("*.json")):
            outcome = self._read(path)
            if outcome is not None:
                outcomes[path.stem] = outcome
        return outcomes
