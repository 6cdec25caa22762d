"""The experiment-matrix engine: declarative specs, parallel execution.

This package turns the paper's 4-modes x 2-scenarios x 3-environments
x 2-servers grid (times five seeds per cell) into data::

    from repro.matrix import ExperimentSpec, MatrixRunner, ResultCache

    spec = ExperimentSpec(mode="pipelined", scenario="revalidate",
                          environment="WAN", server="Apache")
    row = MatrixRunner(jobs=4, cache=ResultCache(".repro-cache")).run(spec)
    print(row.packets, row.elapsed)

* :class:`ExperimentSpec` / :class:`ExperimentMatrix` — frozen,
  canonicalized descriptions of cells and grids; string names resolve
  through the same :mod:`repro.core.registry` the CLI uses.
* :class:`MatrixRunner` — fans (cell, seed) units over persistent
  worker processes with a bit-identical serial fallback, per-cell
  wall-time stats and a progress callback, and supervises them:
  per-unit deadlines, a hung or dead worker replaced alone, capped
  retries and :class:`~repro.core.runner.UnitFailure` quarantine.
* :class:`ResultCache` — content-addressed JSON store under
  ``.repro-cache/``; a second ``python -m repro report --cache``
  simulates nothing.
* :class:`RunJournal` — the result cache of one run, quarantine
  verdicts included, under ``<cache dir>/runs/<RUN_ID>/``;
  ``--journal [RUN_ID]`` records a run into it and replays it
  byte-identically.
"""

from .cache import DEFAULT_CACHE_DIR, ResultCache, unit_key
from .journal import RunJournal
from .runner import CellEvent, MatrixRunner, MatrixStats, run_unit
from .spec import (DEFAULT_SEEDS, ExperimentMatrix, ExperimentSpec,
                   client_config_overrides)

__all__ = [
    "DEFAULT_CACHE_DIR", "ResultCache", "unit_key",
    "RunJournal",
    "CellEvent", "MatrixRunner", "MatrixStats", "run_unit",
    "DEFAULT_SEEDS", "ExperimentMatrix", "ExperimentSpec",
    "client_config_overrides",
]
