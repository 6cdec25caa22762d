"""Parallel execution of experiment grids on a persistent warm pool.

:class:`MatrixRunner` fans the (cell, seed) work units of one or more
:class:`~repro.matrix.spec.ExperimentSpec` out over a
``multiprocessing`` pool.  Each worker builds the Microscape site and
resource store locally (live simulation objects do not pickle; specs
and numeric results do), so a unit's computation is byte-for-byte the
same wherever it runs — ``jobs=4`` and the serial ``jobs=1`` fallback
are guaranteed to produce identical numbers, and a content-addressed
:class:`~repro.matrix.cache.ResultCache` can substitute for either.

Three fixed costs are amortized instead of paid per unit or per call:

* **The pool is persistent.**  One pool serves every ``run()`` /
  ``run_many()`` call for the runner's lifetime (``close()`` or use the
  runner as a context manager to release it); a six-table report no
  longer forks and tears down a pool per table.
* **Workers warm up on spawn.**  The parent pre-builds the default
  site/store before forking (copy-on-write sharing where the platform
  forks) and every worker's initializer builds it otherwise — served
  from the content-addressed artifact store
  (:mod:`repro.content.artifacts`) in O(read) when warm — so the first
  dispatched unit measures simulation, not site synthesis.
* **Dispatch is chunked.**  Units travel in chunks of about
  :data:`_CHUNKS_PER_WORKER` per worker (one pickle/IPC round-trip and
  one batched :meth:`ResultCache.put_many` flush per chunk) instead of
  one message per unit.

Observability: the runner accumulates :class:`MatrixStats` (per-cell
wall time, cache and artifact hit/miss counters, IPC batch and pickled-
byte totals, failure/retry/respawn counters) and emits a
:class:`CellEvent` to an optional progress callback as each unit
resolves.

Robustness: parallel execution is driven by
:class:`~repro.matrix.supervisor.Supervisor` — per-unit wall-clock
deadlines, dead/hung-worker detection, pool respawn and a capped retry
ladder (parallel retry → serial in-parent retry → quarantine).
Quarantined units surface as structured
:class:`~repro.core.runner.UnitFailure` records on the cell's
:class:`~repro.core.runner.AveragedResult` instead of aborting the
grid, and an optional :class:`~repro.matrix.journal.RunJournal`
records every resolved unit so an interrupted grid resumes
byte-identically.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import time
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from ..core.runner import AveragedResult, UnitFailure, warm_default_site
from .cache import ResultCache, unit_key
from .journal import RunJournal
from .spec import ExperimentSpec
from .supervisor import Supervisor, _attempt, process_counters

__all__ = ["CellEvent", "MatrixStats", "MatrixRunner", "run_unit"]

#: Progress callback signature.
ProgressCallback = Callable[["CellEvent"], None]

#: A unit in flight: (slot index, spec, seed).
_Unit = Tuple[int, ExperimentSpec, int]

#: Target dispatch chunks per worker per run_many call.  Cells vary 50x
#: in cost (LAN revalidate vs PPP first-time), so several chunks per
#: worker keep the tail balanced while still batching IPC.
_CHUNKS_PER_WORKER = 4


@dataclasses.dataclass(frozen=True)
class CellEvent:
    """One work-unit progress event, reported to the callback."""

    spec: ExperimentSpec
    seed: int
    #: ``"hit"`` (served from cache or journal), ``"run"`` (simulated),
    #: ``"retried"`` (a failed attempt re-dispatched by the supervisor;
    #: does not advance ``completed``) or ``"failed"`` (quarantined as
    #: a :class:`~repro.core.runner.UnitFailure`).
    status: str
    #: Wall-clock seconds spent simulating (0.0 for cache hits).
    wall_time: float
    completed: int
    total: int
    #: Execution attempt this event reports (1 for first tries, hits
    #: and journal replays; >1 for supervised retries and the failures
    #: that exhausted them).
    attempt: int = 1

    @property
    def label(self) -> str:
        return self.spec.label


@dataclasses.dataclass
class MatrixStats:
    """Counters accumulated across a runner's lifetime."""

    specs: int = 0
    units: int = 0
    sim_runs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    wall_time: float = 0.0
    #: Artifact-store hits/misses observed while executing units and
    #: during the parent-side pool warm-up build (the encode
    #: memoization of :mod:`repro.content.artifacts`).
    artifact_hits: int = 0
    artifact_misses: int = 0
    #: Values the declared memos (:mod:`repro.memo`) built, and times
    #: one was emptied for being full, over the same spans: 0 built is
    #: a warm run, cleared > 0 a bound too small for the sweep.
    memo_builds: int = 0
    memo_clears: int = 0
    #: Objects only the cycle collector could free, same spans.  A
    #: unit's own die by reference count (DESIGN.md "Object lifetime"):
    #: past the stdlib's few hundred, a cycle has been put back.
    gc_collected: int = 0
    #: Dispatch chunks sent to the pool (0 for serial execution).
    ipc_batches: int = 0
    #: Bytes of pickled unit payload shipped to workers.
    bytes_pickled: int = 0
    #: Units quarantined as :class:`~repro.core.runner.UnitFailure`.
    failures: int = 0
    #: Supervised re-dispatches of failed attempts (every rung of the
    #: retry ladder counts, including the final serial one).
    unit_retries: int = 0
    #: Pool teardown-and-respawn cycles forced by dead or hung workers.
    pool_respawns: int = 0
    #: Units replayed from a :class:`~repro.matrix.journal.RunJournal`
    #: instead of simulated (resumed runs).
    journal_hits: int = 0
    #: Simulation wall seconds per simulated unit, keyed by its
    #: :func:`~repro.matrix.cache.unit_key` (a label would merge cells
    #: that differ only in client overrides or a cohort's shares).
    unit_wall_times: Dict[str, float] = dataclasses.field(
        default_factory=dict)

    def count(self, moved: Sequence[int]) -> None:
        """Add one chunk's, serial unit's or warm-up's
        :func:`~repro.matrix.supervisor.process_counters` delta."""
        hits, misses, builds, clears, collected = moved
        self.artifact_hits += hits
        self.artifact_misses += misses
        self.memo_builds += builds
        self.memo_clears += clears
        self.gc_collected += collected

    def summary(self) -> str:
        return (f"{self.specs} cells, {self.units} runs requested: "
                f"{self.sim_runs} simulated, {self.cache_hits} cache "
                f"hits, {self.cache_misses} misses, "
                f"{self.wall_time:.1f} s wall; artifacts "
                f"{self.artifact_hits} hit/{self.artifact_misses} miss; "
                f"{self.ipc_batches} ipc batches, "
                f"{self.bytes_pickled} bytes pickled; "
                f"{self.failures} failed, {self.unit_retries} retried, "
                f"{self.pool_respawns} pool respawns, "
                f"{self.journal_hits} journal hits; memos "
                f"{self.memo_builds} built, {self.memo_clears} cleared; "
                f"gc {self.gc_collected} collected")


def run_unit(spec: ExperimentSpec, seed: int) -> Tuple[object, float]:
    """Execute one (cell, seed) unit; returns (result, wall seconds).

    Every unit spec — a protocol cell
    (:meth:`ExperimentSpec.execute_unit
    <repro.matrix.spec.ExperimentSpec.execute_unit>`), a fleet cohort or
    a render timeline — runs through its own ``execute_unit(seed)``; the
    runner, supervisor, cache and journal treat the result opaquely via
    its registered codec.
    """
    start = time.perf_counter()
    result = spec.execute_unit(seed)
    return result, time.perf_counter() - start


class MatrixRunner:
    """Runs experiment specs, in parallel when asked, cached when told.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` (the default) runs everything
        serially in-process; ``None`` or ``0`` means one per CPU.
        Results are identical either way.
    cache:
        Optional :class:`ResultCache`; hits skip simulation entirely.
    progress:
        Optional callback invoked with a :class:`CellEvent` as each
        unit resolves (cache hits first, then runs as they finish).
    journal:
        Optional :class:`~repro.matrix.journal.RunJournal`.  Resolved
        units are recorded as they complete, and already-journaled
        units replay instead of re-running, so an interrupted grid
        resumes byte-identically.
    unit_deadline:
        Wall-clock seconds one unit may run in a worker before the
        supervisor declares it hung.  ``None`` derives the budget from
        each spec's ``max_sim_time``
        (× :data:`~repro.matrix.supervisor.DEADLINE_GRACE`).  It is a
        property of the host, not of the spec: a slower machine needs
        more wall time for the same unit.

    A failing unit gets
    :data:`~repro.matrix.supervisor.DEFAULT_RETRY_BUDGET` parallel
    re-dispatches before it is downgraded (serial retry for exceptions,
    quarantine for deadline / lost-worker faults).

    The pool spawned for the first parallel ``run_many()`` is reused by
    every later call; ``close()`` (or a ``with`` block) releases it.
    """

    __slots__ = ("jobs", "cache", "progress", "stats", "journal",
                 "unit_deadline", "_pool", "_pool_workers", "_progress")

    def __init__(self, jobs: Optional[int] = 1, *,
                 cache: Optional[ResultCache] = None,
                 progress: Optional[ProgressCallback] = None,
                 journal: Optional[RunJournal] = None,
                 unit_deadline: Optional[float] = None) -> None:
        if not jobs:
            jobs = os.cpu_count() or 1
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.progress = progress
        self.journal = journal
        self.unit_deadline = unit_deadline
        self.stats = MatrixStats()
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._pool_workers = 0
        self._progress = (0, 0)

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> "multiprocessing.pool.Pool":
        """The persistent pool, spawning (and warming) it on first use."""
        if self._pool is None:
            # Build before forking: fork-start workers inherit the site
            # copy-on-write instead of each building their own, and a
            # spawned worker builds it on start (from the artifact store
            # the environment it inherits configures).
            before = process_counters()
            warm_default_site()
            self.stats.count(process_counters(before))
            self._pool = multiprocessing.Pool(
                processes=self.jobs, initializer=warm_default_site)
            self._pool_workers = self.jobs
        return self._pool

    def _respawn_pool(self) -> "multiprocessing.pool.Pool":
        """Tear down a faulted pool and spawn a fresh replacement.

        ``terminate()`` rather than ``close()``: a hung worker would
        never drain its task, and a dead one may have taken queue state
        with it.  The replacement becomes the persistent pool, so later
        ``run_many`` calls inherit the healthy one.
        """
        pool, self._pool = self._pool, None
        self._pool_workers = 0
        if pool is not None:
            pool.terminate()
            pool.join()
        self.stats.pool_respawns += 1
        return self._ensure_pool()

    def close(self) -> None:
        """Release the worker pool (idempotent; a later run respawns)."""
        pool, self._pool = self._pool, None
        self._pool_workers = 0
        if pool is None:
            return
        workers = getattr(pool, "_pool", None) or []
        if any(getattr(p, "exitcode", None) is not None
               for p in workers):
            # A dead worker can leave a graceful close() joining on a
            # task that will never finish; terminate reaps what's left.
            pool.terminate()
        else:
            pool.close()
        pool.join()

    def __enter__(self) -> "MatrixRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        pool = getattr(self, "_pool", None)
        if pool is not None:
            # Interpreter-teardown path: terminate, then reap — an
            # unjoined pool leaks its workers past the parent's exit.
            try:
                pool.terminate()
                pool.join()
            except Exception:
                pass

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, spec: ExperimentSpec) -> AveragedResult:
        """Run (or recall) one spec; mean of its seeds."""
        return self.run_many([spec])[0]

    def run_many(self, specs: Sequence[ExperimentSpec]
                 ) -> List[AveragedResult]:
        """Run a batch of specs, fanning all their units out together.

        Batching matters: a six-table report hands the pool every
        (cell, seed) unit at once instead of draining one row before
        starting the next.
        """
        started = time.perf_counter()
        units: List[Tuple[ExperimentSpec, int]] = [
            (spec, seed) for spec in specs for seed in spec.seeds]
        slots: List[object] = [None] * len(units)
        total = len(units)
        completed = 0
        # Each unit is hashed once; the stats map, the journal and the
        # cache all address it by that key.
        keys = [unit_key(spec, seed) for spec, seed in units]
        journaled = self.journal.load() if self.journal is not None else {}

        pending: List[int] = []
        for index, (spec, seed) in enumerate(units):
            # Journal replay wins over the cache: it preserves
            # quarantine verdicts too, not just measurements.
            outcome = journaled.get(keys[index])
            if outcome is not None:
                self.stats.journal_hits += 1
            elif self.cache is not None:
                outcome = self.cache.get(spec, seed, key=keys[index])
                if outcome is None:
                    self.stats.cache_misses += 1
                else:
                    self.stats.cache_hits += 1
                    if self.journal is not None:
                        self.journal.record_result(spec, seed, outcome,
                                                   key=keys[index])
            if outcome is None:
                pending.append(index)
                continue
            slots[index] = outcome
            completed += 1
            if isinstance(outcome, UnitFailure):
                self.stats.failures += 1
                self._emit(spec, seed, "failed", 0.0, completed, total,
                           attempt=outcome.attempts)
            else:
                self._emit(spec, seed, "hit", 0.0, completed, total)

        self._progress = (completed, total)
        for batch in self._execute(units, pending):
            if self.cache is not None:
                self.cache.put_many(
                    (*units[index], outcome, keys[index])
                    for index, outcome, _ in batch
                    if not isinstance(outcome, UnitFailure))
            for index, outcome, wall in batch:
                spec, seed = units[index]
                slots[index] = outcome
                completed += 1
                if self.journal is not None:
                    self.journal.record_result(spec, seed, outcome,
                                               key=keys[index])
                if isinstance(outcome, UnitFailure):
                    self.stats.failures += 1
                    self._emit(spec, seed, "failed", wall, completed,
                               total, attempt=outcome.attempts)
                else:
                    self.stats.sim_runs += 1
                    self.stats.unit_wall_times[keys[index]] = wall
                    self._emit(spec, seed, "run", wall, completed, total)
                self._progress = (completed, total)

        self.stats.specs += len(specs)
        self.stats.units += total
        self.stats.wall_time += time.perf_counter() - started

        averaged: List[AveragedResult] = []
        cursor = 0
        for spec in specs:
            cell = slots[cursor:cursor + spec.runs]
            cursor += spec.runs
            runs = [r for r in cell
                    if r is not None and not isinstance(r, UnitFailure)]
            failures = [f for f in cell if isinstance(f, UnitFailure)]
            averaged.append(AveragedResult(runs, failures=failures))
        return averaged

    # ------------------------------------------------------------------
    # Execution strategies
    # ------------------------------------------------------------------
    def _execute(self, units, pending
                 ) -> Iterator[List[Tuple[int, object, float]]]:
        """Yield batches of (index, outcome, wall) covering ``pending``.

        Outcomes are stripped :class:`RunResult` objects or quarantined
        :class:`UnitFailure` records.  Serial execution yields one
        single-unit batch at a time (cache writes stay incremental);
        pool execution delegates to the supervisor, which yields one
        batch per resolved dispatch chunk.
        """
        if not pending:
            return
        if self.jobs <= 1 or len(pending) <= 1:
            for index in pending:
                spec, seed = units[index]
                yield [_attempt(self.stats.count, index, spec, seed, 1)]
            return
        payload = [(index, units[index][0], units[index][1])
                   for index in pending]
        yield from Supervisor(self).execute(payload)

    def _chunked(self, payload: List[_Unit]) -> Iterator[List[_Unit]]:
        """Split the pending units into dispatch chunks."""
        size = math.ceil(len(payload) / (self.jobs * _CHUNKS_PER_WORKER))
        for start in range(0, len(payload), size):
            yield payload[start:start + size]

    def _emit(self, spec, seed, status, wall, completed, total, *,
              attempt: int = 1) -> None:
        if self.progress is not None:
            self.progress(CellEvent(spec=spec, seed=seed, status=status,
                                    wall_time=wall, completed=completed,
                                    total=total, attempt=attempt))

    def _emit_retry(self, spec, seed, attempt: int) -> None:
        """Report a supervised re-dispatch (called by the supervisor)."""
        self.stats.unit_retries += 1
        completed, total = self._progress
        self._emit(spec, seed, "retried", 0.0, completed, total,
                   attempt=attempt)
