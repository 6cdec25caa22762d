"""Parallel execution of experiment grids on persistent warm workers.

:class:`MatrixRunner` fans the (cell, seed) work units of one or more
:class:`~repro.matrix.spec.ExperimentSpec` out over ``jobs`` worker
processes, each on its own duplex pipe.  Each worker builds the
Microscape site and resource store locally (live simulation objects do
not pickle; specs and numeric results do), so a unit's computation is
byte-for-byte the same wherever it runs — ``jobs=4`` and the serial
``jobs=1`` fallback are guaranteed to produce identical numbers, and a
content-addressed :class:`~repro.matrix.cache.ResultCache` can
substitute for either.

Three fixed costs are amortized instead of paid per unit or per call:

* **The workers are persistent.**  One set serves every ``run()`` /
  ``run_many()`` call for the runner's lifetime (``close()`` or use the
  runner as a context manager to release it); a six-table report does
  not fork and tear down workers per table.
* **Workers warm up on spawn.**  The parent pre-builds the default
  site/store before forking (copy-on-write sharing where the platform
  forks) and every worker builds it on start otherwise — served
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

Robustness: parallel execution is supervised.  A bare worker-pool
drain has two failure modes fatal to long grids: a worker killed
mid-chunk (OOM killer, segfault) wedges it forever, and a single
raising unit aborts the whole batch.  The runner keeps one chunk in
flight per worker:

* a chunk's **wall-clock deadline** starts when an idle worker gets it
  (``unit_deadline``, or :data:`DEADLINE_GRACE` × the spec's
  ``max_sim_time``, summed over its units), so no chunk spends its
  budget queued behind another;
* the runner waits on the busy workers' pipes and process sentinels
  until the nearest deadline, and collects a reply that has arrived
  before it judges a deadline;
* a deadline, a death or an unreadable reply **kills and replaces that
  one worker**: no other worker loses its chunk, no lock is shared
  between workers, and only the lost chunk is charged against the
  retry budget (:data:`DEFAULT_RETRY_BUDGET`);
* failures walk the robot's **downgrade ladder**: parallel retry →
  serial in-parent retry → quarantine.  Only exception failures reach
  the serial rung — a unit that hangs or kills its worker would do the
  same to the parent;
* a quarantined unit becomes a :class:`~repro.core.runner.UnitFailure`
  on its cell's :class:`~repro.core.runner.AveragedResult`, so sibling
  units and cells complete normally.

A unit's computation does not depend on where or how often it ran, so
a grid that survives a worker kill is byte-identical to an undisturbed
serial run, and an optional :class:`~repro.matrix.journal.RunJournal`
records every resolved unit so an interrupted grid resumes
byte-identically.  Every attempt, in a worker or in the parent, looks
:func:`run_unit` up at call time, so that one function is where a test
stands in a unit that raises, hangs or kills its worker.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import multiprocessing
import operator
import os
import pickle
import time
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from .. import memo
from ..content import artifacts
from ..core.runner import AveragedResult, UnitFailure, warm_default_site
from .cache import ResultCache, unit_key
from .journal import RunJournal
from .spec import ExperimentSpec

__all__ = ["CellEvent", "MatrixStats", "MatrixRunner", "run_unit",
           "DEADLINE_GRACE", "DEFAULT_RETRY_BUDGET", "process_counters"]

#: Progress callback signature.
ProgressCallback = Callable[["CellEvent"], None]

#: A unit in flight: (slot index, spec, seed, attempt).
_Unit = Tuple[int, ExperimentSpec, int, int]

#: A resolved unit: (slot index, outcome, wall seconds); the outcome is
#: a stripped RunResult or a UnitFailure.
_Outcome = Tuple[int, object, float]

#: Target dispatch chunks per worker per run_many call.  Cells vary 50x
#: in cost (LAN revalidate vs PPP first-time), so several chunks per
#: worker keep the tail balanced while still batching IPC.
_CHUNKS_PER_WORKER = 4

#: Parallel re-dispatches allowed per unit after its first failure
#: (the serial in-parent rung comes after these, for exception
#: failures only).
DEFAULT_RETRY_BUDGET = 2

#: Without an explicit ``unit_deadline``, a unit's wall-clock budget is
#: this fraction of its spec's ``max_sim_time``.  Simulated seconds run
#: orders of magnitude faster than wall seconds, so the default (300 s
#: of wall time for the default 1200 s simulation horizon) is a hang
#: backstop, not a performance target.
DEADLINE_GRACE = 0.25

#: What a quarantined machine fault's UnitFailure says, by its kind.
_FAULTS = {"deadline": "unit wall-clock deadline expired",
           "worker-lost": "worker process died, or its reply was "
                          "unreadable, mid-chunk"}


@dataclasses.dataclass(frozen=True)
class CellEvent:
    """One work-unit progress event, reported to the callback."""

    spec: ExperimentSpec
    seed: int
    #: ``"hit"`` (served from cache or journal), ``"run"`` (simulated),
    #: ``"retried"`` (a failed attempt re-dispatched; does not advance
    #: ``completed``) or ``"failed"`` (quarantined as
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
    #: during the parent-side worker warm-up build (the encode
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
    #: Dispatch chunks sent to workers (0 for serial execution).
    ipc_batches: int = 0
    #: Bytes of pickled unit payload shipped to workers.
    bytes_pickled: int = 0
    #: Units quarantined as :class:`~repro.core.runner.UnitFailure`.
    failures: int = 0
    #: Supervised re-dispatches of failed attempts (every rung of the
    #: retry ladder counts, including the final serial one).
    unit_retries: int = 0
    #: Workers killed and replaced, one at a time, for a deadline, a
    #: death or an unreadable reply.
    worker_respawns: int = 0
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
        :func:`process_counters` delta."""
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
                f"{self.worker_respawns} worker respawns, "
                f"{self.journal_hits} journal hits; memos "
                f"{self.memo_builds} built, {self.memo_clears} cleared; "
                f"gc {self.gc_collected} collected")


def run_unit(spec: ExperimentSpec, seed: int) -> Tuple[object, float]:
    """Execute one (cell, seed) unit; returns (result, wall seconds).

    Every unit spec — a protocol cell
    (:meth:`ExperimentSpec.execute_unit
    <repro.matrix.spec.ExperimentSpec.execute_unit>`), a fleet cohort or
    a render timeline — runs through its own ``execute_unit(seed)``; the
    runner, cache and journal treat the result opaquely via its
    registered codec.
    """
    start = time.perf_counter()
    result = spec.execute_unit(seed)
    return result, time.perf_counter() - start


def process_counters(since: Sequence[int] = (0, 0, 0, 0, 0)
                     ) -> Tuple[int, ...]:
    """This process's (artifact hits, artifact misses, memo builds,
    memo clears, objects the cycle collector freed) so far, less
    ``since``.  They depend on what the process ran before (a worker
    starts cold, the serial path warms up), so they travel beside the
    results as a delta per chunk or unit, never inside a result, a
    cache payload or a digest."""
    store = artifacts.get_store().stats
    now = (store.hits, store.misses, *memo.totals(),
           sum(generation["collected"] for generation in gc.get_stats()))
    return tuple(map(operator.sub, now, since))


def _attempt(count, index: int, spec: ExperimentSpec, seed: int,
             attempt: int) -> _Outcome:
    """The one way to run a unit: in a worker process, or in the parent
    — where ``jobs=1`` execution starts (attempt 1) and exception
    failures that spent their parallel budget end, the ladder's final
    rung.

    A raising unit becomes a :class:`UnitFailure` instead of
    propagating (in a worker that would lose the whole chunk; the
    parent's ladder decides what is next, and in the parent itself the
    failure is the quarantine verdict).  ``count`` receives the
    :func:`process_counters` delta in a ``finally``, so a consumer that
    stops iterating cannot lose it.
    """
    before = process_counters()
    try:
        result, wall = run_unit(spec, seed)
        return (index, result, wall)
    except Exception as exc:
        return (index, UnitFailure.from_exception(
            spec.label, seed, exc, attempts=attempt), 0.0)
    finally:
        count(process_counters(before))


def _serve(conn, inherited) -> None:
    """A worker process's one loop: warm the default site, then run
    each chunk the parent sends and send back its outcomes with their
    summed counter delta, until the parent closes the pipe.
    ``inherited`` are the parent's pipe ends the fork copied in, closed
    first so the parent's close is an EOF here.  A reply that does not
    pickle ends the worker: a lost one."""
    for end in inherited:
        end.close()
    warm_default_site()
    while True:
        try:
            units = pickle.loads(conn.recv_bytes())
        except EOFError:
            return
        moved: List[Tuple[int, ...]] = []
        outcomes = [_attempt(moved.append, *unit) for unit in units]
        conn.send((outcomes, tuple(map(sum, zip(*moved)))))


class _Worker:
    """One worker process, running :func:`_serve`, the parent's end of
    its duplex pipe, and the chunk it runs (``units``, None when idle)
    with that chunk's wall-clock deadline."""

    __slots__ = ("process", "conn", "units", "deadline")

    def __init__(self, siblings: Sequence["_Worker"]) -> None:
        self.conn, child = multiprocessing.Pipe()
        # The worker closes the parent ends it inherits, its own and
        # its running siblings', so each parent close is an EOF.
        self.process = multiprocessing.Process(
            target=_serve, daemon=True,
            args=(child, [self.conn, *(w.conn for w in siblings)]))
        self.process.start()
        child.close()
        self.units: Optional[list] = None
        self.deadline = 0.0


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
        runner declares it hung.  ``None`` derives the budget from each
        spec's ``max_sim_time`` (× :data:`DEADLINE_GRACE`).  It is a
        property of the host, not of the spec: a slower machine needs
        more wall time for the same unit.

    A failing unit gets :data:`DEFAULT_RETRY_BUDGET` parallel
    re-dispatches before it is downgraded (serial retry for exceptions,
    quarantine for deadline / lost-worker faults).

    The workers started for the first parallel ``run_many()`` serve
    every later call; ``close()`` (or a ``with`` block) releases them.
    """

    __slots__ = ("jobs", "cache", "progress", "stats", "journal",
                 "unit_deadline", "_workers")

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
        self._workers: List[_Worker] = []

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _ensure_workers(self) -> List["_Worker"]:
        """The persistent workers, started (and warmed) up to ``jobs``:
        on first use, and to replace one that was retired."""
        if len(self._workers) < self.jobs:
            # Build before forking: fork-start workers inherit the site
            # copy-on-write instead of each building their own, and a
            # spawned worker builds it on start (from the artifact store
            # the environment it inherits configures).
            before = process_counters()
            warm_default_site()
            self.stats.count(process_counters(before))
            while len(self._workers) < self.jobs:
                self._workers.append(_Worker(self._workers))
        return self._workers

    def _retire(self, worker: "_Worker") -> None:
        """Kill and reap one worker that is hung, dead or mid-chunk."""
        self._workers.remove(worker)
        worker.conn.close()
        worker.process.kill()
        worker.process.join()

    def close(self) -> None:
        """Release the workers (idempotent; a later run starts new ones):
        each sees its pipe close and leaves by its normal exit path."""
        workers, self._workers = self._workers, []
        for worker in workers:
            worker.conn.close()
        for worker in workers:
            worker.process.join()

    def __enter__(self) -> "MatrixRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
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

        Batching matters: a six-table report hands the workers every
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

        def retried(spec, seed, attempt: int) -> None:
            # A failed attempt re-dispatched: reported at the count of
            # units resolved so far (``completed`` as it is now).
            self.stats.unit_retries += 1
            self._emit(spec, seed, "retried", 0.0, completed, total,
                       attempt=attempt)

        for batch in self._execute(units, pending, retried):
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
    # Execution: serial, or supervised on the workers
    # ------------------------------------------------------------------
    def _execute(self, units, pending, retried
                 ) -> Iterator[List[_Outcome]]:
        """Yield batches of (index, outcome, wall) covering ``pending``,
        every index exactly once; ``retried(spec, seed, attempt)``
        reports each re-dispatch.

        Outcomes are stripped :class:`RunResult` objects or quarantined
        :class:`UnitFailure` records.  Serial execution yields one
        single-unit batch at a time (cache writes stay incremental);
        parallel execution yields one batch per resolved chunk.
        """
        if not pending:
            return
        if self.jobs <= 1 or len(pending) <= 1:
            for index in pending:
                spec, seed = units[index]
                yield [_attempt(self.stats.count, index, spec, seed, 1)]
            return
        size = math.ceil(len(pending) / (self.jobs * _CHUNKS_PER_WORKER))
        # The chunks waiting for a worker.
        queued: List[List[_Unit]] = [
            [(index, *units[index], 1)
             for index in pending[start:start + size]]
            for start in range(0, len(pending), size)]
        try:
            self._fill(queued)
            while self._busy():
                batches = self._reap(queued, retried)
                self._fill(queued)
                yield from filter(None, batches)
        finally:
            # Abandoned mid-batch: a late reply must never answer a
            # later call's chunk, so a busy worker goes.
            for worker in self._busy():
                self._retire(worker)

    def _busy(self) -> List[_Worker]:
        return [w for w in self._workers if w.units is not None]

    def _fill(self, queued: List[List[_Unit]]) -> None:
        """Hand queued chunks to idle workers; each deadline starts now."""
        for worker in self._ensure_workers():
            if not queued:
                return
            if worker.units is not None:
                continue
            worker.units = units = queued.pop(0)
            worker.deadline = time.monotonic() + sum(
                self._deadline_for(spec) for _, spec, _, _ in units)
            payload = pickle.dumps(units, pickle.HIGHEST_PROTOCOL)
            self.stats.ipc_batches += 1
            self.stats.bytes_pickled += len(payload)
            try:
                worker.conn.send_bytes(payload)
            except OSError:
                pass    # it died idle: _reap finds its pipe at EOF

    def _deadline_for(self, spec: ExperimentSpec) -> float:
        if self.unit_deadline is not None:
            return float(self.unit_deadline)
        return DEADLINE_GRACE * spec.max_sim_time

    def _reap(self, queued: List[List[_Unit]], retried
              ) -> List[List[_Outcome]]:
        """Wait until a busy worker replies, dies or overruns its
        deadline, then resolve each such chunk into one batch.

        A reply that has arrived is collected before its deadline is
        judged.  A worker whose pipe is at end of file, whose reply
        does not unpickle, that has exited, or that is past its
        deadline is killed and replaced, and only its chunk is charged.
        """
        # Loaded on first use: a serial run never pays for the import.
        from multiprocessing.connection import wait
        busy = self._busy()
        wait([handle for w in busy for handle in (w.conn, w.process.sentinel)],
             max(0.0, min(w.deadline for w in busy) - time.monotonic()))
        now = time.monotonic()
        batches: List[List[_Outcome]] = []
        for worker in busy:
            units = {unit[0]: unit for unit in worker.units}
            if worker.conn.poll():
                try:
                    results, moved = worker.conn.recv()
                except Exception:
                    fault = "worker-lost"
                else:
                    worker.units = None
                    self.stats.count(moved)
                    batches.append([
                        self._downgrade(units[index], None, queued, retried)
                        if isinstance(outcome, UnitFailure)
                        else (index, outcome, wall)
                        for index, outcome, wall in results])
                    continue
            elif worker.process.exitcode is not None:
                fault = "worker-lost"
            elif now > worker.deadline:
                fault = "deadline"
            else:
                continue
            self._retire(worker)
            self.stats.worker_respawns += 1
            batches.append([self._downgrade(unit, fault, queued, retried)
                            for unit in units.values()])
        return [[outcome for outcome in batch if outcome is not None]
                for batch in batches]

    def _downgrade(self, unit: _Unit, fault: Optional[str],
                   queued: List[List[_Unit]], retried
                   ) -> Optional[_Outcome]:
        """One failed attempt's next rung of the ladder.

        While the parallel budget lasts the unit is re-dispatched as a
        singleton chunk (isolation keeps a repeat offender from taking
        fresh neighbours down with it), and None says it resolves in a
        later batch.  After it, a raising unit (``fault`` None) runs in
        the parent, and a machine ``fault`` (a key of :data:`_FAULTS`)
        is quarantined: a unit that hangs or kills its worker would do
        the same to the parent.
        """
        index, spec, seed, attempt = unit
        if attempt > DEFAULT_RETRY_BUDGET and fault is not None:
            return (index, UnitFailure(
                label=spec.label, seed=seed, kind=fault,
                error=_FAULTS[fault], traceback_digest="",
                attempts=attempt), 0.0)
        retried(spec, seed, attempt + 1)
        if attempt > DEFAULT_RETRY_BUDGET:
            return _attempt(self.stats.count, index, spec, seed,
                            attempt + 1)
        queued.append([(index, spec, seed, attempt + 1)])
        return None

    def _emit(self, spec, seed, status, wall, completed, total, *,
              attempt: int = 1) -> None:
        if self.progress is not None:
            self.progress(CellEvent(spec=spec, seed=seed, status=status,
                                    wall_time=wall, completed=completed,
                                    total=total, attempt=attempt))
