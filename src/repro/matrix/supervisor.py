"""Supervised pool execution: deadlines, respawn, retries, quarantine.

The bare ``Pool.imap_unordered`` drain this module replaces had two
failure modes fatal to long grids: a worker killed mid-chunk (OOM
killer, segfault) wedges the iterator forever, and a single raising
unit aborts the whole batch.  :class:`Supervisor` owns the in-flight
chunks instead:

* at most one chunk per worker is in flight, and each carries a
  **wall-clock deadline** from its dispatch (per-unit budget — the
  runner's ``unit_deadline`` or :data:`DEADLINE_GRACE` × the spec's
  ``max_sim_time`` — summed over the chunk's units), so no chunk
  spends its budget queued behind another;
* a **liveness watch** on the pool's worker processes notices a dead
  worker within one poll interval, without waiting for the deadline;
* on either signal the pool is **terminated and respawned** and every
  lost chunk is re-dispatched under the capped retry budget
  (:data:`DEFAULT_RETRY_BUDGET`);
* failures walk the same **downgrade ladder** as the PR-4 robot:
  parallel retry → serial in-parent retry → quarantine.  Only
  exception failures reach the serial rung — a unit that hangs or
  kills its worker would do the same to the parent — deadline and
  lost-worker failures quarantine once the parallel budget is spent;
* a quarantined unit becomes a structured
  :class:`~repro.core.runner.UnitFailure` yielded in-band, so sibling
  units (and sibling cells) complete normally.

Determinism is preserved: a unit's computation does not depend on
where or how often it ran, so a grid that survives a worker kill
produces numbers byte-identical to an undisturbed serial run.

Every attempt, in a worker or in the parent, looks
:func:`~repro.matrix.runner.run_unit` up at call time
(:func:`_attempt`), so that one function is where a test stands in a
unit that raises, hangs or kills its worker.
"""

from __future__ import annotations

import gc
import operator
import pickle
import time
from typing import Iterator, List, Optional, Sequence, Tuple

from .. import memo
from ..content import artifacts
from ..core.runner import UnitFailure
from .spec import ExperimentSpec

__all__ = ["DEFAULT_RETRY_BUDGET", "DEADLINE_GRACE", "Supervisor",
           "process_counters"]

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

#: Supervisor poll cadence while chunks are in flight.
_POLL_INTERVAL = 0.05

#: A unit in a supervised dispatch: (slot index, spec, seed, attempt).
_SupUnit = Tuple[int, ExperimentSpec, int, int]

#: What execute() yields per resolved unit: the outcome is either a
#: stripped RunResult or a UnitFailure.
_Outcome = Tuple[int, object, float]


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
    """The one way to run a unit: in a pool worker, or in the parent —
    where ``jobs=1`` execution starts (attempt 1) and exception failures
    that spent their parallel budget end, the ladder's final rung.

    A raising unit becomes a :class:`UnitFailure` instead of
    propagating (in a worker that would abort the pool drain for the
    whole batch; the parent's ladder decides what is next, and in the
    parent itself the failure is the quarantine verdict).  ``count``
    receives the :func:`process_counters` delta in a ``finally``, so a
    consumer that stops iterating cannot lose it.
    """
    from .runner import run_unit    # runner imports this module
    before = process_counters()
    try:
        result, wall = run_unit(spec, seed)
        return (index, result, wall)
    except Exception as exc:
        return (index, UnitFailure.from_exception(
            spec.label, seed, exc, attempts=attempt), 0.0)
    finally:
        count(process_counters(before))


def _run_chunk_supervised(units: Sequence[_SupUnit]
                          ) -> Tuple[List[_Outcome], Tuple[int, ...]]:
    """Worker entry: one IPC round-trip per chunk, returning the units'
    outcomes and their summed counter delta for the parent to aggregate
    across the pool."""
    moved: List[Tuple[int, ...]] = []
    outcomes = [_attempt(moved.append, *unit) for unit in units]
    return outcomes, tuple(map(sum, zip(*moved)))


class _Chunk:
    """One dispatched chunk: its units, async handle, and deadline."""

    __slots__ = ("units", "handle", "deadline")

    def __init__(self, units: List[_SupUnit], handle,
                 deadline: float) -> None:
        self.units = units
        self.handle = handle
        self.deadline = deadline


class Supervisor:
    """Drives one supervised parallel batch for a MatrixRunner.

    Created per ``run_many`` parallel dispatch; uses the runner's
    persistent pool (respawning it through the runner so later calls
    reuse the healthy replacement), follows the runner's
    ``unit_deadline`` and :data:`DEFAULT_RETRY_BUDGET`, and reports retries, respawns and IPC totals into the runner's
    :class:`MatrixStats`.
    """

    __slots__ = ("runner", "_inflight", "_queued", "_procs")

    def __init__(self, runner) -> None:
        self.runner = runner
        self._inflight: List[_Chunk] = []
        self._queued: List[List[_SupUnit]] = []  # waiting for a worker
        self._procs: List[object] = []

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def execute(self, payload: Sequence[Tuple[int, ExperimentSpec, int]]
                ) -> Iterator[List[_Outcome]]:
        """Yield batches of (index, outcome, wall) covering ``payload``.

        Outcomes are stripped :class:`RunResult` objects for units that
        completed and :class:`UnitFailure` records for units the retry
        ladder quarantined.  Every index in ``payload`` is yielded
        exactly once.
        """
        units: List[_SupUnit] = [(index, spec, seed, 1)
                                 for index, spec, seed in payload]
        self._watch(self.runner._ensure_pool())
        self._queued.extend(map(list, self.runner._chunked(units)))
        while self._queued or self._inflight:
            self._fill()
            ready = [c for c in self._inflight if c.handle.ready()]
            if ready:
                for chunk in ready:
                    self._inflight.remove(chunk)
                    batch = self._collect(chunk)
                    self._fill()
                    if batch:
                        yield batch
                continue
            batch = self._supervise()
            if batch:
                yield batch

    # ------------------------------------------------------------------
    # Dispatch and collection
    # ------------------------------------------------------------------
    def _fill(self) -> None:
        """Hand queued chunks to the pool while a worker is free."""
        pool = self.runner._ensure_pool()
        stats = self.runner.stats
        while self._queued and len(self._inflight) < self.runner.jobs:
            units = self._queued.pop(0)
            stats.ipc_batches += 1
            stats.bytes_pickled += len(
                pickle.dumps(units, pickle.HIGHEST_PROTOCOL))
            deadline = time.monotonic() + sum(
                self._deadline_for(spec) for _, spec, _, _ in units)
            self._inflight.append(_Chunk(
                units, pool.apply_async(_run_chunk_supervised, (units,)),
                deadline))

    def _deadline_for(self, spec: ExperimentSpec) -> float:
        if self.runner.unit_deadline is not None:
            return float(self.runner.unit_deadline)
        return DEADLINE_GRACE * spec.max_sim_time

    def _watch(self, pool) -> None:
        """Snapshot the pool's worker processes for liveness checks.

        The snapshot keeps references to the worker Process objects, so
        a worker that dies stays visible (exitcode set) even after the
        pool's maintenance thread replaces it in its own bookkeeping.
        """
        self._procs = list(getattr(pool, "_pool", None) or [])

    def _collect(self, chunk: _Chunk) -> List[_Outcome]:
        try:
            results, moved = chunk.handle.get()
        except Exception as exc:
            # The chunk computed but its reply could not be retrieved
            # (e.g. an unpicklable result): same treatment as a lost
            # worker, minus the pool respawn (the pool is healthy).
            return self._retry_or_quarantine(
                chunk.units, "worker-lost",
                f"chunk result unavailable: {exc}")
        self.runner.stats.count(moved)
        info = {index: (spec, seed, attempt)
                for index, spec, seed, attempt in chunk.units}
        batch: List[_Outcome] = []
        for index, outcome, wall in results:
            spec, seed, attempt = info[index]
            if isinstance(outcome, UnitFailure):
                resolved = self._unit_failed(index, spec, seed, attempt)
                if resolved is not None:
                    batch.append(resolved)
            else:
                batch.append((index, outcome, wall))
        return batch

    # ------------------------------------------------------------------
    # Failure handling: the downgrade ladder
    # ------------------------------------------------------------------
    def _unit_failed(self, index: int, spec: ExperimentSpec, seed: int,
                     attempt: int) -> Optional[_Outcome]:
        """One unit raised in a worker: retry, downgrade, or quarantine.

        Returns the resolved outcome, or None when the unit was
        re-dispatched and will resolve in a later batch.
        """
        if attempt <= DEFAULT_RETRY_BUDGET:
            self.runner._emit_retry(spec, seed, attempt + 1)
            self._queued.append([(index, spec, seed, attempt + 1)])
            return None
        # Parallel budget exhausted: the serial in-parent rung.
        self.runner._emit_retry(spec, seed, attempt + 1)
        return _attempt(self.runner.stats.count, index, spec, seed,
                        attempt + 1)

    def _supervise(self) -> List[_Outcome]:
        """One idle tick: check liveness and deadlines, maybe recover.

        Returns quarantined outcomes produced by the recovery (usually
        empty — recovered units re-dispatch and resolve later).
        """
        lost = any(getattr(p, "exitcode", None) is not None
                   for p in self._procs)
        now = time.monotonic()
        expired = [c for c in self._inflight if now > c.deadline]
        if not lost and not expired:
            time.sleep(_POLL_INTERVAL)
            return []
        # The pool's state is unknown (a dead worker may have taken
        # queue locks with it; a hung worker never yields its slot):
        # tear it down and re-dispatch everything still in flight.
        kind = "worker-lost" if lost else "deadline"
        error = ("worker process died mid-chunk" if lost
                 else "unit wall-clock deadline expired")
        guilty = set(map(id, self._inflight if lost else expired))
        inflight, self._inflight = self._inflight, []
        self._watch(self.runner._respawn_pool())
        # Innocent bystander chunks lost to the respawn go back to the
        # head of the queue as-is: no attempt is charged to them.
        self._queued[:0] = [chunk.units for chunk in inflight
                            if id(chunk) not in guilty]
        batch: List[_Outcome] = []
        for chunk in inflight:
            if id(chunk) in guilty:
                batch.extend(self._retry_or_quarantine(
                    chunk.units, kind, error))
        return batch

    def _retry_or_quarantine(self, units: Sequence[_SupUnit], kind: str,
                             error: str) -> List[_Outcome]:
        """Machine-fault path: parallel retries only, then quarantine.

        A unit whose worker hangs or dies must never run in the parent
        (the same fault would wedge or kill the whole run), so unlike
        exception failures there is no serial rung.  Retried units are
        re-dispatched as singleton chunks: isolation keeps a repeat
        offender from taking fresh neighbours down with it.
        """
        batch: List[_Outcome] = []
        for index, spec, seed, attempt in units:
            if attempt <= DEFAULT_RETRY_BUDGET:
                self.runner._emit_retry(spec, seed, attempt + 1)
                self._queued.append([(index, spec, seed, attempt + 1)])
            else:
                batch.append((index, UnitFailure(
                    label=spec.label, seed=seed, kind=kind, error=error,
                    traceback_digest="", attempts=attempt), 0.0))
        return batch
