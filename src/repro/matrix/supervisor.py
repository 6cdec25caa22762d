"""Supervised parallel execution: deadlines, replacements, retries,
quarantine.

A bare worker-pool drain has two failure modes fatal to long grids: a
worker killed mid-chunk (OOM killer, segfault) wedges it forever, and
a single raising unit aborts the whole batch.  :class:`Supervisor`
runs one chunk at a time on each of the runner's worker processes,
each on its own duplex pipe (:func:`_serve` is a worker's loop):

* a chunk's **wall-clock deadline** starts when an idle worker gets it
  (the runner's ``unit_deadline``, or :data:`DEADLINE_GRACE` × the
  spec's ``max_sim_time``, summed over its units), so no chunk spends
  its budget queued behind another;
* the supervisor waits on the busy workers' pipes and process
  sentinels until the nearest deadline, and collects a reply that has
  arrived before it judges a deadline;
* a deadline, a death or an unreadable reply **kills and replaces that
  one worker**: no other worker loses its chunk, no lock is shared
  between workers, and only the lost chunk is charged against the
  retry budget (:data:`DEFAULT_RETRY_BUDGET`);
* failures walk the robot's **downgrade ladder**: parallel retry →
  serial in-parent retry → quarantine.  Only exception failures reach
  the serial rung — a unit that hangs or kills its worker would do the
  same to the parent;
* a quarantined unit becomes a :class:`~repro.core.runner.UnitFailure`
  yielded in-band, so sibling units and cells complete normally.

A unit's computation does not depend on where or how often it ran, so
a grid that survives a worker kill is byte-identical to an undisturbed
serial run.  Every attempt, in a worker or in the parent, looks
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
from ..core.runner import UnitFailure, warm_default_site
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

#: What a quarantined machine fault's UnitFailure says, by its kind.
_FAULTS = {"deadline": "unit wall-clock deadline expired",
           "worker-lost": "worker process died, or its reply was "
                          "unreadable, mid-chunk"}

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
    """One chunk in a worker: the units' outcomes and their summed
    counter delta, for the parent to aggregate across workers."""
    moved: List[Tuple[int, ...]] = []
    outcomes = [_attempt(moved.append, *unit) for unit in units]
    return outcomes, tuple(map(sum, zip(*moved)))


def _serve(conn, inherited) -> None:
    """A worker process's one loop: warm the default site, then run
    each chunk the parent sends and send back its outcomes, until the
    parent closes the pipe.  ``inherited`` are the parent's pipe ends
    the fork copied in, closed first so the parent's close is an EOF
    here.  A reply that does not pickle ends the worker: a lost one."""
    for end in inherited:
        end.close()
    warm_default_site()
    while True:
        try:
            units = pickle.loads(conn.recv_bytes())
        except EOFError:
            return
        conn.send(_run_chunk_supervised(units))


class Supervisor:
    """Drives one supervised parallel batch for a MatrixRunner.

    Created per ``run_many`` parallel dispatch; runs chunks on the
    runner's persistent workers (a lost worker leaves the runner's
    list, and the runner starts its replacement, which later calls
    reuse), follows the runner's ``unit_deadline`` and
    :data:`DEFAULT_RETRY_BUDGET`, and reports retries, replacements and
    IPC totals into the runner's :class:`MatrixStats`.
    """

    __slots__ = ("runner", "_queued")

    def __init__(self, runner) -> None:
        self.runner = runner
        self._queued: List[List[_SupUnit]] = []  # waiting for a worker

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
        self._queued.extend(map(list, self.runner._chunked(units)))
        try:
            self._fill()
            while self._busy():
                batches = self._reap()
                self._fill()
                yield from filter(None, batches)
        finally:
            # Abandoned mid-batch: a late reply must never answer a
            # later call's chunk, so a busy worker goes.
            for worker in self._busy():
                self.runner._retire(worker)

    def _busy(self) -> list:
        return [w for w in self.runner._workers if w.units is not None]

    # ------------------------------------------------------------------
    # Dispatch and collection
    # ------------------------------------------------------------------
    def _fill(self) -> None:
        """Hand queued chunks to idle workers; each deadline starts now."""
        stats = self.runner.stats
        for worker in self.runner._ensure_workers():
            if not self._queued:
                return
            if worker.units is not None:
                continue
            worker.units = units = self._queued.pop(0)
            worker.deadline = time.monotonic() + sum(
                self._deadline_for(spec) for _, spec, _, _ in units)
            payload = pickle.dumps(units, pickle.HIGHEST_PROTOCOL)
            stats.ipc_batches += 1
            stats.bytes_pickled += len(payload)
            try:
                worker.conn.send_bytes(payload)
            except OSError:
                pass    # it died idle: _reap finds its pipe at EOF

    def _deadline_for(self, spec: ExperimentSpec) -> float:
        if self.runner.unit_deadline is not None:
            return float(self.runner.unit_deadline)
        return DEADLINE_GRACE * spec.max_sim_time

    def _reap(self) -> List[List[_Outcome]]:
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
            if worker.conn.poll():
                try:
                    results, moved = worker.conn.recv()
                except Exception:
                    kind = "worker-lost"
                else:
                    batches.append(self._collect(worker.units, results,
                                                 moved))
                    worker.units = None
                    continue
            elif worker.process.exitcode is not None:
                kind = "worker-lost"
            elif now > worker.deadline:
                kind = "deadline"
            else:
                continue
            self.runner._retire(worker)
            self.runner.stats.worker_respawns += 1
            batches.append(self._retry_or_quarantine(worker.units, kind))
        return batches

    def _collect(self, units: List[_SupUnit], results: List[_Outcome],
                 moved: Sequence[int]) -> List[_Outcome]:
        self.runner.stats.count(moved)
        info = {index: (spec, seed, attempt)
                for index, spec, seed, attempt in units}
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

    def _retry_or_quarantine(self, units: Sequence[_SupUnit],
                             kind: str) -> List[_Outcome]:
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
                    label=spec.label, seed=seed, kind=kind,
                    error=_FAULTS[kind], traceback_digest="",
                    attempts=attempt), 0.0))
        return batch
