"""Supervised execution: kills, hangs, poison cells, retry ladder."""

import os
import signal

import pytest

from repro.core.runner import RESULT_FIELDS, UnitFailure
from repro.matrix import ExperimentSpec, MatrixRunner
from repro.matrix import runner as runner_mod
from repro.matrix.runner import DEADLINE_GRACE

from .test_matrix_runner import FAST, assert_results_identical

#: Two cheap LAN cells x three seeds = a six-unit grid that still
#: exercises chunking, retries and sibling survival.  On two workers
#: the runner cuts it into single-unit chunks (four per worker, at
#: most); a test that needs wider ones lowers ``_CHUNKS_PER_WORKER``.
GRID = [
    dict(seeds=(0, 1, 2), **FAST),
    dict(seeds=(0, 1, 2), mode="HTTP/1.1", scenario="revalidate",
         environment="LAN", server="Jigsaw"),
]

#: Generous per-unit wall budget: a LAN revalidate unit takes ~10 ms,
#: so 30 s can not fire spuriously even on a loaded CI machine.
SAFE_DEADLINE = 30.0

#: The hung-worker test waits this long for the deadline to fire.  It
#: bounds each healthy unit too (about 5 ms alone), and the kill
#: touches only the hung worker, so the smallest value that passed 60
#: runs in a row on an idle 2-CPU host and beside two CPU burners.
HANG_DEADLINE = 0.05

#: The queued-behind-a-hang test: each healthy unit is slowed to about
#: ``SLOW_UNIT`` seconds, so the four that queue behind the first on
#: the free worker need 0.4 s in all, beyond one ``QUEUE_DEADLINE``,
#: while each alone keeps a 3x margin.
QUEUE_DEADLINE = 0.3
SLOW_UNIT = 0.1

#: The kill-while-replying test: each healthy unit is slowed to about
#: ``REPLY_EVERY`` seconds and replies with ``BALLAST`` bytes more, so
#: the free worker is still sending replies when the hung unit's
#: ``KILL_DEADLINE`` fires (a healthy unit alone keeps a 4x margin).
#: Terminating a whole ``multiprocessing.Pool`` there could wedge
#: ``Pool.terminate`` for ever.
KILL_DEADLINE = 0.2
REPLY_EVERY = 0.04
BALLAST = 4_000_000


def specs():
    return [ExperimentSpec(**axes) for axes in GRID]


#: The unit most fault tests name: the first cell at seed 1.
VICTIM = (specs()[0], 1)


@pytest.fixture(scope="module")
def serial_baseline():
    return MatrixRunner(jobs=1).run_many(specs())


# ----------------------------------------------------------------------
# UnitFailure plumbing
# ----------------------------------------------------------------------
def test_unit_failure_from_exception_digest_and_summary():
    class PoisonError(RuntimeError):
        pass

    try:
        raise PoisonError("boom")
    except PoisonError as exc:
        failure = UnitFailure.from_exception("cell", 7, exc, attempts=3)
    assert failure.kind == "exception"
    assert failure.seed == 7
    assert failure.attempts == 3
    assert "PoisonError: boom" in failure.error
    assert len(failure.traceback_digest) == 12
    assert "cell" in failure.summary()
    assert "3 attempt" in failure.summary()


def test_a_protocol_violation_is_quarantined_as_an_invariant():
    # NaiveClose resets the connection under pipelined responses: the
    # unit-end check fails the unit, and its kind says why.
    spec = ExperimentSpec(mode="pipelined", environment="WAN",
                          server="NaiveClose", seeds=(0,))
    cell = MatrixRunner().run(spec)
    assert not cell.runs
    (failure,) = cell.failures
    assert failure.kind == "invariant"
    assert "[rst]" in failure.error


def test_averaged_result_carries_failures_and_nan_means():
    import math
    from repro.core.runner import AveragedResult
    failure = UnitFailure(label="x", seed=0, kind="deadline",
                          error="timed out", traceback_digest="",
                          attempts=2)
    empty = AveragedResult([], failures=[failure])
    assert not empty.ok
    assert math.isnan(empty.packets)
    assert math.isnan(empty.elapsed)
    full = MatrixRunner(jobs=1).run(ExperimentSpec(seeds=(0,), **FAST))
    assert full.ok and not full.failures


# ----------------------------------------------------------------------
# Poison cells: the exception rung of the ladder
# ----------------------------------------------------------------------
def test_poison_cell_quarantined_serially(unit_faults):
    unit_faults.poison(*VICTIM)
    runner = MatrixRunner(jobs=1)
    results = runner.run_many(specs())
    # The victim is quarantined, not raised.
    assert len(results[0].failures) == 1
    failure = results[0].failures[0]
    assert failure.kind == "exception"
    assert failure.seed == 1
    assert failure.attempts == 1          # serial is the final rung
    assert "UnitFaultError" in failure.error
    # Siblings (seeds 0 and 2) and the second cell still completed.
    assert len(results[0].runs) == 2
    assert results[1].ok
    assert runner.stats.failures == 1
    assert runner.stats.sim_runs == 5


def test_poison_cell_walks_the_full_ladder_in_parallel(serial_baseline,
                                                      unit_faults,
                                                      monkeypatch):
    unit_faults.poison(*VICTIM)
    monkeypatch.setattr(runner_mod, "DEFAULT_RETRY_BUDGET", 1)
    events = []
    with MatrixRunner(jobs=2, progress=events.append,
                      unit_deadline=SAFE_DEADLINE) as runner:
        results = runner.run_many(specs())
        stats = runner.stats
    failure = results[0].failures[0]
    # initial + 1 parallel retry + 1 serial retry, all poisoned.
    assert failure.attempts == 3
    assert failure.kind == "exception"
    assert stats.unit_retries == 2
    assert stats.failures == 1
    statuses = [e.status for e in events]
    assert statuses.count("retried") == 2
    assert statuses.count("failed") == 1
    failed = [e for e in events if e.status == "failed"][0]
    assert failed.attempt == 3
    # Every healthy unit matches the serial baseline bit for bit.
    assert len(results[0].runs) == 2
    assert_results_identical(results[1], serial_baseline[1])


def test_transient_exception_recovers_within_budget(serial_baseline,
                                                    unit_faults):
    # The victim raises on its first attempt only: the parallel retry
    # recovers it, and nothing else is charged.
    unit_faults.raise_once(*VICTIM)
    events = []
    with MatrixRunner(jobs=2, progress=events.append,
                      unit_deadline=SAFE_DEADLINE) as runner:
        results = runner.run_many(specs())
        stats = runner.stats
    assert stats.failures == 0
    assert stats.unit_retries == 1
    assert stats.ipc_batches == 6 + 1     # the retry went to the pool
    assert stats.worker_respawns == 0
    assert stats.sim_runs == 6
    (retried,) = [e for e in events if e.status == "retried"]
    assert (retried.spec, retried.seed, retried.attempt) == (*VICTIM, 2)
    for got, want in zip(results, serial_baseline):
        assert_results_identical(got, want)


def test_worker_only_exception_recovers_on_the_serial_rung(
        serial_baseline, unit_faults):
    # The victim raises in every worker: the parallel budget is spent,
    # and the serial in-parent rung completes it.
    unit_faults.raise_in_workers(*VICTIM)
    with MatrixRunner(jobs=2, unit_deadline=SAFE_DEADLINE) as runner:
        results = runner.run_many(specs())
        stats = runner.stats
    assert stats.failures == 0
    assert stats.unit_retries == runner_mod.DEFAULT_RETRY_BUDGET + 1
    assert stats.sim_runs == 6
    for got, want in zip(results, serial_baseline):
        assert_results_identical(got, want)


# ----------------------------------------------------------------------
# Machine faults: dead and hung workers
# ----------------------------------------------------------------------
def test_sigkilled_worker_recovers_byte_identical(serial_baseline,
                                                  unit_faults,
                                                  monkeypatch):
    # Two-unit chunks: the kill also takes a sibling down with it.
    monkeypatch.setattr(runner_mod, "_CHUNKS_PER_WORKER", 2)
    unit_faults.kill_worker_once(specs()[0], 2)
    with MatrixRunner(jobs=2, unit_deadline=SAFE_DEADLINE) as runner:
        results = runner.run_many(specs())
        stats = runner.stats
    assert stats.worker_respawns >= 1
    assert stats.unit_retries >= 1
    assert stats.failures == 0
    assert stats.sim_runs == 6
    for got, want in zip(results, serial_baseline):
        assert_results_identical(got, want)


def test_hung_worker_hits_deadline_and_recovers(serial_baseline,
                                                unit_faults):
    unit_faults.hang_worker_once(*VICTIM)
    with MatrixRunner(jobs=2, unit_deadline=HANG_DEADLINE) as runner:
        results = runner.run_many(specs())
        stats = runner.stats
    assert stats.worker_respawns >= 1
    assert stats.failures == 0
    for got, want in zip(results, serial_baseline):
        assert_results_identical(got, want)


def test_units_queued_behind_a_hung_unit_keep_their_deadline(
        serial_baseline, unit_faults, monkeypatch):
    # A unit's deadline starts when a worker can run it.  Counted from
    # the moment its chunk was queued, the healthy units waiting behind
    # the first on the free worker would expire with the hung one.
    monkeypatch.setattr(runner_mod, "DEFAULT_RETRY_BUDGET", 0)
    unit_faults.hang_worker_once(*VICTIM)
    for spec in specs():
        for seed in spec.seeds:
            if (spec, seed) != VICTIM:
                unit_faults.delay(spec, seed, SLOW_UNIT)
    with MatrixRunner(jobs=2, unit_deadline=QUEUE_DEADLINE) as runner:
        results = runner.run_many(specs())
        stats = runner.stats
    (failure,) = results[0].failures
    assert (failure.seed, failure.kind) == (1, "deadline")
    assert stats.failures == 1
    assert stats.worker_respawns == 1
    # Seeds 0 and 2 of the victim's cell match the serial baseline.
    assert len(results[0].runs) == 2
    for got, want in zip(results[0].runs, serial_baseline[0].runs[::2]):
        for name in RESULT_FIELDS:
            assert getattr(got, name) == getattr(want, name), name
    assert_results_identical(results[1], serial_baseline[1])


def test_a_kill_while_the_other_worker_replies_costs_one_worker(
        serial_baseline, unit_faults):
    # The hung unit's worker is killed while the other worker streams
    # replies.  No lock is shared between workers, so the kill cannot
    # wedge the run, and the busy worker keeps its chunk: only the
    # victim is retried, on one replacement worker.
    unit_faults.hang_worker_once(*VICTIM)
    for spec in specs():
        for seed in spec.seeds:
            if (spec, seed) != VICTIM:
                unit_faults.delay(spec, seed, REPLY_EVERY)
                unit_faults.ballast(spec, seed, BALLAST)
    with MatrixRunner(jobs=2, unit_deadline=KILL_DEADLINE) as runner:
        results = runner.run_many(specs())
        stats = runner.stats
    assert stats.unit_retries == 1
    assert stats.worker_respawns == 1
    assert stats.ipc_batches == 6 + 1     # six chunks, one retry
    assert stats.failures == 0
    for got, want in zip(results, serial_baseline):
        assert_results_identical(got, want)


def test_an_unreadable_reply_costs_its_worker(serial_baseline,
                                              unit_faults):
    # The victim's reply does not pickle, so its worker dies sending
    # it: a lost worker, retried in the pool and then quarantined, and
    # never run in the parent.
    unit_faults.unpicklable_in_workers(*VICTIM)
    with MatrixRunner(jobs=2, unit_deadline=SAFE_DEADLINE) as runner:
        results = runner.run_many(specs())
        stats = runner.stats
    (failure,) = results[0].failures
    assert (failure.seed, failure.kind) == (1, "worker-lost")
    assert failure.attempts == runner_mod.DEFAULT_RETRY_BUDGET + 1
    assert stats.unit_retries == runner_mod.DEFAULT_RETRY_BUDGET
    assert stats.worker_respawns == runner_mod.DEFAULT_RETRY_BUDGET + 1
    assert stats.failures == 1
    assert len(results[0].runs) == 2
    for got, want in zip(results[0].runs, serial_baseline[0].runs[::2]):
        for name in RESULT_FIELDS:
            assert getattr(got, name) == getattr(want, name), name
    assert_results_identical(results[1], serial_baseline[1])


def test_deadline_defaults_derive_from_max_sim_time(monkeypatch):
    monkeypatch.setattr(ExperimentSpec, "max_sim_time", 100.0)
    spec = ExperimentSpec(**FAST)
    derived = MatrixRunner(jobs=2)
    assert derived._deadline_for(spec) == DEADLINE_GRACE * 100.0
    explicit = MatrixRunner(jobs=2, unit_deadline=7.5)
    assert explicit._deadline_for(spec) == 7.5


# ----------------------------------------------------------------------
# Worker lifecycle hygiene: close after a dead worker
# ----------------------------------------------------------------------
def test_close_handles_already_dead_workers(unit_faults, monkeypatch):
    # Half a chunk per worker: the whole grid is one chunk.
    monkeypatch.setattr(runner_mod, "_CHUNKS_PER_WORKER", 0.5)
    monkeypatch.setattr(runner_mod, "DEFAULT_RETRY_BUDGET", 0)
    unit_faults.kill_worker_once(specs()[0], 0)
    runner = MatrixRunner(jobs=2, unit_deadline=SAFE_DEADLINE)
    results = runner.run_many(specs())
    # No retry budget: the killed chunk's units quarantine immediately.
    total_failures = sum(len(r.failures) for r in results)
    assert total_failures == 6
    assert all(f.kind == "worker-lost"
               for r in results for f in r.failures)
    runner.close()          # must not hang despite the SIGKILL
    assert runner._workers == []
    runner.close()          # idempotent


def test_a_worker_that_died_idle_is_replaced(serial_baseline):
    # A worker killed between runs is found by the next chunk sent to
    # it: its pipe is at end of file, so it is replaced and only that
    # chunk is retried.
    with MatrixRunner(jobs=2, unit_deadline=SAFE_DEADLINE) as runner:
        runner.run_many(specs())
        victim = runner._workers[0].process
        os.kill(victim.pid, signal.SIGKILL)
        victim.join()
        results = runner.run_many(specs())
        stats = runner.stats
        assert victim not in [w.process for w in runner._workers]
        assert len(runner._workers) == 2
    assert stats.worker_respawns == 1
    assert stats.unit_retries == 1
    assert stats.failures == 0
    for got, want in zip(results, serial_baseline):
        assert_results_identical(got, want)


def test_an_abandoned_batch_leaves_no_late_reply(serial_baseline,
                                                unit_faults):
    # A consumer that stops mid-batch (here a raising progress
    # callback) leaves a worker busy; its late reply must never answer
    # the next call's chunk, so that worker goes with the batch.
    for spec in specs():
        for seed in spec.seeds:
            unit_faults.delay(spec, seed, REPLY_EVERY)

    def stop(event):
        raise KeyboardInterrupt

    with MatrixRunner(jobs=2, unit_deadline=SAFE_DEADLINE,
                      progress=stop) as runner:
        with pytest.raises(KeyboardInterrupt):
            runner.run_many(specs())
        assert runner._workers == []      # both were busy
        runner.progress = None
        results = runner.run_many(specs())
        assert len(runner._workers) == 2
    assert runner.stats.worker_respawns == 0
    for got, want in zip(results, serial_baseline):
        assert_results_identical(got, want)


def test_serial_artifact_delta_survives_early_generator_exit(
        monkeypatch):
    # Satellite regression: the serial path used to add the artifact
    # hit/miss delta only after the loop finished, so a consumer that
    # stopped early (or a raising unit) lost it.  The delta now flushes
    # in a finally block.
    from repro.content import artifacts
    from repro.matrix import runner as runner_mod
    from .test_cache import synthetic_result

    def fake_run_unit(spec, seed):
        stats = artifacts.get_store().stats
        stats.misses += 3
        stats.hits += 2
        return synthetic_result(), 0.01

    monkeypatch.setattr(runner_mod, "run_unit", fake_run_unit)
    runner = MatrixRunner(jobs=1)
    spec = ExperimentSpec(seeds=(0, 1, 2), **FAST)
    units = [(spec, seed) for seed in (0, 1, 2)]
    gen = runner._execute(units, [0, 1, 2], retried=None)
    next(gen)            # resolve one unit...
    gen.close()          # ...then abandon the generator
    assert runner.stats.artifact_misses == 3
    assert runner.stats.artifact_hits == 2
