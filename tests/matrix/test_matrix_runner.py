"""MatrixRunner: serial/parallel equivalence, caching, observability."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.report import protocol_table_specs
from repro.core import TABLE_CELLS
from repro.core.runner import (RESULT_FIELDS, AveragedResult,
                               run_experiment)
from repro.matrix import (ExperimentSpec, MatrixRunner,
                          ResultCache, RunJournal, unit_key)

from .test_cache import entries

#: The cheapest cell in the grid (~10 ms a run): used everywhere speed
#: matters more than coverage.
FAST = dict(mode="pipelined", scenario="revalidate",
            environment="LAN", server="Apache")


def assert_results_identical(a, b):
    """Every averaged measurement column matches bit for bit."""
    for name in RESULT_FIELDS:
        assert getattr(a, name) == getattr(b, name), name
    for run_a, run_b in zip(a.runs, b.runs):
        for name in RESULT_FIELDS:
            assert getattr(run_a, name) == getattr(run_b, name), name
        assert run_a.statuses == run_b.statuses


def test_serial_matches_run_repeated():
    spec = ExperimentSpec(seeds=(0, 1), **FAST)
    matrix_result = MatrixRunner().run(spec)
    legacy = AveragedResult([
        run_experiment(spec.mode, spec.scenario,
                       environment=spec.environment, profile=spec.server,
                       seed=seed) for seed in (0, 1)])
    assert matrix_result.packets == legacy.packets
    assert matrix_result.elapsed == legacy.elapsed
    assert matrix_result.percent_overhead == legacy.percent_overhead


def test_results_are_stripped_of_transcripts():
    result = MatrixRunner().run(ExperimentSpec(seeds=(0,), **FAST))
    assert result.runs[0].fetch is None
    assert result.runs[0].packets > 0


def test_parallel_equals_serial_across_cells():
    specs = [
        ExperimentSpec(mode=mode, seeds=(0, 1), **axes)
        for mode in ("HTTP/1.1", "pipelined")
        for axes in ({"scenario": "revalidate", "environment": "LAN",
                      "server": "Apache"},
                     {"scenario": "revalidate", "environment": "LAN",
                      "server": "Jigsaw"})]
    serial = MatrixRunner(jobs=1).run_many(specs)
    parallel = MatrixRunner(jobs=2).run_many(specs)
    for a, b in zip(serial, parallel):
        assert_results_identical(a, b)


@settings(max_examples=4, deadline=None)
@given(seeds=st.lists(st.integers(min_value=0, max_value=40),
                      min_size=1, max_size=3, unique=True))
def test_parallel_equals_serial_property(seeds):
    """Any seed list: jobs=2 and jobs=1 agree bit for bit."""
    spec = ExperimentSpec(seeds=tuple(seeds), **FAST)
    assert_results_identical(MatrixRunner(jobs=1).run(spec),
                             MatrixRunner(jobs=2).run(spec))


def test_cache_second_pass_simulates_nothing(tmp_path):
    specs = [ExperimentSpec(seeds=(0, 1), **FAST),
             ExperimentSpec(seeds=(0, 1),
                            **{**FAST, "mode": "HTTP/1.1"})]
    cache = ResultCache(tmp_path / "cache")

    first = MatrixRunner(cache=cache)
    cold = first.run_many(specs)
    assert first.stats.sim_runs == 4
    assert first.stats.cache_hits == 0
    assert first.stats.cache_misses == 4

    second = MatrixRunner(cache=cache)
    warm = second.run_many(specs)
    assert second.stats.sim_runs == 0
    assert second.stats.cache_hits == 4
    assert second.stats.cache_misses == 0
    for a, b in zip(cold, warm):
        assert_results_identical(a, b)


def test_perf_and_recovery_columns_survive_cache_and_journal(tmp_path):
    spec = ExperimentSpec(mode="pipelined", environment="WAN",
                          seeds=(0, 1), faults="flaky-server")
    direct = [run_experiment(spec.mode, spec.scenario,
                             environment=spec.environment,
                             profile=spec.server, seed=seed,
                             faults=spec.faults)
              for seed in spec.seeds]
    assert any(run.fetch.recovery.counts for run in direct)
    cache = ResultCache(tmp_path / "cache")
    journal = RunJournal("grid", tmp_path / "runs")
    fresh = MatrixRunner(cache=cache, journal=journal).run(spec)
    cached = MatrixRunner(cache=cache).run(spec)
    resumed = MatrixRunner(journal=journal).run(spec)
    for result in (fresh, cached, resumed):
        assert result.runs[0].fetch is None
        assert [run.recovery for run in result.runs] == \
            [run.fetch.recovery.counts for run in direct]
        assert [run.perf for run in result.runs] == \
            [run.perf for run in direct]


def test_cache_partial_hit_runs_only_new_seeds(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    MatrixRunner(cache=cache).run(ExperimentSpec(seeds=(0,), **FAST))
    runner = MatrixRunner(cache=cache)
    runner.run(ExperimentSpec(seeds=(0, 1), **FAST))
    assert runner.stats.cache_hits == 1
    assert runner.stats.sim_runs == 1


def test_progress_events_and_stats():
    events = []
    runner = MatrixRunner(progress=events.append)
    spec = ExperimentSpec(seeds=(0, 1), **FAST)
    runner.run(spec)
    assert len(events) == 2
    assert [e.completed for e in events] == [1, 2]
    assert all(e.total == 2 for e in events)
    assert all(e.status == "run" for e in events)
    assert all(e.wall_time > 0 for e in events)
    assert all(spec.label == e.label for e in events)
    stats = runner.stats
    assert stats.specs == 1
    assert stats.units == 2
    assert stats.sim_runs == 2
    assert set(stats.unit_wall_times) == {unit_key(spec, 0),
                                          unit_key(spec, 1)}
    assert "2 runs requested" in stats.summary()


def test_unit_wall_times_keep_cells_that_share_a_label():
    # Netscape vs IE, the modem test's compressed vs uncompressed
    # cells: same label, different client overrides.  Keyed by label
    # the second silently overwrote the first.
    spec = ExperimentSpec(seeds=(0,), **FAST)
    twin = spec.replace(client_overrides={"follow_images": False})
    assert twin.label == spec.label
    runner = MatrixRunner()
    runner.run_many([spec, twin])
    assert runner.stats.sim_runs == 2
    assert set(runner.stats.unit_wall_times) == {unit_key(spec, 0),
                                                 unit_key(twin, 0)}
    assert all(wall > 0 for wall in
               runner.stats.unit_wall_times.values())


def test_cache_hits_emit_hit_events(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    spec = ExperimentSpec(seeds=(0,), **FAST)
    MatrixRunner(cache=cache).run(spec)
    events = []
    MatrixRunner(cache=cache, progress=events.append).run(spec)
    assert [e.status for e in events] == ["hit"]
    assert events[0].wall_time == 0.0


def test_jobs_zero_means_cpu_count():
    assert MatrixRunner(jobs=0).jobs >= 1
    assert MatrixRunner(jobs=None).jobs >= 1


def test_pool_persists_across_run_many_calls():
    specs = [ExperimentSpec(seeds=(0, 1), **FAST),
             ExperimentSpec(seeds=(0, 1),
                            **{**FAST, "mode": "HTTP/1.1"})]
    with MatrixRunner(jobs=2) as runner:
        runner.run_many(specs)
        workers = [w.process for w in runner._workers]
        assert len(workers) == 2
        runner.run_many(specs)
        # Same worker processes, no respawn.
        assert [w.process for w in runner._workers] == workers
    assert runner._workers == []           # __exit__ closed them
    assert all(p.exitcode == 0 for p in workers)


def test_parallel_run_populates_ipc_stats():
    specs = [ExperimentSpec(seeds=(s,), **FAST) for s in range(4)]
    with MatrixRunner(jobs=2) as runner:
        runner.run_many(specs)
        assert runner.stats.ipc_batches > 0
        assert runner.stats.bytes_pickled > 0
        assert "ipc" in runner.stats.summary()


def test_serial_run_has_no_ipc():
    runner = MatrixRunner(jobs=1)
    runner.run(ExperimentSpec(seeds=(0,), **FAST))
    assert runner.stats.ipc_batches == 0
    assert runner.stats.bytes_pickled == 0


def test_gc_collected_is_what_only_the_cycle_collector_freed():
    """The stats line's last figure: a per-chunk delta of the
    collector's own count, beside the memo counters and like them never
    in a result (a unit's own objects die by reference count, so a
    clean unit adds none — tests/test_object_lifetime.py)."""
    import gc
    from repro.matrix.runner import MatrixStats
    from repro.matrix.runner import process_counters
    gc.collect()
    before = process_counters()
    for _ in range(500):
        cycle = []
        cycle.append(cycle)
    del cycle
    gc.collect()
    moved = process_counters(before)
    assert moved[:4] == (0, 0, 0, 0) and moved[4] >= 500
    stats = MatrixStats()
    stats.count(moved)
    stats.count(moved)
    assert stats.gc_collected == 2 * moved[4]
    assert stats.summary().endswith(f"; gc {2 * moved[4]} collected")
    result = MatrixRunner().run(ExperimentSpec(seeds=(0,), **FAST))
    assert "gc_collected" not in result.runs[0].perf


def test_close_is_idempotent():
    runner = MatrixRunner(jobs=2)
    runner.run_many([ExperimentSpec(seeds=(0,), **FAST)])
    runner.close()
    runner.close()
    assert runner._workers == []
    # A closed runner can still run after close, on new workers.
    runner.run_many([ExperimentSpec(seeds=(1,), **FAST)])
    runner.close()


def test_explicit_chunk_size_still_bit_identical(monkeypatch):
    from repro.matrix import runner as runner_mod
    spec = ExperimentSpec(seeds=(0, 1, 2, 3), **FAST)
    # Four units on two workers: chunks of 1 at four chunks per
    # worker, one chunk of 4 at half a chunk per worker.
    results = []
    for chunks_per_worker, batches in ((4, 4), (0.5, 1)):
        monkeypatch.setattr(runner_mod, "_CHUNKS_PER_WORKER",
                            chunks_per_worker)
        with MatrixRunner(jobs=2) as runner:
            results.append(runner.run(spec))
            assert runner.stats.ipc_batches == batches
    assert_results_identical(*results)


def test_cached_parallel_batches_flush_once_per_chunk(tmp_path):
    """Batched put_many keeps the cache complete: a second runner sees
    every unit the first one simulated."""
    cache = ResultCache(tmp_path / "cache")
    specs = [ExperimentSpec(seeds=(0, 1), **FAST),
             ExperimentSpec(seeds=(0, 1),
                            **{**FAST, "server": "Jigsaw"})]
    with MatrixRunner(jobs=2, cache=cache) as first:
        first.run_many(specs)
    assert len(entries(cache)) == 4
    second = MatrixRunner(cache=cache)
    second.run_many(specs)
    assert second.stats.sim_runs == 0
    assert second.stats.cache_hits == 4


@pytest.mark.slow
def test_full_table_parallel_equals_serial():
    """Whole-table sweep: Table 4's grid, parallel vs serial."""
    specs = list(protocol_table_specs(*TABLE_CELLS[4], runs=1).values())
    serial = MatrixRunner(jobs=1).run_many(specs)
    parallel = MatrixRunner(jobs=4).run_many(specs)
    for a, b in zip(serial, parallel):
        assert_results_identical(a, b)
