"""The chaos verb: grid shape, per-cell seeds, runs on the matrix engine."""

import io
import shutil

import pytest

from repro.__main__ import main
from repro.faults.chaos import (CHAOS_SCENARIO, CHAOS_SERVER, _cell_seed,
                                chaos_cells, run_chaos)
from repro.matrix import (ExperimentSpec, MatrixRunner, ResultCache,
                          RunJournal)


def sweep(**runner_options):
    """Run the whole seed-1997 grid; returns (status, stdout, stats)."""
    out = io.StringIO()
    with MatrixRunner(**runner_options) as runner:
        status = run_chaos(seed=1997, out=out, runner=runner)
    return status, out.getvalue(), runner.stats


@pytest.fixture(scope="module")
def serial_sweep(tmp_path_factory):
    """One serial pass over the grid, cached and journaled."""
    root = tmp_path_factory.mktemp("chaos")
    cache = ResultCache(root / "cache")
    journal = RunJournal("chaos-1997", root / "runs")
    status, text, stats = sweep(jobs=1, cache=cache, journal=journal)
    assert stats.sim_runs == 48
    return status, text, cache, journal


def test_grid_is_plans_by_modes_by_envs():
    cells = chaos_cells()
    assert len(cells) == 4 * 6 * 2
    assert len(set(cells)) == len(cells)
    assert cells[0][0] == "bursty-loss"
    assert all(env in ("WAN", "PPP") for _, _, env in cells)


def test_cell_seeds_are_stable_and_distinct():
    seeds = {_cell_seed(1997, *cell) for cell in chaos_cells()}
    assert len(seeds) == len(chaos_cells())
    assert _cell_seed(1997, "bursty-loss", "pipelined", "WAN") == \
        _cell_seed(1997, "bursty-loss", "pipelined", "WAN")
    assert _cell_seed(1, "a", "b", "c") != _cell_seed(2, "a", "b", "c")


def test_single_cell_run_reports_recovery(capsys):
    out = io.StringIO()
    code = run_chaos(seed=1997, only="flaky-server:pipelined:WAN",
                     out=out)
    text = out.getvalue()
    assert code == 0
    assert "flaky-server" in text
    assert "server.503=" in text
    assert "all 1 cells recovered every resource byte-identical" in text


def test_a_hostile_server_mux_unit_runs_checked_and_clean():
    """Under a fault plan the unit-end check allows recovery's resets
    and skips the frame-stream rules (a re-dial restarts stream ids at
    1); the TCP invariants still hold."""
    seed = _cell_seed(1997, "hostile-server", "mux", "WAN")
    result = ExperimentSpec(mode="mux", environment="WAN", server="Apache",
                            faults="hostile-server").execute_unit(seed)
    assert result.recovery


def test_only_wants_three_fields(capsys):
    assert run_chaos(only="flaky-server") == 2
    assert "PLAN:MODE:ENV" in capsys.readouterr().err


def test_only_unknown_cell_is_usage_error(capsys):
    assert run_chaos(only="no-such-plan:pipelined:WAN") == 2
    assert "no chaos cell matches" in capsys.readouterr().err


def test_chaos_cli_verb_runs_one_cell(capsys):
    code = main(["chaos", "--seed", "1997",
                 "--only", "bursty-loss:pipelined:WAN"])
    out = capsys.readouterr().out
    assert code == 0
    assert "bursty-loss" in out


def test_cached_cell_still_reports_recovery(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    texts = []
    for expected_runs in (1, 0):
        out = io.StringIO()
        runner = MatrixRunner(cache=cache)
        assert run_chaos(seed=1997, only="flaky-server:pipelined:WAN",
                         out=out, runner=runner) == 0
        assert runner.stats.sim_runs == expected_runs
        texts.append(out.getvalue())
    assert "server.503=" in texts[1]     # from a trace-less result
    assert texts[0] == texts[1]


@pytest.mark.slow
def test_full_grid_recovers_everywhere(serial_sweep):
    status, text, _, _ = serial_sweep
    assert status == 0
    assert "all 48 cells recovered" in text


@pytest.mark.slow
def test_jobs_do_not_change_the_sweep(serial_sweep):
    status, text, stats = sweep(jobs=2)
    assert stats.ipc_batches > 0         # really went through the pool
    assert (status, text) == serial_sweep[:2]


@pytest.mark.slow
def test_cache_and_journal_replay_the_sweep(serial_sweep):
    _, text, cache, journal = serial_sweep
    for options, counter in (({"cache": cache}, "cache_hits"),
                             ({"journal": journal}, "journal_hits")):
        status, replayed, stats = sweep(**options)
        assert stats.sim_runs == 0
        assert getattr(stats, counter) == 48
        assert (status, replayed) == (0, text)


@pytest.mark.slow
def test_quarantined_cell_prints_failed_and_reproduce(serial_sweep,
                                                      unit_faults, tmp_path):
    plan, mode, environment = chaos_cells()[1]
    seed = _cell_seed(1997, plan, mode, environment)
    victim = ExperimentSpec(mode=mode, scenario=CHAOS_SCENARIO,
                            environment=environment, server=CHAOS_SERVER,
                            seeds=(seed,), faults=plan)
    # Only the victim is missing from this copy of the sweep's cache:
    # it alone is simulated — and poisoned.
    cache = ResultCache(shutil.copytree(serial_sweep[2].root,
                                        tmp_path / "cache"))
    cache.path(victim, seed).unlink()
    unit_faults.poison(victim, seed)
    status, text, stats = sweep(cache=cache)
    assert status == 1
    assert stats.failures == 1
    assert stats.cache_hits == 47
    clean, lines = serial_sweep[1].splitlines(), text.splitlines()
    row = 2 + 1                          # header, rule, then the cells
    assert lines[:row] == clean[:row]
    assert lines[row].startswith(
        f"{plan:15s} {mode:20s} {environment:4s}   FAILED  "
        f"UnitFaultError: ")
    assert lines[row + 1] == (f"  reproduce: python -m repro chaos "
                              f"--seed 1997 --only "
                              f"{plan}:{mode}:{environment}")
    assert lines[row + 2:-1] == clean[row + 1:-1]
    assert lines[-1] == "1/48 cells FAILED (seed 1997)"
