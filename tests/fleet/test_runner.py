"""Tests for the fleet driver: water-fill, job-count and resume identity."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.runner import nearest_rank
from repro.fleet import FleetResult, FleetSpec, run_fleet
from repro.fleet.spec import FleetUnitSpec
from repro.fleet.runner import _quantize, _rebalance, _waterfill
from repro.matrix import MatrixRunner, unit_key
from repro.matrix.cache import ResultCache
from repro.matrix.journal import RunJournal


def small_spec(**overrides):
    kwargs = dict(users=12, cohorts=2, environment="LAN",
                  arrival_rate=20.0, think_time=0.0, pages_per_user=1,
                  rounds=2, max_sim_time=120.0)
    kwargs.update(overrides)
    return FleetSpec(**kwargs)


# ----------------------------------------------------------------------
# The analytic share exchange
# ----------------------------------------------------------------------

def test_waterfill_grants_bounded_demands():
    assert _waterfill(100.0, [10.0, 20.0, 30.0]) == [10.0, 20.0, 30.0]


def test_waterfill_splits_remainder_among_saturated():
    shares = _waterfill(60.0, [math.inf, math.inf, 10.0])
    assert shares == [25.0, 25.0, 10.0]
    assert _waterfill(90.0, [math.inf] * 3) == [30.0] * 3


def test_waterfill_is_deterministic():
    demands = [math.inf, 7.0, math.inf, 3.0, 11.0]
    first = _waterfill(40.0, demands)
    assert all(_waterfill(40.0, demands) == first for _ in range(5))


_DEMAND = st.one_of(st.just(math.inf),
                    st.floats(min_value=0.0, max_value=1e9))


@settings(max_examples=50, deadline=None)
@given(capacity=st.floats(min_value=1.0, max_value=1e9),
       demands=st.lists(_DEMAND, min_size=1, max_size=12),
       data=st.data())
def test_waterfill_is_max_min_fair(capacity, demands, data):
    """Conservation, max-min optimality, equivariance, monotonicity."""
    shares = _waterfill(capacity, demands)
    tolerance = 1e-9 * max(capacity, 1.0)
    assert all(0.0 <= share <= demand + tolerance
               for share, demand in zip(shares, demands))
    assert sum(shares) == pytest.approx(min(capacity, sum(demands)),
                                        rel=1e-9, abs=tolerance)
    # Max-min: a cohort granted less than it asked for holds a share at
    # least as large as everyone else's.
    for share, demand in zip(shares, demands):
        if share < demand - tolerance:
            assert share >= max(shares) - tolerance
    # Equivariance: permuting the demands permutes the shares.
    order = data.draw(st.permutations(range(len(demands))))
    permuted = _waterfill(capacity, [demands[k] for k in order])
    assert permuted == pytest.approx([shares[k] for k in order],
                                     rel=1e-9, abs=tolerance)
    # Monotonicity: raising one demand never raises another's share.
    k = data.draw(st.integers(0, len(demands) - 1))
    raised = list(demands)
    raised[k] = data.draw(st.one_of(
        st.just(math.inf), st.floats(min_value=0.0, max_value=1e9).map(
            lambda extra: demands[k] + extra)))
    for j, (before, after) in enumerate(zip(
            shares, _waterfill(capacity, raised))):
        if j != k:
            assert after <= before + tolerance


def test_quantize_floors_at_one_bit():
    assert _quantize(0.2) == 1.0
    assert _quantize(1e6 + 0.4) == 1e6


def test_rebalance_keeps_share_for_quarantined_cohort():
    spec = small_spec(cohorts=2, users=12)
    old = [(5e6,) * spec.n_epochs, (3e6,) * spec.n_epochs]
    rebalanced = _rebalance(spec, old, [None, None],
                            backbone=8e6, bits_per_byte=8.0)
    assert rebalanced == old


# ----------------------------------------------------------------------
# Population-level determinism: the fleet's core contract
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def serial_result():
    return run_fleet(small_spec())


def test_fleet_serves_every_user(serial_result):
    assert serial_result.users_simulated == 12
    assert serial_result.errors == 0
    assert len(serial_result.page_times) == 12
    assert not serial_result.failures
    assert len(serial_result.cohorts) == 2
    assert 0.0 < serial_result.fairness_index <= 1.0


def assert_jobs_do_not_change_results(spec, serial):
    with MatrixRunner(jobs=2) as runner:
        parallel = run_fleet(spec, runner=runner)
    assert parallel.page_times
    assert parallel.cohorts == serial.cohorts
    assert parallel.final_shares == serial.final_shares
    assert parallel.page_times == serial.page_times
    for p in (50, 95, 99):
        assert parallel.percentile(p) == serial.percentile(p)


def test_jobs_do_not_change_results(serial_result):
    assert_jobs_do_not_change_results(small_spec(), serial_result)


@pytest.mark.slow
def test_jobs_do_not_change_results_wan():
    # The same contract off the LAN: four WAN cohorts with think time
    # contending for a 6 Mbit/s backbone, so the share exchange this
    # test exists for actually moves every epoch off the equal split.
    spec = small_spec(users=48, cohorts=4, environment="WAN",
                      arrival_rate=4.0, think_time=2.0,
                      max_sim_time=240.0, backbone_bps=6e6)
    serial = run_fleet(spec)
    equal = _quantize(spec.backbone_bandwidth() / spec.cohorts)
    assert all(share != equal for shares in serial.final_shares
               for share in shares)
    assert_jobs_do_not_change_results(spec, serial)


def test_unit_wall_times_keep_every_round_of_a_cohort():
    # A cohort has the same label in every fixed-point round; only its
    # shares differ.  Keyed by label, round 2 overwrote round 1.
    spec = small_spec()
    equal = (spec.backbone_bandwidth() / spec.cohorts,) * spec.n_epochs
    halved = tuple(share / 2 for share in equal)
    units = [FleetUnitSpec(fleet=spec, cohort=0, shares=shares)
             for shares in (equal, halved)]
    assert units[0].label == units[1].label
    runner = MatrixRunner()
    runner.run_many(units)
    assert runner.stats.sim_runs == 2
    assert set(runner.stats.unit_wall_times) == {
        unit_key(unit, spec.seed) for unit in units}


def test_journal_resume_is_byte_identical(tmp_path, serial_result):
    spec = small_spec()
    with MatrixRunner(journal=RunJournal("fleet-test",
                                         tmp_path)) as runner:
        first = run_fleet(spec, runner=runner)
        assert runner.stats.journal_hits == 0
    # A resumed run replays every unit from the journal: zero
    # simulation, byte-identical population statistics.
    with MatrixRunner(journal=RunJournal("fleet-test",
                                         tmp_path)) as runner:
        resumed = run_fleet(spec, runner=runner)
        assert runner.stats.journal_hits == spec.cohorts * spec.rounds
        assert runner.stats.sim_runs == 0
    assert resumed.cohorts == first.cohorts == serial_result.cohorts
    assert resumed.final_shares == first.final_shares
    assert resumed.page_times == serial_result.page_times


def test_cache_replay_is_byte_identical(tmp_path, serial_result):
    spec = small_spec()
    cache = ResultCache(tmp_path / "cache")
    with MatrixRunner(cache=cache) as runner:
        first = run_fleet(spec, runner=runner)
    with MatrixRunner(cache=cache) as runner:
        replayed = run_fleet(spec, runner=runner)
        assert runner.stats.cache_hits == spec.cohorts * spec.rounds
        assert runner.stats.sim_runs == 0
    assert replayed.cohorts == first.cohorts == serial_result.cohorts
    assert replayed.page_times == serial_result.page_times


# ----------------------------------------------------------------------
# Aggregation edge cases and reporting
# ----------------------------------------------------------------------

def test_empty_fleet_result_yields_nan():
    spec = small_spec()
    empty = FleetResult(spec=spec, cohorts=(None, None), failures=(),
                        final_shares=((1.0,), (1.0,)))
    assert math.isnan(empty.percentile(50))
    assert math.isnan(empty.mean_page_time)
    assert math.isnan(empty.fairness_index)
    assert empty.users_simulated == 0


def test_nearest_rank_percentiles():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert nearest_rank(values, 50) == 3.0
    assert nearest_rank(values, 99) == 5.0
    assert nearest_rank(values, 0) == 1.0
    assert math.isnan(nearest_rank([], 50))


def test_format_fleet_report(serial_result):
    from repro.analysis.report import format_fleet_report
    text = format_fleet_report(serial_result)
    assert "Fleet population: 12 users" in text
    assert "p50" in text and "p99" in text
    assert "Jain" in text
    for mode_name, _ in serial_result.spec.modes:
        assert mode_name in text


def test_fleet_cli(capsys):
    from repro.__main__ import main
    assert main(["fleet", "--users", "8", "--cohorts", "2",
                 "--environment", "LAN", "--arrival-rate", "50",
                 "--think-time", "0", "--pages-per-user", "1",
                 "--rounds", "1", "--max-sim-time", "60"]) == 0
    out = capsys.readouterr().out
    assert "Fleet population: 8 users" in out
    assert "p50" in out
