"""The fleet's user *is* the paper's robot: cohort vs. run_experiment.

A one-user, one-cohort, uncapped, single-epoch cohort whose user
arrives at t=0 is the two-host experiment cell, so the two entry points
must agree exactly — the same packets, the same page time to the last
float bit, the same server CPU seconds.  Any divergence means the
session assembly has forked again.
"""

import pytest

from repro.core import run_experiment
from repro.core.runner import DEFAULT_JITTER, MAX_SIM_TIME
from repro.fleet import FleetSpec, FleetUnitSpec, engine, run_cohort
from repro.fleet.spec import UserPlan

PLAIN_HTTP_MODES = ("HTTP/1.0", "HTTP/1.1", "HTTP/1.1 Pipelined",
                    "HTTP/1.1 Pipelined w. compression")
SEED = 3


@pytest.mark.parametrize("environment", ["WAN", "PPP"])
@pytest.mark.parametrize("scenario", ["first-time", "revalidate"])
@pytest.mark.parametrize("mode", PLAIN_HTTP_MODES)
def test_single_user_cohort_equals_run_experiment(monkeypatch, mode,
                                                  scenario, environment):
    # The Poisson process never draws an arrival of exactly zero; pin
    # it so both simulations start the fetch at the same instant, and
    # give the cohort the cell's jitter so both draw the same sequence.
    monkeypatch.setattr(engine, "JITTER", DEFAULT_JITTER)
    monkeypatch.setattr(
        FleetSpec, "cohort_plans",
        lambda self, cohort: [UserPlan(index=0, cohort=0, arrival=0.0,
                                       mode=mode, think_times=())])
    fleet = FleetSpec(users=1, cohorts=1, environment=environment,
                      scenario=scenario, server="Apache",
                      pages_per_user=1, server_capacity=None,
                      epoch=MAX_SIM_TIME, max_sim_time=MAX_SIM_TIME,
                      rounds=1, seed=SEED)
    unit = FleetUnitSpec(fleet=fleet, cohort=0,
                         shares=(fleet.backbone_bandwidth(),))
    cohort = run_cohort(unit, SEED)
    cell = run_experiment(mode, scenario, environment=environment,
                          profile="Apache", seed=SEED)
    assert cohort.errors == 0
    assert cohort.packets == cell.packets
    assert cohort.page_times == [cell.elapsed]
    assert cohort.server_cpu_seconds == cell.server_cpu_seconds
