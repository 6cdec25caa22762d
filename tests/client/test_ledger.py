"""The robot's connection ledger: after every handled response,
``Robot._live`` is exactly the open, un-retired connection states in
the order they were opened — in every mode and scenario, and in a
fault cell per plan for the pipelined and MUX clients, where
connections are reset, cut and re-opened mid-page."""

from repro.client.robot import Robot
from repro.core import run_experiment
from repro.core.registry import MODES
from repro.faults.chaos import CHAOS_SERVER
from repro.faults.plan import FAULT_PLANS

SEED = 1997


def test_live_is_the_open_states_in_opening_order(monkeypatch):
    opened = {}         # robot -> its states, in opening order
    checks = []
    violations = []
    new_conn, handle = Robot._new_conn, Robot._handle_response

    def recorded_new_conn(robot, *args, **kwargs):
        state = new_conn(robot, *args, **kwargs)
        opened.setdefault(robot, []).append(state)
        return state

    def checked_handle(robot, state, url, response):
        handle(robot, state, url, response)
        expected = [c for c in opened[robot]
                    if c.open and c in robot._conns]
        checks.append(url)
        if robot._live != expected:
            violations.append((type(robot).__name__, robot.config, url))

    monkeypatch.setattr(Robot, "_new_conn", recorded_new_conn)
    monkeypatch.setattr(Robot, "_handle_response", checked_handle)
    runs = 0
    for mode in MODES:
        for scenario in ("first-time", "revalidate"):
            run_experiment(mode, scenario, environment="WAN",
                           profile="Apache", seed=SEED)
            runs += 1
    for plan in sorted(FAULT_PLANS):
        for mode in ("pipelined", "mux"):
            run_experiment(mode, "first-time", environment="WAN",
                           profile=CHAOS_SERVER, seed=SEED, faults=plan)
            runs += 1
    assert runs == 2 * len(MODES) + 2 * len(FAULT_PLANS)
    assert len(opened) == runs and len(checks) >= 43 * runs
    assert not violations, violations[:3]
