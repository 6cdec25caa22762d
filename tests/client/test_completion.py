"""The robot's completion test: a page is done when nothing it asked for
is unhandled.  At every completion check of an unfinished robot (one
follows every handled response) an empty ``_unhandled`` set implies the
rest of the old five-way test: nothing pending, no shard queue with a
URL in it, no live connection with an outstanding request, and the HTML
complete — in every mode and scenario, and in a fault cell per plan for
the pipelined and MUX clients, where requests are retried, re-queued
and pushed mid-page."""

from repro.client.robot import Robot
from repro.core import run_experiment
from repro.core.registry import MODES
from repro.faults.chaos import CHAOS_SERVER
from repro.faults.plan import FAULT_PLANS

SEED = 1997


def _leftovers(robot):
    """What an empty ``_unhandled`` set would leave unchecked."""
    left = []
    if robot._pending:
        left.append(f"pending {list(robot._pending)}")
    if any(robot._shard_queues):
        left.append("a shard queue")
    if any(c.outstanding for c in robot._live):
        left.append("an outstanding request")
    if not robot._html_complete:
        left.append("the HTML")
    return left


def test_an_empty_unhandled_set_means_the_page_is_done(monkeypatch):
    checks = 0
    settled = 0
    violations = []
    check_complete = Robot._check_complete

    def checked(robot):
        nonlocal checks, settled
        if not robot._finished():
            checks += 1
            if not robot._unhandled:
                settled += 1
                left = _leftovers(robot)
                if left:
                    violations.append(
                        (type(robot).__name__, robot.config, left))
        check_complete(robot)

    monkeypatch.setattr(Robot, "_check_complete", checked)
    results = []
    for mode in MODES:
        for scenario in ("first-time", "revalidate"):
            results.append(run_experiment(
                mode, scenario, environment="WAN", profile="Apache",
                seed=SEED))
    for plan in sorted(FAULT_PLANS):
        for mode in ("pipelined", "mux"):
            results.append(run_experiment(
                mode, "first-time", environment="WAN",
                profile=CHAOS_SERVER, seed=SEED, faults=plan))
    runs = 2 * len(MODES) + 2 * len(FAULT_PLANS)
    assert len(results) == runs
    assert all(result.fetch.complete for result in results)
    assert settled == runs and checks >= 43 * runs
    assert not violations, violations[:3]
