"""Unit tests for the discrete-event engine."""

import pytest

from repro.simnet.engine import SimulationError, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(1.5, fired.append, "middle")
    sim.run()
    assert fired == ["early", "middle", "late"]


def test_ties_break_in_scheduling_order():
    sim = Simulator()
    fired = []
    for tag in ("a", "b", "c"):
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    sim.schedule(3.25, lambda: None)
    sim.run()
    assert sim.now == pytest.approx(3.25)


def test_zero_delay_event_runs_after_current():
    sim = Simulator()
    fired = []

    def outer():
        sim.schedule(0.0, fired.append, "inner")
        fired.append("outer")

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == ["outer", "inner"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.cancel(event)
    sim.run()
    assert fired == []
    assert sim.pending_events() == 0


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.cancel(event)
    sim.cancel(event)
    sim.run()


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(5.0, fired.append, "b")
    sim.run(until=2.0)
    assert fired == ["a"]
    assert sim.now == pytest.approx(2.0)
    sim.run()
    assert fired == ["a", "b"]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == pytest.approx(5.0)


def test_max_events_guard():
    sim = Simulator()

    def forever():
        sim.schedule(0.0, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(0.0, reenter)
    sim.run()
    assert len(errors) == 1
