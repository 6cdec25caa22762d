"""Engine hot-path behaviour: lazy cancellation, purge, safety valve.

These pin the properties the PR-2 rewrite introduced (and one bug it
fixed): the ``max_events`` valve fires exactly ``max_events`` events,
``pending_events`` counts only live events in O(1), cancelled entries
never advance the clock, and the heap cannot grow without bound when
connections churn timers.
"""

import pytest

from repro.simnet.engine import SimulationError, Simulator
from repro.simnet.engine import _PURGE_MIN_DEAD


def test_safety_valve_fires_exactly_max_events():
    sim = Simulator()
    fired = []

    def forever():
        fired.append(sim.now)
        sim.schedule(0.001, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)
    # The pre-fix valve let max_events + 1 callbacks run.
    assert len(fired) == 100


def test_pending_events_counts_live_only():
    sim = Simulator()
    events = [sim.schedule(1.0 + i, lambda: None) for i in range(10)]
    assert sim.pending_events() == 10
    for event in events[:4]:
        event.cancel()
    assert sim.pending_events() == 6
    # Under the purge threshold the dead entries stay buried.
    assert len(sim._heap) == 10


def test_cancelled_event_does_not_advance_clock():
    sim = Simulator()
    late = sim.schedule(5.0, lambda: None)
    sim.schedule(1.0, lambda: None)
    late.cancel()
    sim.run()
    assert sim.now == 1.0


def test_heap_bounded_across_timer_churn():
    """Open/close-style churn: every cycle schedules timers and cancels
    them all (as a connection arming and disarming RTO / delayed-ACK
    timers does).  The opportunistic purge must keep the raw heap near
    the live count instead of accumulating every cancelled entry."""
    sim = Simulator()
    cycles, timers_per_cycle = 400, 10
    for i in range(cycles):
        events = [sim.schedule(1000.0 + i + j, lambda: None)
                  for j in range(timers_per_cycle)]
        for event in events:
            event.cancel()
    assert sim.pending_events() == 0
    # Without purging the heap would hold all cycles * timers_per_cycle
    # entries; with it, at most a threshold's worth of dead ones remain.
    assert len(sim._heap) <= 2 * _PURGE_MIN_DEAD
    assert sim.perf.heap_purges > 0
    total = cycles * timers_per_cycle
    assert sim.perf.events_cancelled + len(sim._heap) == total


def test_perf_counters_track_engine_work():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    doomed = sim.schedule(3.0, lambda: None)
    assert sim.perf.heap_peak == 3
    doomed.cancel()
    sim.run()
    assert sim.perf.events_processed == 2
    assert sim.perf.events_cancelled == 1


def test_purge_preserves_firing_order():
    sim = Simulator()
    fired = []
    keep = []
    for i in range(3 * _PURGE_MIN_DEAD):
        event = sim.schedule(1.0 + (i % 7) * 0.25, fired.append, i)
        if i % 3 == 0:
            keep.append((event.time, event.seq, i))
        else:
            event.cancel()   # triggers purges along the way
    assert sim.perf.heap_purges > 0
    sim.run()
    assert fired == [i for _, _, i in sorted(keep)]
