"""Engine hot-path behaviour: lazy cancellation, purge, safety valve.

These pin the properties the PR-2 rewrite introduced (and one bug it
fixed): the ``max_events`` valve fires exactly ``max_events`` events,
``pending_events`` counts only live events in O(1), cancelled entries
never advance the clock, and the heap cannot grow without bound when
connections churn timers.
"""

import doctest

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.simnet import engine
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
        sim.cancel(event)
    assert sim.pending_events() == 6
    # Under the purge threshold the dead entries stay buried.
    assert len(sim._heap) == 10


def test_cancelled_event_does_not_advance_clock():
    sim = Simulator()
    late = sim.schedule(5.0, lambda: None)
    sim.schedule(1.0, lambda: None)
    sim.cancel(late)
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
            sim.cancel(event)
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
    sim.cancel(doomed)
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
            keep.append((event[0], event[1], i))
        else:
            sim.cancel(event)   # triggers purges along the way
    assert sim.perf.heap_purges > 0
    sim.run()
    assert fired == [i for _, _, i in sorted(keep)]


def test_module_docstring_example_runs():
    # The example is the handle API's one narrative: keep it true.
    result = doctest.testmod(engine)
    assert result.attempted > 0
    assert result.failed == 0


# ----------------------------------------------------------------------
# Random programs against a reference list sorted by (time, seq)
# ----------------------------------------------------------------------
#: Small integer delays (in half seconds) so equal times, and so the
#: seq tie-break, are common.
_DELAYS = st.integers(0, 6)
_PICKS = st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4)

_OPS = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS),
    st.tuples(st.just("burst"), st.lists(_DELAYS, min_size=1, max_size=32)),
    # Schedule a batch and cancel all of it, as a connection arming and
    # disarming its timers does: enough dead entries to cross
    # _PURGE_MIN_DEAD.
    st.tuples(st.just("churn"),
              st.lists(_DELAYS, min_size=_PURGE_MIN_DEAD,
                       max_size=3 * _PURGE_MIN_DEAD)),
    # Any handles: live, fired, cancelled (a double cancel) or extracted.
    st.tuples(st.just("cancel"), _PICKS),
    st.tuples(st.just("cancel_live"), st.integers(1, 2 * _PURGE_MIN_DEAD)),
    st.tuples(st.just("run"), _DELAYS),
    st.tuples(st.just("extract"), _PICKS),
    st.tuples(st.just("reinsert"), _PICKS),
    # The fast-forward lifecycle in one step: extract, a stray cancel
    # of one held entry, reinsert of all the rest.
    st.tuples(st.just("span"), _PICKS),
)


class _Reference:
    """What the engine must do, as a list of (time, seq) keyed entries
    and one status per entry: live, cancelled, fired or extracted."""

    def __init__(self):
        self.now = 0.0
        self.keys = []          # tag -> (time, seq); tags count schedules
        self.status = []
        self.fired = []
        self.cancelled_in_heap = 0

    def schedule(self, time):
        tag = len(self.keys)
        self.keys.append((time, tag))
        self.status.append("live")
        return tag

    def cancel(self, tag):
        if self.status[tag] == "live":
            self.cancelled_in_heap += 1
            self.status[tag] = "cancelled"
        elif self.status[tag] == "extracted":
            self.status[tag] = "extracted-cancelled"

    def live(self):
        return [tag for _key, tag in sorted(
            (key, tag) for tag, key in enumerate(self.keys)
            if self.status[tag] == "live")]

    def held(self):
        return [tag for tag, state in enumerate(self.status)
                if state.startswith("extracted")]

    def run(self, until=None):
        for tag in self.live():
            time = self.keys[tag][0]
            if until is not None and time > until:
                break
            self.status[tag] = "fired"
            self.fired.append(tag)
            self.now = time
        if until is not None:
            self.now = max(self.now, until)


def _check(sim, ref, fired, handles):
    live = ref.live()
    assert fired == ref.fired
    assert sim.now == ref.now
    assert sim.pending_events() == len(live)
    assert (sim.perf.events_cancelled + len(sim._heap)
            == ref.cancelled_in_heap + len(live))
    # A live handle still reads its own (time, seq).
    assert all(tuple(handles[tag][:2]) == ref.keys[tag] for tag in live)


@settings(max_examples=60, deadline=None)
@given(st.lists(_OPS, min_size=1, max_size=40))
@example([("churn", [1] * 2 * _PURGE_MIN_DEAD), ("run", 6)])
@example([("burst", [1, 1, 2]), ("span", [0, 1]), ("run", 6)])
def test_random_programs_match_a_sorted_reference(program):
    sim = Simulator()
    ref = _Reference()
    fired = []
    handles = []

    def schedule(delay):
        time = sim.now + 0.5 * delay
        handles.append(sim.schedule_at(time, fired.append, len(handles)))
        return ref.schedule(time)

    def cancel(tag):
        sim.cancel(handles[tag])
        ref.cancel(tag)

    def reinsert(tags):
        for tag in tags:
            if ref.status[tag] == "extracted":
                sim.reinsert_entry(handles[tag])
                ref.status[tag] = "live"
            else:
                with pytest.raises(SimulationError):
                    sim.reinsert_entry(handles[tag])

    for op, arg in program:
        if op == "schedule":
            schedule(arg)
        elif op == "burst":
            for delay in arg:
                schedule(delay)
        elif op == "churn":
            for tag in [schedule(delay) for delay in arg]:
                cancel(tag)
        elif op == "cancel" and handles:
            for pick in arg:
                cancel(pick % len(handles))
        elif op == "cancel_live":
            for tag in ref.live()[::-2][:arg]:
                cancel(tag)
        elif op == "run":
            sim.run(until=sim.now + 0.5 * arg)
            ref.run(until=ref.now + 0.5 * arg)
            if ref.fired:
                cancel(ref.fired[-1])       # a cancel after the fire
        elif op in ("extract", "span"):
            live = ref.live()
            tags = sorted({live[pick % len(live)] for pick in arg}
                          if live else ())
            sim.extract_events([handles[tag] for tag in tags])
            for tag in tags:
                ref.status[tag] = "extracted"
            if op == "span" and tags:
                cancel(tags[arg[0] % len(tags)])
                reinsert(tags)
        elif op == "reinsert" and ref.held():
            held = ref.held()
            reinsert(sorted({held[pick % len(held)] for pick in arg}))
        _check(sim, ref, fired, handles)
    sim.run()
    ref.run()
    _check(sim, ref, fired, handles)
