"""Discrete-event simulation engine.

The simulator provides a virtual clock and an event queue.  Everything in
:mod:`repro.simnet` — links, TCP endpoints, application timers — runs on
top of a single :class:`Simulator` instance.  Events fire in strict
timestamp order; ties are broken by scheduling order, which makes every
run fully deterministic (a property the paper's real testbed obviously
lacked, and which we exploit heavily in tests).

Internally the heap holds plain ``(time, seq, event)`` tuples, so the
C implementation of :mod:`heapq` compares tuples natively instead of
calling back into a Python ``__lt__`` per comparison; ``seq`` is unique,
so the :class:`Event` payload is never compared.  Cancellation is lazy —
the handle is flagged and the heap entry discarded when it surfaces —
with an opportunistic purge that rebuilds the heap once dead entries
outnumber live ones, keeping connection-heavy simulations from carrying
cancelled RTO/delayed-ACK entries for their whole lifetime.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> _ = sim.schedule(1.5, fired.append, "a")
>>> _ = sim.schedule(0.5, fired.append, "b")
>>> sim.run()
>>> fired
['b', 'a']
>>> sim.now
1.5
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from ..perf import PerfCounters

__all__ = ["Event", "Simulator", "SimulationError"]

#: Don't bother purging tiny heaps; rebuilds only pay off at scale.
_PURGE_MIN_DEAD = 64


class SimulationError(RuntimeError):
    """Raised for invalid simulator operations (e.g. scheduling in the past)."""


class Event:
    """A handle for a scheduled callback.

    Returned by :meth:`Simulator.schedule`; the only public operations are
    :meth:`cancel` and the :attr:`cancelled` / :attr:`time` attributes.
    Cancellation is O(1): the event is flagged and skipped when popped.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: Tuple[Any, ...],
                 sim: Optional["Simulator"] = None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event t={self.time:.6f} {name} {state}>"


class Simulator:
    """A deterministic discrete-event simulator.

    Attributes
    ----------
    now:
        The current simulated time in seconds.  Starts at 0.0 and only
        moves forward.
    perf:
        :class:`~repro.perf.PerfCounters` accumulated over the
        simulator's lifetime (events fired, heap high-water mark, …).
    """

    __slots__ = ("now", "perf", "fastforward", "_heap", "_seq", "_live",
                 "_dead", "_running", "__weakref__")

    def __init__(self) -> None:
        self.now: float = 0.0
        self.perf = PerfCounters()
        #: Optional :class:`~repro.simnet.fastforward.FastForward` driver
        #: consulted by :meth:`run` between events.  ``None`` (the
        #: default) keeps the event loop on the plain per-event path.
        self.fastforward = None
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._live = 0      # scheduled, not cancelled, not yet fired
        self._dead = 0      # cancelled entries still buried in the heap
        self._running = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``delay`` may be zero (the event runs after all events already due
        at the current time), but never negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}")
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args, self)
        heap = self._heap
        heapq.heappush(heap, (time, seq, event))
        self._live += 1
        perf = self.perf
        if len(heap) > perf.heap_peak:
            perf.heap_peak = len(heap)
        return event

    def _note_cancel(self) -> None:
        """Bookkeeping for a cancelled pending event (called by Event)."""
        self._live -= 1
        self._dead += 1
        if self._dead >= _PURGE_MIN_DEAD and self._dead > self._live:
            self._purge()

    def _purge(self) -> None:
        """Rebuild the heap without cancelled entries.

        Entries order on the unique ``(time, seq)`` prefix, so a
        heapify of the survivors yields the exact same pop order as
        draining the old heap — determinism is unaffected.
        """
        survivors = [entry for entry in self._heap
                     if not entry[2].cancelled]
        self.perf.events_cancelled += len(self._heap) - len(survivors)
        heapq.heapify(survivors)
        self._heap = survivors
        self._dead = 0
        self.perf.heap_purges += 1

    # ------------------------------------------------------------------
    # Event surgery (fast-forward support)
    # ------------------------------------------------------------------
    def extract_events(self, events) -> None:
        """Remove live ``events`` from the heap without firing them.

        Used by the fast-forward driver to take ownership of a span's
        deliveries and timer standings.  Extracted events are detached
        (``_sim`` cleared) so a stray :meth:`Event.cancel` while
        extracted cannot decrement the live count a second time —
        ``pending_events`` stays exact through extract/reinsert cycles.
        The heap is rebuilt once, preserving the ``(time, seq)`` order
        of every remaining entry.
        """
        remove = set(map(id, events))
        if not remove:
            return
        survivors = []
        extracted = 0
        for entry in self._heap:
            if id(entry[2]) in remove:
                entry[2]._sim = None
                extracted += 1
            else:
                survivors.append(entry)
        if extracted != len(remove):
            raise SimulationError("extract_events: event not in heap")
        heapq.heapify(survivors)
        self._heap = survivors
        self._live -= extracted

    def reinsert_entry(self, entry: Tuple[float, int, Event]) -> None:
        """Put an extracted ``(time, seq, event)`` entry back verbatim.

        The original time *and* sequence number are preserved, so a
        reinserted event keeps its exact tie-break position relative to
        everything scheduled before the extraction.
        """
        event = entry[2]
        if event.cancelled:
            raise SimulationError("reinsert_entry: event was cancelled")
        event._sim = self
        heapq.heappush(self._heap, entry)
        self._live += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: int = 10_000_000) -> None:
        """Run events in order until the queue drains.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire after ``until``
            and advance the clock to exactly ``until``.
        max_events:
            Safety valve against runaway simulations: at most this many
            events fire, exceeding it ⇒ :class:`SimulationError`.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        processed = 0
        perf = self.perf
        pop = heapq.heappop
        try:
            while self._heap:
                ff = self.fastforward
                if ff is not None and ff.pending is not None:
                    # A steady bulk-transfer candidate was flagged by the
                    # TCP layer: give the analytic fast path one shot at
                    # advancing the span before the next event pops.
                    ff.attempt(until)
                    continue
                time, _seq, event = self._heap[0]
                if event.cancelled:
                    pop(self._heap)
                    self._dead -= 1
                    perf.events_cancelled += 1
                    continue
                if until is not None and time > until:
                    self.now = until
                    return
                if processed >= max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; likely a livelock")
                pop(self._heap)
                self._live -= 1
                event._sim = None   # a late cancel() must not decrement
                self.now = time
                event.callback(*event.args)
                processed += 1
                perf.events_processed += 1
            if until is not None:
                self.now = max(self.now, until)
        finally:
            self._running = False

    def close(self) -> None:
        """Drop every pending event and the fast-forward driver."""
        self._heap.clear()
        self._live = self._dead = 0
        self.fastforward = None

    def pending_events(self) -> int:
        """Number of scheduled, non-cancelled events.  O(1)."""
        return self._live

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now:.6f} pending={self.pending_events()}>"
