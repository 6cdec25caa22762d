"""Discrete-event simulation engine.

The simulator provides a virtual clock and an event queue.  Everything in
:mod:`repro.simnet` — links, TCP endpoints, application timers — runs on
top of a single :class:`Simulator` instance.  Events fire in strict
timestamp order; ties are broken by scheduling order, which makes every
run fully deterministic (a property the paper's real testbed obviously
lacked, and which we exploit heavily in tests).

A scheduled event is one plain list, ``[time, seq, callback, args]``:
the heap entry and the handle :meth:`Simulator.schedule` returns are the
same object.  :mod:`heapq`'s C code compares entries natively on the
unique ``(time, seq)`` prefix, so the callback is never compared.
Cancellation is lazy — :meth:`Simulator.cancel` clears the callback slot
and the entry is discarded when it surfaces — with an opportunistic
purge that rebuilds the heap once dead entries outnumber live ones,
keeping connection-heavy simulations from carrying cancelled
RTO/delayed-ACK entries for their whole lifetime.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> _ = sim.schedule(1.5, fired.append, "a")
>>> _ = sim.schedule(0.5, fired.append, "b")
>>> doomed = sim.schedule(1.0, fired.append, "c")
>>> sim.cancel(doomed)
>>> sim.pending_events()
2
>>> sim.run()
>>> fired
['b', 'a']
>>> sim.now
1.5
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, List, Optional

from ..perf import PerfCounters

__all__ = ["Simulator", "SimulationError"]

#: Don't bother purging tiny heaps; rebuilds only pay off at scale.
_PURGE_MIN_DEAD = 64


class SimulationError(RuntimeError):
    """Raised for invalid simulator operations (e.g. scheduling in the past)."""


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

    __slots__ = ("now", "perf", "fastforward", "_heap", "_seq", "_dead",
                 "_running", "__weakref__")

    def __init__(self) -> None:
        self.now: float = 0.0
        self.perf = PerfCounters()
        #: Optional :class:`~repro.simnet.fastforward.FastForward` driver
        #: consulted by :meth:`run` between events.  ``None`` (the
        #: default) keeps the event loop on the plain per-event path.
        self.fastforward = None
        #: ``[time, seq, callback, args]`` entries; ``callback`` is None
        #: once cancelled.  Rebuilt in place only, so :meth:`run` may
        #: hold the list across callbacks.
        self._heap: List[list] = []
        self._seq = 0
        self._dead = 0      # cancelled entries still buried in the heap
        self._running = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> list:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``delay`` may be zero (the event runs after all events already due
        at the current time), but never negative.  Returns the entry,
        the handle :meth:`cancel` takes.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> list:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}")
        seq = self._seq
        self._seq = seq + 1
        entry = [time, seq, callback, args]
        heap = self._heap
        heapq.heappush(heap, entry)
        perf = self.perf
        if len(heap) > perf.heap_peak:
            perf.heap_peak = len(heap)
        return entry

    def cancel(self, entry: list) -> None:
        """Prevent a scheduled ``entry`` from firing.  Idempotent, O(1).

        A fired entry, or one cancelled before, is left alone.  An entry
        the fast-forward driver holds (:meth:`extract_events`) is only
        marked: it is not in the heap, so nothing is counted.
        """
        if entry[2] is None:
            return
        entry[2] = None
        if entry[1] < 0:
            return
        dead = self._dead = self._dead + 1
        if dead >= _PURGE_MIN_DEAD and dead > len(self._heap) - dead:
            self._purge()

    def _purge(self) -> None:
        """Rebuild the heap without cancelled entries.

        Entries order on the unique ``(time, seq)`` prefix, so a
        heapify of the survivors yields the exact same pop order as
        draining the old heap — determinism is unaffected.
        """
        heap = self._heap
        survivors = [entry for entry in heap if entry[2] is not None]
        self.perf.events_cancelled += len(heap) - len(survivors)
        heapq.heapify(survivors)
        heap[:] = survivors
        self._dead = 0
        self.perf.heap_purges += 1

    # ------------------------------------------------------------------
    # Event surgery (fast-forward support)
    # ------------------------------------------------------------------
    def extract_events(self, entries: Iterable[list]) -> None:
        """Remove live ``entries`` from the heap without firing them.

        Used by the fast-forward driver to take ownership of a span's
        deliveries and timer standings.  An extracted entry carries its
        ``seq`` complemented (negative) until :meth:`reinsert_entry`
        restores it, so a stray :meth:`cancel` while extracted only
        clears the slot and ``pending_events`` stays exact through
        extract/reinsert cycles.  The heap is rebuilt once, preserving
        the ``(time, seq)`` order of every remaining entry.
        """
        remove = set(map(id, entries))
        if not remove:
            return
        heap = self._heap
        survivors = []
        extracted = 0
        for entry in heap:
            if id(entry) in remove:
                entry[1] = ~entry[1]
                extracted += 1
            else:
                survivors.append(entry)
        if extracted != len(remove):
            raise SimulationError("extract_events: event not in heap")
        heapq.heapify(survivors)
        heap[:] = survivors

    def reinsert_entry(self, entry: list) -> None:
        """Put an extracted entry back verbatim.

        The original time *and* sequence number are restored, so a
        reinserted event keeps its exact tie-break position relative to
        everything scheduled before the extraction.
        """
        if entry[2] is None:
            raise SimulationError("reinsert_entry: event was cancelled")
        entry[1] = ~entry[1]
        heapq.heappush(self._heap, entry)

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
        heap = self._heap
        ff = self.fastforward
        pop = heapq.heappop
        try:
            while heap:
                if ff is not None and ff.pending is not None:
                    # A steady bulk-transfer candidate was flagged by the
                    # TCP layer: give the analytic fast path one shot at
                    # advancing the span before the next event pops.
                    ff.attempt(until)
                    continue
                entry = heap[0]
                callback = entry[2]
                if callback is None:
                    pop(heap)
                    self._dead -= 1
                    perf.events_cancelled += 1
                    continue
                time = entry[0]
                if until is not None and time > until:
                    self.now = until
                    return
                if processed >= max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; likely a livelock")
                pop(heap)
                entry[2] = None     # a late cancel() must not count
                self.now = time
                callback(*entry[3])
                processed += 1
            if until is not None:
                self.now = max(self.now, until)
        finally:
            perf.events_processed += processed
            self._running = False

    def close(self) -> None:
        """Drop every pending event and the fast-forward driver."""
        self._heap.clear()
        self._dead = 0
        self.fastforward = None

    def pending_events(self) -> int:
        """Number of scheduled, non-cancelled events.  O(1)."""
        return len(self._heap) - self._dead

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now:.6f} pending={self.pending_events()}>"
