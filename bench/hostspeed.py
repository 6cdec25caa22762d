"""Correcting measured seconds for the host's momentary speed.

A shared sandbox does not run at one speed: the same pure-Python kernel
takes 5 ms of CPU in one second and 9 ms in the next, for tens of
seconds at a time, whatever this process does (a neighbour on the same
core or memory bus is the likely cause), and in other phases the
hypervisor takes the CPU away for 5-40 % of the wall time.  A median
over a 20-second run inherits those swings in full — ten runs of
identical work spread 12-20 % — which would make any regression bound
meaningless.

So every interval the benchmark times is measured against a control.
:class:`HostSpeedProbe` runs a fixed reference kernel every
:data:`PROBE_INTERVAL_S` of wall time, from a ``SIGALRM`` handler, so
the probes also land *inside* long opaque calls such as the 9-second
report, and notes ``/proc/stat``'s cumulative steal time with each.  An
interval's corrected duration is::

    (wall - seconds stolen by the hypervisor - CPU seconds of probes in it)
        * mean(REFERENCE_KERNEL_S / probe CPU time  for probes in or next to it)

i.e. seconds as a host that runs the kernel in exactly
:data:`REFERENCE_KERNEL_S` of CPU time, and never preempts the guest,
would have taken.  Two corrections because there are two kinds of
noise: a slower core stretches CPU time itself (the kernel sees it),
while preemption stretches only wall time, in gaps a probe never
samples because its own start waits for the process to be scheduled
again (steal accounting sees those).  Waits the process causes itself
— I/O, sleeps — are in neither and stay in the corrected wall.  Raw
seconds are kept beside every corrected value.

The kernel deliberately shares no code with ``repro`` (a faster
simulator must not speed up the yardstick) but does the same kinds of
interpreter work, because a yardstick with a different instruction mix
slows by a different factor under contention and over-corrects.
"""

from __future__ import annotations

import bisect
import heapq
import os
import signal
import time
from typing import Any, Dict, List, Tuple

__all__ = ["HostSpeedProbe", "REFERENCE_KERNEL_S", "PROBE_INTERVAL_S"]

#: The kernel's duration on the nominal host; sized to be about what a
#: quiet 2-core sandbox takes, so corrected seconds read like real ones.
REFERENCE_KERNEL_S = 0.005

#: Wall time between probes: ~2.5 % of the run goes to the yardstick
#: (and is subtracted again from every interval it falls into).
PROBE_INTERVAL_S = 0.2

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_PAYLOAD = bytes(range(256)) * 8
_REQUEST = (b"GET /images/icon%d.gif HTTP/1.1\r\nHost: www26.w3.org\r\n"
            b"User-Agent: W3CRobot/5.1 libwww/5.1\r\nAccept: */*\r\n"
            b"If-None-Match: \"etag-%d\"\r\n\r\n")


def _reference_kernel() -> int:
    """~5 ms of the two kinds of work the simulator is made of.

    Measured against 0.3 s chunks of a real fleet under heavy host
    noise (raw spread 17.9 %, IQR/median over 20 s windows), the tight
    half alone tracks them to 5.3 %, the object-heavy half alone to
    4.2 %, both together to 4.0 %, with no drift between quiet and
    noisy phases.
    """
    # Tight loop: heap, dict, tuples, slices — all cache-resident.
    heap: List[Tuple[int, int]] = []
    table: Dict[int, int] = {}
    total = 0
    push, pop = heapq.heappush, heapq.heappop
    for i in range(4000):
        key = (i * 7919) % 1013
        table[key] = table.get(key, 0) + i
        push(heap, (key, i))
        if len(heap) > 64:
            total += pop(heap)[1]
        total += len(_PAYLOAD[key:key + 40])
    # Object-heavy: a toy event loop delivering segmented requests to a
    # parser — method calls, attribute access, string and bytes churn.
    loop = _ToyLoop()
    for connection in range(10):
        inbox = bytearray()
        for request in range(30):
            loop.send(0.002 * request, inbox, _REQUEST % (request,
                                                          connection))
    return total + loop.run()


class _ToyLoop:
    __slots__ = ("events", "now", "sequence", "parsed")

    def __init__(self) -> None:
        self.events: List[Tuple[float, int, Any, Any]] = []
        self.now = 0.0
        self.sequence = 0
        self.parsed = 0

    def send(self, delay: float, inbox: bytearray, data: bytes) -> None:
        for offset in range(0, len(data), 64):
            self.sequence += 1
            heapq.heappush(self.events, (
                self.now + delay, self.sequence, inbox,
                data[offset:offset + 64]))

    def run(self) -> int:
        events = self.events
        while events:
            self.now, _, inbox, segment = heapq.heappop(events)
            inbox += segment
            end = inbox.find(b"\r\n\r\n")
            if end >= 0:
                self._parse(bytes(inbox[:end + 4]))
                del inbox[:end + 4]
        return self.parsed

    def _parse(self, block: bytes) -> None:
        lines = block.decode("latin-1").split("\r\n")
        _method, target, _version = lines[0].split(" ")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name:
                headers[name.strip().lower()] = value.strip()
        reply = "HTTP/1.1 304 Not Modified\r\nETag: %s\r\n\r\n" % (
            headers["if-none-match"],)
        self.parsed += len(reply.encode("latin-1")) + len(target)


def _stolen_seconds() -> float:
    """Cumulative time the hypervisor kept this guest's CPUs waiting."""
    try:
        with open("/proc/stat") as stat:
            return int(stat.readline().split()[8]) / _CLOCK_TICKS
    except (OSError, IndexError, ValueError):
        return 0.0     # no steal accounting here: nothing to subtract


class HostSpeedProbe:
    """Periodic reference-kernel timings and the corrections they give."""

    def __init__(self) -> None:
        #: Parallel columns, one entry per probe, in time order: when it
        #: started, its wall and CPU seconds, cumulative steal then.
        self.starts: List[float] = []
        self.walls: List[float] = []
        self.cpus: List[float] = []
        self.steals: List[float] = []
        self._previous_handler: Any = None

    def __enter__(self) -> "HostSpeedProbe":
        self._previous_handler = signal.signal(signal.SIGALRM,
                                               self._on_alarm)
        self._on_alarm()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _on_alarm(self, *_signal_args: Any) -> None:
        self.steals.append(_stolen_seconds())
        cpu = time.process_time()
        start = time.perf_counter()
        _reference_kernel()
        self.walls.append(time.perf_counter() - start)
        self.cpus.append(time.process_time() - cpu)
        self.starts.append(start)

    def window(self, start: float, end: float
               ) -> Tuple[float, float, float]:
        """For the interval [start, end] on the ``perf_counter`` clock:
        the CPU seconds the probes inside it took, the seconds the
        hypervisor stole during it, and the factor that turns its
        remaining seconds into reference-host seconds."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.starts, end)
        near_first = bisect.bisect_left(self.starts,
                                        start - PROBE_INTERVAL_S)
        near_last = bisect.bisect_right(self.starts,
                                        end + PROBE_INTERVAL_S)
        if near_first == near_last:     # a late timer: the last probe
            near_first = max(0, near_last - 1)
            near_last = near_first + 1
        nearby = self.cpus[near_first:near_last]
        # Steal is known at each probe and now; in between, assume it
        # accrued evenly.
        times = self.starts + [time.perf_counter()]
        steals = self.steals + [_stolen_seconds()]
        return (sum(self.cpus[first:last]),
                _interpolate(times, steals, end)
                - _interpolate(times, steals, start),
                sum(REFERENCE_KERNEL_S / cpu for cpu in nearby)
                / len(nearby))


def _interpolate(times: List[float], values: List[float],
                 moment: float) -> float:
    """``values`` at ``moment``, linear between the samples at ``times``
    and clamped to the first and last."""
    after = min(max(bisect.bisect_right(times, moment), 1),
                len(times) - 1)
    span = times[after] - times[after - 1]
    share = (moment - times[after - 1]) / span if span > 0 else 1.0
    return values[after - 1] + min(max(share, 0.0), 1.0) * (
        values[after] - values[after - 1])
