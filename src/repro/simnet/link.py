"""Duplex link model and the paper's three network environments.

Table 1 of the paper defines the test matrix:

===========================  ============================  =======  ====
Channel                      Connection                    RTT      MSS
===========================  ============================  =======  ====
High bandwidth, low latency  LAN — 10 Mbit Ethernet        < 1 ms   1460
High bandwidth, high latency WAN — MIT/LCS to LBL          ~ 90 ms  1460
Low bandwidth, high latency  PPP — 28.8k modem             ~150 ms  1460
===========================  ============================  =======  ====

Each :class:`Link` direction is a FIFO serialization queue: a segment's
delivery time is ``serialization_start + wire_bits/bandwidth +
propagation_delay``.  All TCP connections between the two hosts share the
link, so four parallel HTTP/1.0 connections compete for the same modem —
exactly the effect the paper describes for dialup users.

The PPP link transmits 10 bits per byte (async start/stop framing) and
may carry a :class:`~repro.simnet.modem.ModemCompressor` pair modelling
V.42bis data compression in the modem hardware.
"""

from __future__ import annotations

import dataclasses
import random
from typing import (TYPE_CHECKING, Callable, ClassVar, Dict, Optional,
                    Protocol, Tuple)

from .engine import Simulator
from .packet import HEADER_BYTES, Segment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .trace import TraceCollector

__all__ = ["WireCompressor", "Link", "NetworkEnvironment", "ENVIRONMENTS",
           "LAN", "WAN", "PPP", "WAN_LOSSY", "WAN_DROPTAIL"]

#: Shared serialization-queue keys used when :attr:`Link.bottleneck_host`
#: is set.  Traffic *from* the bottleneck host (the server's downlink)
#: shares one FIFO queue; traffic *toward* it shares the other.  The
#: sentinel host name cannot collide with a real attached host because
#: the tuples carry a direction marker no (src, dst) pair produces.
_SHARED_DOWN: Tuple[str, str] = ("<bottleneck>", "down")
_SHARED_UP: Tuple[str, str] = ("<bottleneck>", "up")


class WireCompressor(Protocol):
    """Compresses the byte stream of one link direction (modem-style).

    Implementations are stateful: the dictionary built on earlier packets
    affects later ones, as in V.42bis.  They return the number of bytes
    that actually occupy the wire for a given payload.
    """

    def wire_bytes(self, payload: bytes) -> int:
        """Return the on-the-wire size of ``payload`` after compression."""
        ...  # pragma: no cover - protocol definition


class Link:
    """A full-duplex point-to-point link between two named hosts.

    Parameters
    ----------
    sim:
        The simulator supplying the clock.
    bandwidth_bps:
        Raw line rate in bits per second (per direction).
    propagation_delay:
        One-way propagation delay in seconds.
    bits_per_byte:
        Effective line bits per payload byte: 8 for synchronous links,
        ~8.3 for PPP over V.42 LAPM (HDLC framing between the modems),
        10 for raw async start/stop framing.
    jitter:
        Fractional uniform jitter applied to each segment's transmission
        time, e.g. 0.02 ⇒ ±2 %.  Drawn from the link's own
        ``random.Random(seed)`` stream (:attr:`rng`), so runs with the
        same seed are reproducible.  Models the run-to-run variation
        the paper averaged over five runs.
    """

    def __init__(self, sim: Simulator, bandwidth_bps: float,
                 propagation_delay: float, *, bits_per_byte: float = 8,
                 jitter: float = 0.0, loss_rate: float = 0.0,
                 queue_limit_packets: Optional[int] = None,
                 seed: int = 0) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if propagation_delay < 0:
            raise ValueError("propagation delay cannot be negative")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        self.sim = sim
        self.bandwidth_bps = float(bandwidth_bps)
        self.propagation_delay = float(propagation_delay)
        self.bits_per_byte = bits_per_byte
        self.jitter = jitter
        #: Independent per-segment drop probability (congested paths;
        #: the paper's links were quiet, so the tables use 0).
        self.loss_rate = loss_rate
        #: Drop-tail bottleneck buffer in packets (None = unbounded).
        #: A finite buffer makes congestion *self-induced*: senders that
        #: burst (HTTP/1.0's parallel connections in slow start) drop
        #: their own packets — the paper's "if these exchanges are too
        #: fast for the route ... they contribute to Internet
        #: congestion".
        self.queue_limit_packets = queue_limit_packets
        self.rng = random.Random(seed)
        self._queued: Dict[Tuple[str, str], int] = {}
        # Per-direction state, keyed by (src, dst).
        self._next_free: Dict[Tuple[str, str], float] = {}
        self._compressors: Dict[Tuple[str, str], WireCompressor] = {}
        self._receivers: Dict[str, Callable[[Segment], None]] = {}
        #: The link's one observer: the trace collector recording each
        #: segment at *send* time (it installs itself; None = untraced).
        self.collector: Optional["TraceCollector"] = None
        #: Drops by the random / injected loss process (loss-shim tests
        #: count theirs here too).
        self.dropped_loss = 0
        #: Drops by drop-tail queue overflow; the two sum to all drops.
        self.dropped_overflow = 0
        #: Optional :class:`~repro.faults.FaultInjector` (duck-typed:
        #: anything with ``handle(segment, deliver_at, receiver)``).
        #: When set it takes over delivery scheduling after the
        #: serialization/loss model has run, so it can drop, corrupt,
        #: duplicate or delay the segment.  ``None`` (the default) is
        #: the zero-cost path.
        self.fault_injector = None
        #: When set to an attached host name, every direction *from*
        #: that host shares one serialization queue and every direction
        #: *toward* it shares the other: N clients behind one bottleneck
        #: contend FIFO for the same line instead of each getting a
        #: private full-rate pipe.  ``None`` (the default) keeps the
        #: point-to-point per-(src, dst) queues of the two-host model.
        self.bottleneck_host: Optional[str] = None
        # Per-epoch capacity schedule (the fleet engine's fixed-point
        # shares).  None is the zero-cost constant-bandwidth path.
        self._capacity_epoch = 0.0
        self._capacity_shares: Optional[Tuple[float, ...]] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, host: str, receiver: Callable[[Segment], None]) -> None:
        """Register ``receiver`` to be called for segments addressed to ``host``."""
        if host in self._receivers:
            raise ValueError(f"host {host!r} already attached")
        self._receivers[host] = receiver

    def close(self) -> None:
        """Detach every host, the collector and the fault injector."""
        self._receivers.clear()
        self.collector = None
        self.fault_injector = None

    def set_compressor(self, src: str, dst: str,
                       compressor: WireCompressor) -> None:
        """Install a modem-style stream compressor on the ``src → dst`` direction."""
        self._compressors[(src, dst)] = compressor

    def direction_key(self, src: str, dst: str) -> Tuple[str, str]:
        """Serialization-queue key for the ``src → dst`` direction.

        Point-to-point links key by the exact ``(src, dst)`` pair.  With
        :attr:`bottleneck_host` set, all flows collapse onto two shared
        queues (down = away from the bottleneck host, up = toward it), so
        concurrent clients serialize FIFO behind each other.  Compressor
        lookups keep the raw pair: each client's modem owns its own
        dictionary.
        """
        bottleneck = self.bottleneck_host
        if bottleneck is None:
            return (src, dst)
        return _SHARED_DOWN if src == bottleneck else _SHARED_UP

    def set_capacity_schedule(self, epoch: float,
                              shares: "Tuple[float, ...]") -> None:
        """Install a stepwise bandwidth schedule (fleet capacity shares).

        ``shares[i]`` is the line rate in bits/second during simulated
        time ``[i*epoch, (i+1)*epoch)``; the last entry extends forever.
        The rate in effect is sampled at *transmit initiation* time
        (``sim.now``), never mid-serialization, which keeps the model
        simple and lets the fast-forward driver cache one rate per span.
        """
        if epoch <= 0:
            raise ValueError("capacity epoch must be positive")
        shares = tuple(float(s) for s in shares)
        if not shares or any(s <= 0 for s in shares):
            raise ValueError("capacity shares must be positive")
        self._capacity_epoch = float(epoch)
        self._capacity_shares = shares

    def bandwidth_at(self, t: float) -> float:
        """Line rate in effect for a transmission initiated at time ``t``."""
        shares = self._capacity_shares
        if shares is None:
            return self.bandwidth_bps
        index = int(t / self._capacity_epoch)
        return shares[index] if index < len(shares) else shares[-1]

    def next_capacity_change(self, t: float) -> float:
        """First epoch boundary after ``t`` where the rate may step."""
        shares = self._capacity_shares
        if shares is None:
            return float("inf")
        index = int(t / self._capacity_epoch) + 1
        if index >= len(shares):
            return float("inf")
        return index * self._capacity_epoch

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(self, segment: Segment) -> None:
        """Queue ``segment`` for delivery to its destination host.

        Segments in the same direction serialize FIFO at the line rate;
        opposite directions are independent (full duplex).  The
        receiver is scheduled directly, at the stamped ``delivered_at``.
        """
        receiver = self._receivers.get(segment.dst)
        if receiver is None:
            raise ValueError(f"no host {segment.dst!r} attached to link")
        now = self.sim.now
        collector = self.collector
        if collector is not None:
            collector.capture(segment, now)
        pair = (segment.src, segment.dst)
        bottleneck = self.bottleneck_host
        direction = pair if bottleneck is None else (
            _SHARED_DOWN if segment.src == bottleneck else _SHARED_UP)
        compressor = self._compressors.get(pair)
        if compressor is not None:
            wire_bytes = HEADER_BYTES + compressor.wire_bytes(segment.payload)
        else:
            wire_bytes = segment.wire_size
        shares = self._capacity_shares
        bandwidth = (self.bandwidth_bps if shares is None else shares[
            min(int(now / self._capacity_epoch), len(shares) - 1)])
        tx_time = wire_bytes * self.bits_per_byte / bandwidth
        if self.jitter:
            tx_time *= 1.0 + self.rng.uniform(-self.jitter, self.jitter)
        if self.queue_limit_packets is not None:
            if self._queued.get(direction, 0) >= self.queue_limit_packets:
                # Drop-tail: the bottleneck buffer is full.
                self.dropped_overflow += 1
                return
            self._queued[direction] = self._queued.get(direction, 0) + 1
        free = self._next_free.get(direction, 0.0)
        finish = (free if free > now else now) + tx_time
        self._next_free[direction] = finish
        if self.queue_limit_packets is not None:
            # The buffer slot frees once serialization finishes.
            self.sim.schedule_at(finish, self._dequeue, direction)
        if self.loss_rate and self.rng.random() < self.loss_rate:
            # The segment occupied the wire but never arrives.
            self.dropped_loss += 1
            return
        deliver_at = finish + self.propagation_delay
        if self.fault_injector is not None:
            # The injector owns delivery from here: it may drop the
            # segment, corrupt a copy, schedule it twice, or push its
            # arrival later (bounded reordering).
            self.fault_injector.handle(segment, deliver_at, receiver)
            return
        segment.delivered_at = deliver_at
        self.sim.schedule_at(deliver_at, receiver, segment)

    def _dequeue(self, direction: Tuple[str, str]) -> None:
        self._queued[direction] = max(0, self._queued.get(direction, 1)
                                      - 1)


@dataclasses.dataclass(frozen=True)
class NetworkEnvironment:
    """One row of the paper's Table 1, plus modelling constants.

    ``bandwidth_bps`` for the WAN is the effective bottleneck rate of the
    1997 MIT→LBL path (the paper never states it; a T1-class 1.5 Mbit/s
    bottleneck reproduces the observed transfer times).
    """

    #: Maximum segment size on every path: a 1500-byte MTU (PPP's
    #: default MRU included).
    mss: ClassVar[int] = 1460

    name: str
    description: str
    bandwidth_bps: float
    rtt: float
    bits_per_byte: float = 8
    #: Whether the modem applies V.42bis-style stream compression.
    modem_compression: bool = False
    #: :class:`Link`'s parameters of the same names.  The paper's three
    #: paths were quiet and unbounded; the congested-path ablations run
    #: on the registered variants :data:`WAN_LOSSY` / :data:`WAN_DROPTAIL`.
    loss_rate: float = 0.0
    queue_limit_packets: Optional[int] = None

    @property
    def one_way_delay(self) -> float:
        """One-way propagation delay (half the RTT)."""
        return self.rtt / 2.0

    def make_link(self, sim: Simulator, *, jitter: float = 0.0,
                  seed: int = 0) -> Link:
        """Instantiate a :class:`Link` for this environment."""
        return Link(sim, self.bandwidth_bps, self.one_way_delay,
                    bits_per_byte=self.bits_per_byte, jitter=jitter,
                    loss_rate=self.loss_rate,
                    queue_limit_packets=self.queue_limit_packets,
                    seed=seed)


#: High bandwidth, low latency: 10 Mbit Ethernet, RTT < 1 ms.
LAN = NetworkEnvironment(
    name="LAN",
    description="High bandwidth, low latency - 10 Mbit Ethernet",
    bandwidth_bps=10_000_000.0,
    rtt=0.0008,
)

#: High bandwidth, high latency: transcontinental Internet, RTT ~ 90 ms.
#: The effective bottleneck rate of the quiet 1997 MIT→LBL path is not
#: stated in the paper; 1.0 Mbit/s reproduces its observed transfer
#: times.
WAN = NetworkEnvironment(
    name="WAN",
    description="High bandwidth, high latency - MA (MIT/LCS) to CA (LBL)",
    bandwidth_bps=1_000_000.0,
    rtt=0.090,
)

#: The congested-path ablations' WANs (2 % loss; a 10-packet drop-tail
#: buffer), named for specs.  Not Table 1 rows, so not in ENVIRONMENTS.
WAN_LOSSY = dataclasses.replace(WAN, name="WAN-LOSSY", loss_rate=0.02)
WAN_DROPTAIL = dataclasses.replace(WAN, name="WAN-DROPTAIL",
                                   queue_limit_packets=10)

#: Low bandwidth, high latency: 28.8k dialup PPP, RTT ~ 150 ms.
#: The modem pair runs V.42 LAPM (synchronous HDLC, ~8.3 line bits per
#: payload byte including framing) with V.42bis data compression, as on
#: real 1997 dialup hardware.
PPP = NetworkEnvironment(
    name="PPP",
    description="Low bandwidth, high latency - 28.8k modem via PPP",
    bandwidth_bps=28_800.0,
    rtt=0.150,
    bits_per_byte=8.3,
    modem_compression=True,
)

#: Lookup table for the three environments of Table 1.
ENVIRONMENTS: Dict[str, NetworkEnvironment] = {
    env.name: env for env in (LAN, WAN, PPP)
}
