"""Simulated TCP endpoints.

This module implements the TCP mechanisms the paper's results hinge on:

* the **three-way handshake** and the per-connection open/close control
  packets whose cost HTTP/1.0 pays 43 times per page,
* **slow start** ([Jacobson 88]): a new connection probes the path with a
  small congestion window, so short HTTP/1.0 transfers finish before TCP
  ever reaches the path's capacity,
* **delayed acknowledgements** (up to 200 ms, or every second segment),
  whose interaction with application buffering the paper analyses in
  "Why Compression is Important",
* the **Nagle algorithm** [RFC 896] and the ``TCP_NODELAY`` escape hatch —
  the paper recommends that buffering HTTP/1.1 implementations disable
  Nagle, confirming Heidemann's findings,
* **independent half-close**: the paper's "Connection Management" section
  shows that a server which closes both directions at once destroys
  pipelined responses with a RST; servers must close each half
  independently.

The paper's traces were taken on quiet links, but the simulator still
implements full loss recovery so congested-path behaviour can be
studied (the ``lossy-wan`` and ``drop-tail-bottleneck`` claims): a
retransmission queue with an adaptive RTO (Jacobson srtt/rttvar, Karn's
rule, exponential backoff), duplicate-ACK generation with out-of-order
reassembly on the receiver, fast retransmit on three duplicate ACKs,
and the standard cwnd/ssthresh reactions (multiplicative decrease;
slow-start restart after a timeout).

Sequence numbers start at zero per connection, payloads are real bytes,
and SYN/FIN each consume one sequence number, exactly as in RFC 793.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import Callable, Dict, List, Optional, Tuple

from .engine import Simulator
from .link import Link
from .packet import Segment

__all__ = ["TcpConfig", "TcpConnection", "TcpListener", "TcpStack",
           "TcpError"]

#: Initial slow-start threshold in bytes.
INITIAL_SSTHRESH = 65535
#: Receive window every endpoint advertises (bytes).  Applications
#: consume data as it arrives, so the window never shrinks; it still
#: caps the sender's flight once the congestion window outgrows it.
RWND = 65535
#: Retransmission-timeout bounds (BSD used a 500 ms slow-tick clock with
#: a 1 s floor).
RTO_MIN = 1.0
RTO_MAX = 64.0
#: Duplicate ACKs that trigger a fast retransmit.
DUPACK_THRESHOLD = 3
#: Acknowledge immediately once this many segments are unacknowledged.
DELACK_SEGMENTS = 2


class _LazyTimer:
    """A deadline-based timer built around one standing engine event.

    The schedule/cancel churn of TCP's timers used to dominate heap
    traffic: the RTO timer in particular was cancelled and rescheduled
    on *every* ACK that advanced ``snd_una``.  A lazy timer stores the
    logical :attr:`deadline` separately from its standing heap entry
    (an engine ``[time, seq, callback, args]`` list; ``standing[0]``):

    * re-arming to a **later** deadline is a plain attribute write —
      when the standing event fires it re-checks the deadline and
      chases it with one reschedule instead of the old
      cancel-per-update,
    * re-arming to an **earlier** deadline or disarming cancels the
      standing event (an O(1) :meth:`Simulator.cancel`; the engine
      discards it silently, without advancing the clock),
    * the timer callback runs only when the stored deadline is really
      due, so observable behaviour — fire times, segment ordering, the
      clock value the simulation quiesces at — is bit-identical to an
      eager timer.

    Every re-arm absorbed without touching the heap is counted as a
    ``cancels_avoided`` in the simulator's perf counters.
    """

    __slots__ = ("_sim", "_fire", "deadline", "_standing")

    def __init__(self, sim: Simulator,
                 fire: Callable[[], None]) -> None:
        self._sim = sim
        self._fire = fire
        #: When the timer should logically fire (None = disarmed).
        self.deadline: Optional[float] = None
        self._standing: Optional[list] = None

    def arm_at(self, deadline: float) -> None:
        """Arm (or move) the timer to fire at ``deadline``."""
        self.deadline = deadline
        standing = self._standing
        if standing is None:
            self._standing = self._sim.schedule_at(deadline,
                                                   self._on_event)
        elif deadline < standing[0]:
            self._sim.cancel(standing)
            self._standing = self._sim.schedule_at(deadline,
                                                   self._on_event)
        else:
            # Deadline unchanged or pushed later: the standing event
            # will chase it on fire.  This is the hot path.
            self._sim.perf.cancels_avoided += 1

    def disarm(self) -> None:
        """Clear the deadline and drop the standing event."""
        self.deadline = None
        if self._standing is not None:
            self._sim.cancel(self._standing)
            self._standing = None

    def _on_event(self) -> None:
        self._standing = None
        deadline = self.deadline
        if deadline is None:
            return
        now = self._sim.now
        if deadline > now:
            # The deadline moved later since this event was scheduled;
            # chase it (this replaces the old cancel+reschedule pair).
            self._standing = self._sim.schedule_at(deadline,
                                                   self._on_event)
            return
        self.deadline = None
        self._fire()

    def release(self) -> None:
        """Disarm for good and let go of the owner's callback."""
        self.disarm()
        self._fire = _noop

    def fast_forward(self, deadline: Optional[float]) -> None:
        """Force the timer to exactly ``deadline`` (``None`` disarms).

        Reconcile hook for the fast-forward driver: after a span the
        clock sits past the old standing event, so re-arming must drop
        the standing (which the driver extracted from the heap) and
        schedule a fresh one at the final logical deadline instead of
        letting ``arm_at`` absorb it as a re-arm-later.
        """
        standing = self._standing
        if standing is not None:
            self._sim.cancel(standing)
            self._standing = None
        self.deadline = deadline
        if deadline is not None:
            self._standing = self._sim.schedule_at(deadline,
                                                   self._on_event)


@dataclasses.dataclass
class TcpConfig:
    """Tunables of a simulated TCP stack.

    Defaults model a 1997 BSD-derived stack on an Ethernet path.

    Attributes
    ----------
    mss:
        Maximum segment size (Table 1 uses 1460 everywhere).
    initial_cwnd_segments:
        Initial congestion window in segments.  The paper notes "some TCP
        stacks implement slow start using one TCP segment whereas others
        implement it using two packets"; both are supported.
    delack_delay:
        Period of the delayed-ACK timer.  BSD-derived stacks run a
        *heartbeat* every 200 ms rather than a per-segment timeout, so a
        lone segment waits anywhere from 0 to 200 ms (100 ms on
        average) for its ACK, as on the paper's hosts.

    The receive window, slow-start threshold, RTO bounds,
    fast-retransmit trigger and immediate-ACK count are fixed module
    constants (:data:`RWND`, :data:`INITIAL_SSTHRESH`, :data:`RTO_MIN` /
    :data:`RTO_MAX`, :data:`DUPACK_THRESHOLD`, :data:`DELACK_SEGMENTS`).
    The receive window is large enough that the paper's page loads are
    congestion-window limited, as on its hosts.  Connections
    start with Nagle on; ``TCP_NODELAY`` is per connection
    (:meth:`TcpConnection.set_nodelay`).
    """

    mss: int = 1460
    initial_cwnd_segments: int = 2
    delack_delay: float = 0.200


class TcpError(RuntimeError):
    """Raised on invalid operations against a connection."""


class TcpConnection:
    """One endpoint of a simulated TCP connection.

    Applications interact through:

    * :meth:`send` — queue bytes for transmission (optionally closing
      the send side atomically so the FIN rides the last segment),
    * :meth:`close` — close the *send* side (half-close; receiving
      continues),
    * :meth:`shutdown_receive` — additionally stop receiving, modelling
      the naive simultaneous close the paper warns against,
    * :meth:`abort` — send a RST,
    * callbacks assigned by the application::

        conn.on_connect = lambda conn: ...
        conn.on_data    = lambda conn, data: ...
        conn.on_eof     = lambda conn: ...      # peer sent FIN
        conn.on_reset   = lambda conn: ...      # connection was reset
        conn.on_closed  = lambda conn: ...      # both halves closed cleanly

    The full RFC 793 state machine (minus retransmission states) is kept
    in :attr:`state` and is observable by tests.
    """

    __slots__ = (
        "stack", "sim", "local_host", "local_port", "peer", "peer_port",
        "config", "state",
        "snd_una", "snd_nxt", "_send_queue", "_fin_queued", "_fin_sent",
        "_syn_acked",
        "rcv_nxt", "_fin_received", "_receive_shutdown", "_reassembly",
        "cwnd", "ssthresh",
        "_retransmit_queue", "_rto_timer", "_srtt", "_rttvar",
        "_rto_backoff", "_dup_acks", "_rtt_sample", "_in_recovery",
        "_recovery_point", "retransmissions", "timeouts",
        "fast_retransmits",
        "_segments_unacked", "_delack_timer",
        "_ff_unprofitable",
        "nodelay",
        "bytes_received",
        "on_connect", "on_data", "on_eof", "on_reset", "on_closed",
        "__weakref__",
    )

    def __init__(self, stack: "TcpStack", local_port: int, peer: str,
                 peer_port: int, config: TcpConfig) -> None:
        self.stack = stack
        self.sim = stack.sim
        self.local_host = stack.host
        self.local_port = local_port
        self.peer = peer
        self.peer_port = peer_port
        self.config = config
        self.state = "CLOSED"

        # Send sequence state (relative ISNs: always 0).
        self.snd_una = 0          # oldest unacknowledged sequence number
        self.snd_nxt = 0          # next sequence number to send
        self._send_queue = bytearray()
        self._fin_queued = False
        self._fin_sent = False
        self._syn_acked = False

        # Receive sequence state.
        self.rcv_nxt = 0
        self._fin_received = False
        self._receive_shutdown = False
        #: Out-of-order segments awaiting reassembly, keyed by seq.
        self._reassembly: Dict[int, Segment] = {}

        # Congestion control.
        self.cwnd = config.initial_cwnd_segments * config.mss
        self.ssthresh = INITIAL_SSTHRESH

        # Loss recovery.
        self._retransmit_queue: List[Segment] = []
        self._rto_timer = _LazyTimer(self.sim, self._rto_fire)
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._rto_backoff = 1
        self._dup_acks = 0
        self._rtt_sample: Optional[Tuple[int, float]] = None
        # NewReno fast recovery: retransmit on partial ACKs until the
        # whole pre-loss window is acknowledged.
        self._in_recovery = False
        self._recovery_point = 0
        #: Loss-recovery statistics.
        self.retransmissions = 0
        self.timeouts = 0
        self.fast_retransmits = 0

        # Delayed-ACK machinery.
        self._segments_unacked = 0
        self._delack_timer = _LazyTimer(self.sim, self._delack_fire)

        # Fast-forward profitability veto: set by the driver when a
        # span on this connection synthesized too little to pay for
        # its heap surgery (request/response traffic whose callbacks
        # break every span early).  Vetoed connections run per-segment
        # for the rest of their life.
        self._ff_unprofitable = False

        # Socket options.
        self.nodelay = False

        # Payload bytes delivered to the application.
        self.bytes_received = 0

        # Application callbacks.
        self.on_connect: Callable[["TcpConnection"], None] = _noop
        self.on_data: Callable[["TcpConnection", bytes], None] = _noop
        self.on_eof: Callable[["TcpConnection"], None] = _noop
        self.on_reset: Callable[["TcpConnection"], None] = _noop
        self.on_closed: Callable[["TcpConnection"], None] = _noop

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def set_nodelay(self, enabled: bool = True) -> None:
        """Set ``TCP_NODELAY`` (True disables the Nagle algorithm)."""
        self.nodelay = enabled

    def send(self, data: bytes, close: bool = False) -> None:
        """Queue application ``data`` for transmission.

        May be called before the handshake completes (data is sent once
        the connection is established) but not after :meth:`close`.
        ``close=True`` half-closes atomically with the write, letting
        the FIN ride on the final data segment — one packet saved per
        connection, which HTTP/1.0's 43 connections notice.
        """
        if self._fin_queued:
            raise TcpError("send after close")
        if self.state in ("CLOSED", "TIME_WAIT", "LAST_ACK", "CLOSING"):
            raise TcpError(f"send in state {self.state}")
        if not data:
            if close:
                self.close()
            return
        self._send_queue.extend(data)
        if close:
            self._fin_queued = True
        self._try_send()

    def close(self) -> None:
        """Close the send side (half-close).  Receiving continues.

        Queued data is transmitted first, then a FIN.  This is the
        correct way for an HTTP/1.1 server to end a pipelined
        connection — the client's in-flight requests keep getting ACKed
        instead of triggering a RST.
        """
        if self._fin_queued:
            return
        if self.state == "CLOSED":
            return
        self._fin_queued = True
        self._try_send()

    def shutdown_receive(self) -> None:
        """Stop accepting incoming data: further data triggers a RST.

        Together with :meth:`close` this models the naive "close both
        halves at once" behaviour the paper's Connection Management
        section shows corrupting pipelined exchanges.
        """
        self._receive_shutdown = True

    def abort(self) -> None:
        """Send a RST and drop the connection immediately."""
        if self.state == "CLOSED":
            return
        self._emit_unreliable(Segment(
            self.local_host, self.local_port, self.peer, self.peer_port,
            seq=self.snd_nxt, ack=self.rcv_nxt, flag_rst=True,
            flag_ack=True))
        self._teardown()

    @property
    def in_flight(self) -> int:
        """Bytes (of sequence space) sent but not yet acknowledged."""
        return self.snd_nxt - self.snd_una

    # ------------------------------------------------------------------
    # Connection setup
    # ------------------------------------------------------------------
    def _connect(self) -> None:
        """Initiate the active open (called by :meth:`TcpStack.connect`)."""
        self.state = "SYN_SENT"
        self._emit_reliable(Segment(
            self.local_host, self.local_port, self.peer, self.peer_port,
            seq=self.snd_nxt, flag_syn=True))
        self.snd_nxt += 1

    def _passive_open(self, syn: Segment) -> None:
        """Complete a passive open from a received SYN."""
        self.rcv_nxt = syn.seq + 1
        self.state = "SYN_RCVD"
        self._emit_reliable(Segment(
            self.local_host, self.local_port, self.peer, self.peer_port,
            seq=self.snd_nxt, ack=self.rcv_nxt, flag_syn=True,
            flag_ack=True))
        self.snd_nxt += 1

    # ------------------------------------------------------------------
    # Segment transmission and loss recovery
    # ------------------------------------------------------------------
    def _emit_unreliable(self, segment: Segment) -> None:
        """Transmit without retransmission state (ACKs, RSTs)."""
        self.sim.perf.segments += 1
        self.stack.link.transmit(segment)

    def _emit_reliable(self, segment: Segment) -> None:
        """Transmit, remember for retransmission and arm the RTO."""
        self._retransmit_queue.append(segment)
        if self._rtt_sample is None:
            self._rtt_sample = (segment.end_seq, self.sim.now)
        self.sim.perf.segments += 1
        self.stack.link.transmit(segment)
        rto_timer = self._rto_timer
        if rto_timer.deadline is None:
            rto_timer.arm_at(self.sim.now + self._current_rto())

    def _current_rto(self) -> float:
        if self._srtt is None:
            base = 3.0          # RFC 6298 initial RTO
        else:
            base = self._srtt + 4 * self._rttvar
        rto = max(RTO_MIN, base) * self._rto_backoff
        return min(RTO_MAX, rto)

    def _arm_rto(self) -> None:
        if self._retransmit_queue:
            self._rto_timer.arm_at(self.sim.now + self._current_rto())
        else:
            self._rto_timer.disarm()

    def _rto_fire(self) -> None:
        if not self._retransmit_queue or self.state == "CLOSED":
            return
        self.timeouts += 1
        self.stack.timeouts += 1
        # Multiplicative decrease and slow-start restart.
        flight = max(self.in_flight, self.config.mss)
        self.ssthresh = max(flight // 2, 2 * self.config.mss)
        self.cwnd = self.config.mss
        self._in_recovery = False
        self._rto_backoff = min(self._rto_backoff * 2, 64)
        self._rtt_sample = None          # Karn's rule
        self._retransmit_first()
        self._arm_rto()

    def _retransmit_first(self) -> None:
        segment = self._retransmit_queue[0]
        self.retransmissions += 1
        self.stack.retransmissions += 1
        self._rtt_sample = None          # Karn's rule
        copy = segment.replace(
            ack=self.rcv_nxt,
            flag_ack=segment.flag_ack or self.rcv_nxt > 0)
        self._emit_unreliable(copy)

    def _update_rtt(self, sample: float) -> None:
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2
        else:
            delta = sample - self._srtt
            self._srtt += 0.125 * delta
            self._rttvar += 0.25 * (abs(delta) - self._rttvar)

    # ------------------------------------------------------------------
    # Sending data
    # ------------------------------------------------------------------
    def _send_pure_ack(self) -> None:
        # The ACK goes now: disarm the delayed ACK, inline.
        self._segments_unacked = 0
        delack = self._delack_timer
        delack.deadline = None
        if delack._standing is not None:
            self.sim.cancel(delack._standing)
            delack._standing = None
        self.sim.perf.segments += 1
        self.stack.link.transmit(Segment(
            self.local_host, self.local_port, self.peer, self.peer_port,
            seq=self.snd_nxt, ack=self.rcv_nxt, flag_ack=True))

    def _delack_fire(self) -> None:
        if self._segments_unacked > 0:
            self._send_pure_ack()

    def _try_send(self) -> None:
        """Transmit as much queued data as the window and Nagle permit."""
        if self.state not in ("ESTABLISHED", "CLOSE_WAIT", "FIN_WAIT_1",
                              "CLOSING", "LAST_ACK"):
            # Handshake not finished (data stays queued) or fully closed.
            return
        mss = self.config.mss
        queue = self._send_queue
        delack = self._delack_timer
        while queue:
            window = min(self.cwnd, RWND)
            in_flight = self.snd_nxt - self.snd_una
            available = window - in_flight
            if available <= 0:
                # Window-limited with a deep queue: flag the steady
                # bulk-transfer candidate for the fast-forward driver
                # (checked by the engine between events).
                ff = self.stack.fastforward
                if ff is not None and len(queue) >= ff.min_queue_bytes:
                    ff.note_candidate(self)
                return
            chunk = min(len(queue), mss, available)
            if chunk < mss and chunk < len(queue) and in_flight > 0:
                # Window fragment; wait for it to open rather than send
                # a sliver (sender-side silly window avoidance).  Same
                # steady window-limited regime as `available <= 0` when
                # the window is not a segment multiple — also a
                # fast-forward candidate.
                ff = self.stack.fastforward
                if ff is not None and len(queue) >= ff.min_queue_bytes:
                    ff.note_candidate(self)
                return
            if chunk < mss and in_flight > 0 and not self.nodelay:
                # Nagle: a small segment must wait while data is unACKed.
                return
            payload = bytes(queue[:chunk])
            del queue[:chunk]
            last_chunk = not queue
            fin_here = (last_chunk and self._fin_queued
                        and not self._fin_sent
                        and in_flight + chunk + 1 <= window)
            segment = Segment(self.local_host, self.local_port, self.peer,
                              self.peer_port, seq=self.snd_nxt,
                              ack=self.rcv_nxt, payload=payload,
                              flag_ack=True, flag_psh=last_chunk,
                              flag_fin=fin_here)
            self.snd_nxt += chunk
            if fin_here:
                self.snd_nxt += 1
                self._fin_sent = True
                self._advance_close_state_after_fin()
            # The ACK rides along: disarm the delayed ACK, inline.
            self._segments_unacked = 0
            delack.deadline = None
            if delack._standing is not None:
                self.sim.cancel(delack._standing)
                delack._standing = None
            self._emit_reliable(segment)
        if self._fin_queued and not self._fin_sent and not queue:
            self._emit_reliable(Segment(
                self.local_host, self.local_port, self.peer,
                self.peer_port, seq=self.snd_nxt, ack=self.rcv_nxt,
                flag_ack=True, flag_fin=True))
            self.snd_nxt += 1
            self._fin_sent = True
            delack.disarm()
            self._segments_unacked = 0
            self._advance_close_state_after_fin()

    def _advance_close_state_after_fin(self) -> None:
        if self.state == "ESTABLISHED":
            self.state = "FIN_WAIT_1"
        elif self.state == "CLOSE_WAIT":
            self.state = "LAST_ACK"

    # ------------------------------------------------------------------
    # Segment reception
    # ------------------------------------------------------------------
    def _receive(self, segment: Segment) -> None:
        if segment.flag_rst:
            self._handle_rst()
            return
        if self.state == "SYN_SENT":
            self._handle_syn_sent(segment)
            return
        if self.state == "SYN_RCVD" and segment.flag_ack \
                and segment.ack >= 1:
            self.state = "ESTABLISHED"
            self.on_connect(self)
            # Fall through: the ACK may carry data.
        if self._receive_shutdown and segment.payload_len:
            # Data for a receive-closed socket: reset, as real stacks do.
            self._emit_unreliable(Segment(
                self.local_host, self.local_port, self.peer,
                self.peer_port, seq=self.snd_nxt, ack=self.rcv_nxt,
                flag_rst=True, flag_ack=True))
            self._teardown()
            return
        if segment.flag_ack:
            self._handle_ack(segment)
        if self.state == "CLOSED":
            return
        delivered, fin_ready = self._ingest(segment)
        if fin_ready:
            self._handle_fin()
        elif delivered:
            self._schedule_ack()

    def _handle_syn_sent(self, segment: Segment) -> None:
        if not (segment.flag_syn and segment.flag_ack):
            return
        self.rcv_nxt = segment.seq + 1
        self._handle_ack(segment)
        self.state = "ESTABLISHED"
        self._send_pure_ack()
        self.on_connect(self)
        self._try_send()

    def _handle_ack(self, segment: Segment) -> None:
        ack = segment.ack
        if ack > self.snd_una:
            if self._rtt_sample is not None \
                    and ack >= self._rtt_sample[0]:
                self._update_rtt(self.sim.now - self._rtt_sample[1])
                self._rtt_sample = None
            self._rto_backoff = 1
            self._dup_acks = 0
            self.snd_una = ack
            while (self._retransmit_queue
                   and self._retransmit_queue[0].end_seq <= ack):
                self._retransmit_queue.pop(0)
            self._arm_rto()
            if self._in_recovery:
                if ack >= self._recovery_point:
                    self._in_recovery = False
                else:
                    # NewReno partial ACK: the next segment after the
                    # hole is also lost — retransmit it now instead of
                    # waiting out a full RTO per additional loss.
                    if self._retransmit_queue:
                        self._retransmit_first()
                    self._try_send()
                    return
            if not self._syn_acked:
                # The ACK of our SYN completes the handshake; it does
                # not clock the congestion window (cwnd starts at its
                # initial value when the connection is ESTABLISHED).
                self._syn_acked = True
            elif self.cwnd < self.ssthresh:
                # Slow start: one extra segment per ACK received.
                self.cwnd += self.config.mss
            else:
                # Congestion avoidance: ~one extra segment per RTT.
                self.cwnd += max(1, self.config.mss * self.config.mss
                                 // self.cwnd)
            if self._fin_sent and self.snd_una == self.snd_nxt:
                if self.state == "FIN_WAIT_1":
                    self.state = "FIN_WAIT_2"
                elif self.state in ("LAST_ACK", "CLOSING"):
                    self._finish_clean_close()
                    return
            self._try_send()
            return
        # Duplicate ACK: no payload, no flags, data outstanding.
        if (ack == self.snd_una and self.in_flight > 0
                and not segment.payload_len and not segment.flag_syn
                and not segment.flag_fin):
            self._dup_acks += 1
            if self._dup_acks == DUPACK_THRESHOLD \
                    and not self._in_recovery:
                self.fast_retransmits += 1
                self.stack.fast_retransmits += 1
                flight = max(self.in_flight, self.config.mss)
                self.ssthresh = max(flight // 2, 2 * self.config.mss)
                self.cwnd = self.ssthresh
                self._in_recovery = True
                self._recovery_point = self.snd_nxt
                self._retransmit_first()
                self._arm_rto()

    # ------------------------------------------------------------------
    # Receiving data (with out-of-order reassembly)
    # ------------------------------------------------------------------
    def _ingest(self, segment: Segment) -> Tuple[bool, bool]:
        """Process payload/FIN; returns (delivered_data, fin_in_order)."""
        if not segment.payload_len and not segment.flag_fin:
            return False, False
        if segment.end_seq <= self.rcv_nxt:
            # Entirely old data (a retransmission we already have):
            # re-ACK immediately so the peer can advance.
            self._send_pure_ack()
            return False, False
        if segment.seq > self.rcv_nxt:
            # A gap: buffer for reassembly, send an immediate duplicate
            # ACK to trigger the peer's fast retransmit.
            self._reassembly.setdefault(segment.seq, segment)
            self._send_pure_ack()
            return False, False
        delivered = False
        fin_ready = self._absorb(segment)
        if segment.payload_len:
            delivered = True
        # Drain any now-contiguous buffered segments.
        while self._reassembly:
            nxt = self._reassembly.pop(self.rcv_nxt, None)
            if nxt is None:
                break
            fin_ready = self._absorb(nxt) or fin_ready
            if nxt.payload_len:
                delivered = True
        return delivered, fin_ready

    def _absorb(self, segment: Segment) -> bool:
        """Deliver an in-order (possibly overlapping) segment's payload;
        returns True when its FIN became in-order."""
        payload = segment.payload
        if segment.seq < self.rcv_nxt:
            payload = payload[self.rcv_nxt - segment.seq:]
        if payload:
            self.rcv_nxt += len(payload)
            self.bytes_received += len(payload)
            self._segments_unacked += 1
            self.on_data(self, payload)
        if segment.flag_fin and not self._fin_received \
                and segment.end_seq - 1 == self.rcv_nxt:
            self.rcv_nxt += 1
            self._fin_received = True
            return True
        return False

    def _schedule_ack(self) -> None:
        """Apply the delayed-ACK policy after delivering data."""
        if self._segments_unacked == 0:
            return
        if self._segments_unacked >= DELACK_SEGMENTS:
            self._send_pure_ack()
        elif self._delack_timer.deadline is None:
            # BSD fast-timer: fire at the next multiple of the period
            # (0..period from now, 100 ms average at 200 ms).
            period = self.config.delack_delay
            self._delack_timer.arm_at(
                (int(self.sim.now / period) + 1) * period)

    def _handle_fin(self) -> None:
        # FINs are acknowledged immediately (BSD behaviour) so the peer's
        # close completes without waiting on the delayed-ACK timer.
        self._send_pure_ack()
        self.on_eof(self)
        if self.state == "ESTABLISHED":
            self.state = "CLOSE_WAIT"
        elif self.state == "FIN_WAIT_2":
            self._finish_clean_close()
        elif self.state == "FIN_WAIT_1":
            # Simultaneous close.
            self.state = "CLOSING"

    def _handle_rst(self) -> None:
        on_reset = self.on_reset
        self._teardown()
        on_reset(self)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def _finish_clean_close(self) -> None:
        on_closed = self.on_closed
        self._teardown()
        on_closed(self)

    def _teardown(self) -> None:
        """The single exit.  Once the stack forgets the connection no
        segment can reach it, so it lets go of its timers and of the
        application — the bound methods that would make a dead
        connection cyclic garbage — and reference counts free it."""
        self.state = "CLOSED"
        self._segments_unacked = 0
        self._delack_timer.release()
        self._rto_timer.release()
        self._retransmit_queue.clear()
        self._reassembly.clear()
        self._send_queue.clear()
        self.stack._forget(self)
        self.on_connect = self.on_data = self.on_eof = _noop
        self.on_reset = self.on_closed = _noop

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TcpConnection {self.local_host}:{self.local_port}->"
                f"{self.peer}:{self.peer_port} {self.state}>")


class TcpListener:
    """A passive socket: accepts incoming connections on a port.

    The ``on_accept`` callback receives the new :class:`TcpConnection`
    as soon as the SYN arrives, *before* the handshake completes, so the
    application can assign data callbacks without racing the first
    request segment.
    """

    __slots__ = ("stack", "port", "on_accept")

    def __init__(self, stack: "TcpStack", port: int,
                 on_accept: Callable[[TcpConnection], None]) -> None:
        self.stack = stack
        self.port = port
        self.on_accept = on_accept

    def close(self) -> None:
        """Stop accepting new connections."""
        self.stack._listeners.pop(self.port, None)


class TcpStack:
    """Per-host TCP: port allocation, demultiplexing, connection table."""

    __slots__ = ("sim", "host", "link", "config", "fastforward",
                 "_connections", "_listeners", "_next_ephemeral",
                 "total_connections", "checksum_drops", "retransmissions",
                 "timeouts", "fast_retransmits")

    EPHEMERAL_BASE = 32768

    def __init__(self, sim: Simulator, host: str, link: Link,
                 config: TcpConfig) -> None:
        self.sim = sim
        self.host = host
        self.link = link
        self.config = config
        #: Optional fast-forward driver (set by the network wiring when
        #: every endpoint's config allows the analytic fast path).
        self.fastforward = None
        self._connections: Dict[Tuple[int, str, int], TcpConnection] = {}
        self._listeners: Dict[int, TcpListener] = {}
        self._next_ephemeral = self.EPHEMERAL_BASE
        #: Total connections ever opened from/accepted by this stack.
        self.total_connections = 0
        #: Arriving segments discarded for a payload/checksum mismatch
        #: (only fault-injected segments carry a checksum at all).
        self.checksum_drops = 0
        #: Stack-wide loss-recovery totals.  Connections are forgotten
        #: from the table as they close, so per-connection counters are
        #: unreachable after a run; these survive it.
        self.retransmissions = 0
        self.timeouts = 0
        self.fast_retransmits = 0
        link.attach(host, self._receive)

    # ------------------------------------------------------------------
    def listen(self, port: int,
               on_accept: Callable[[TcpConnection], None]) -> TcpListener:
        """Open a passive socket on ``port``."""
        if port in self._listeners:
            raise TcpError(f"port {port} already listening")
        listener = TcpListener(self, port, on_accept)
        self._listeners[port] = listener
        return listener

    def connect(self, peer: str, peer_port: int,
                config: Optional[TcpConfig] = None) -> TcpConnection:
        """Actively open a connection to ``peer:peer_port``.

        Returns the connection immediately; assign callbacks to it, then
        run the simulator.  Data queued with :meth:`TcpConnection.send`
        before establishment flows once the handshake completes.
        """
        local_port = self._next_ephemeral
        self._next_ephemeral += 1
        conn = TcpConnection(self, local_port, peer, peer_port,
                             config or self.config)
        self._connections[(local_port, peer, peer_port)] = conn
        self.total_connections += 1
        conn._connect()
        return conn

    # ------------------------------------------------------------------
    def _receive(self, segment: Segment) -> None:
        if segment.checksum is not None \
                and zlib.crc32(segment.payload) != segment.checksum:
            # A corrupted segment: real stacks drop it on the bad
            # checksum and let the sender's loss recovery repair the
            # stream.  (``checksum is None`` — every segment outside
            # fault injection — skips the hash entirely.)
            self.checksum_drops += 1
            return
        key = (segment.dport, segment.src, segment.sport)
        conn = self._connections.get(key)
        if conn is not None:
            conn._receive(segment)
            return
        listener = self._listeners.get(segment.dport)
        if listener is not None and segment.flag_syn and not segment.flag_ack:
            conn = TcpConnection(self, segment.dport, segment.src,
                                 segment.sport, self.config)
            self._connections[key] = conn
            self.total_connections += 1
            listener.on_accept(conn)
            conn._passive_open(segment)
            return
        # Segment for a closed/unknown port: RST (unless it *is* a RST).
        if not segment.flag_rst:
            self.link.transmit(Segment(
                self.host, segment.dport, segment.src, segment.sport,
                seq=segment.ack, ack=segment.end_seq,
                flag_rst=True, flag_ack=True))

    def close(self) -> None:
        """Unplug the host: no listeners, no driver, and every
        connection still in the table torn down — told ``on_closed``,
        the one notice that asks nothing of an application but to let
        go of the connection."""
        self._listeners.clear()
        self.fastforward = None
        for conn in list(self._connections.values()):
            conn._finish_clean_close()

    def _forget(self, conn: TcpConnection) -> None:
        self._connections.pop(
            (conn.local_port, conn.peer, conn.peer_port), None)


def _noop(*_args: object) -> None:
    """Default connection callback: do nothing."""
