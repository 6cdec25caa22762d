"""The unit-end TCP protocol check: the trace replay every unit ends with.

The paper's hardest-won results are *implementation invariants* — the
three-way handshake paid per HTTP/1.0 connection, Nagle's interaction
with small writes, the 200 ms / 50 ms delayed-ACK heartbeats, and the
independent half-close that keeps a pipelined exchange from ending in a
RST.  The simulator implements all of them, but nothing *enforced* them:
a TCP regression would only surface if it happened to perturb a golden
WAN trace.  :class:`TraceValidator` closes that gap by replaying a
captured trace — one :data:`~repro.simnet.trace.Row` per segment —
through a per-flow state machine asserting:

* **handshake ordering** — a flow starts SYN, SYN+ACK (acking exactly
  the SYN), and carries no payload before the handshake completes;
* **sequence monotonicity** — a direction never sends sequence space it
  has not reached (retransmissions of old data are legal, gaps are not);
* **no ACK of unsent data** — an acknowledgement never exceeds the
  peer's highest transmitted sequence number;
* **no payload after FIN** — once a direction's FIN is on the wire, no
  new sequence space follows it;
* **Nagle compliance** — when the server runs with Nagle on, never
  two outstanding (unacknowledged) sub-MSS segments from it;
* **delayed-ACK deadlines** — data is acknowledged within the
  configured heartbeat (200 ms client / 50 ms server) plus a transit
  bound;
* **independent half-close** — every established direction closes with
  an acknowledged FIN, and a clean trace resets no flow that still had
  a FIN outstanding (a RST answering a retransmitted FIN after both
  FINs were acknowledged destroys no data).

:func:`validate_rows` is the one feed, and
:meth:`SanitizerConfig.for_run` the one configuration: every simulated
matrix unit replays its :class:`~repro.simnet.trace.TraceCollector`
columns (:meth:`~repro.simnet.trace.TraceCollector.rows`) through it
after the simulation drains, under the config derived from that unit's
own environment, stacks, server and transport
(:meth:`repro.core.runner.Testbed.check_trace`), and raises
:class:`InvariantViolationError` on a violation, which the matrix
engine quarantines as an ``invariant`` failure.  The committed golden
traces are checked the same way: their test re-runs each fixture's cell
checked and compares the bytes.  The per-mode connection-shape rules
and the MUX frame-stream check are declared with the transports, in
:mod:`repro.core.transport`.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from typing import (TYPE_CHECKING, Any, Deque, Dict, Iterable, List,
                    Optional, Tuple)

from .tcp import RWND
from .trace import Row

if TYPE_CHECKING:  # pragma: no cover - simnet never imports core
    from ..core.transport import ModeTraceRules

__all__ = ["SanitizerConfig", "Violation", "InvariantViolationError",
           "TraceValidator", "validate_rows"]


#: Slack for float timestamps in the delayed-ACK deadline check.
_EPSILON = 1e-6


class InvariantViolationError(AssertionError):
    """A checked unit's trace broke a protocol invariant."""


@dataclasses.dataclass(frozen=True)
class Violation:
    """One invariant violation, locatable in the trace."""

    time: float
    flow: str
    rule: str
    message: str

    def format(self) -> str:
        return f"t={self.time:.6f} {self.flow}: [{self.rule}] {self.message}"


@dataclasses.dataclass(frozen=True)
class SanitizerConfig:
    """Invariant parameters for one validation run, built by
    :meth:`for_run` from the run it checks.  The client always sets
    ``TCP_NODELAY`` (the paper's recommendation), so only the server's
    direction can be Nagle-enabled."""

    mss: int
    #: Delayed-ACK heartbeat period of the flow initiator (client).
    client_delack: float
    #: Delayed-ACK heartbeat period of the flow responder (server).
    server_delack: float
    #: Check the Nagle invariant on server->client traffic.
    nagle_server: bool
    #: Upper bound on send->arrival transit (propagation + worst-case
    #: serialization queueing) used by the delayed-ACK deadline check.
    transit_bound: float
    #: The trace was captured under a fault plan.  Lossy runs
    #: legitimately contain RSTs (server aborts, watchdog kills),
    #: connections torn down without a clean FIN exchange, and extra
    #: queueing from bursts and bounded reordering: RSTs are allowed,
    #: the teardown and mode-rule checks are skipped, and the
    #: delayed-ACK transit budget grows by 1.0 s.
    #: The sequence, handshake and Nagle invariants stay enforced.
    faulty: bool
    #: Protocol-mode shape constraints (connection/port counts); None
    #: disables them.
    mode_rules: Optional["ModeTraceRules"]

    @classmethod
    def for_run(cls, *, environment: Any, server_nodelay: bool,
                client_delack: float, server_delack: float,
                max_parallel: int, faulty: bool,
                mode_rules: Optional["ModeTraceRules"]
                ) -> "SanitizerConfig":
        """Derive a config from a live experiment's parameters.

        ``environment`` is a
        :class:`~repro.simnet.link.NetworkEnvironment` (duck-typed).
        The transit bound allows a full receive window
        (:data:`~repro.simnet.tcp.RWND`) per parallel connection to
        queue at the bottleneck ahead of a segment, so shared-link
        queueing never trips the delayed-ACK deadline check.
        """
        wire_time = (environment.mss + 40) * environment.bits_per_byte \
            / environment.bandwidth_bps
        window_segments = math.ceil(RWND / environment.mss) + 2
        transit = (environment.one_way_delay
                   + window_segments * max(1, max_parallel) * wire_time)
        return cls(mss=environment.mss,
                   client_delack=client_delack,
                   server_delack=server_delack,
                   nagle_server=not server_nodelay,
                   transit_bound=1.10 * transit + 0.01,
                   faulty=faulty, mode_rules=mode_rules)


class _Direction:
    """Sender-side state for one direction of one flow."""

    __slots__ = ("snd_nxt", "snd_una", "syn_end", "fin_end", "fin_acked",
                 "small_ends", "unacked", "sent_payload", "initiator")

    def __init__(self) -> None:
        self.snd_nxt = 0          # highest sequence space transmitted
        self.snd_una = 0          # highest ack received from the peer
        self.syn_end: Optional[int] = None
        self.fin_end: Optional[int] = None
        self.fin_acked = False
        #: End-sequences of transmitted sub-MSS payload segments.
        self.small_ends: List[int] = []
        #: (end_seq, send_time) of payload awaiting acknowledgement, in
        #: increasing end_seq order (only new sequence space is added).
        self.unacked: Deque[Tuple[int, float]] = deque()
        self.sent_payload = False
        #: True for the side that sent the flow's first SYN (the client).
        self.initiator = False


class _Flow:
    """One bidirectional connection, keyed by its endpoint pair."""

    __slots__ = ("initiator", "handshake", "directions", "aborted",
                 "label")

    def __init__(self, label: str) -> None:
        #: (host, port) of the side that sent the first SYN.
        self.initiator: Optional[Tuple[str, int]] = None
        #: 0 = nothing, 1 = SYN seen, 2 = SYN+ACK seen (established).
        self.handshake = 0
        self.directions: Dict[Tuple[str, int], _Direction] = {}
        self.aborted = False
        self.label = label

    def direction(self, endpoint: Tuple[str, int]) -> _Direction:
        state = self.directions.get(endpoint)
        if state is None:
            state = self.directions[endpoint] = _Direction()
        return state


class TraceValidator:
    """Replays segments through the paper's TCP invariants.

    Feed :data:`~repro.simnet.trace.Row` tuples in capture order
    through :meth:`replay`, then call :meth:`finalize` for the
    end-of-trace teardown checks (:func:`validate_rows` does both).
    Violations accumulate in :attr:`violations`.
    """

    def __init__(self, config: SanitizerConfig) -> None:
        self.config = config
        self.violations: List[Violation] = []
        self._flows: Dict[Tuple[Tuple[str, int], Tuple[str, int]],
                          _Flow] = {}
        #: (src, sport, dst, dport) -> (flow, sender's direction,
        #: receiver's direction): one lookup per segment.
        self._routes: Dict[Tuple[str, int, str, int],
                           Tuple[_Flow, _Direction, _Direction]] = {}
        #: Delayed-ACK deadline budget, indexed by "the acker is the
        #: flow's initiator" (False: server heartbeat, True: client).
        transit = self.config.transit_bound
        if self.config.faulty:
            transit += 1.0
        self._budgets = tuple(
            transit + delack + _EPSILON
            for delack in (self.config.server_delack,
                           self.config.client_delack))

    # ------------------------------------------------------------------
    def _route(self, src: str, sport: int, dst: str, dport: int
               ) -> Tuple[_Flow, _Direction, _Direction]:
        sender = (src, sport)
        receiver = (dst, dport)
        key = (sender, receiver) if sender <= receiver \
            else (receiver, sender)
        flow = self._flows.get(key)
        if flow is None:
            label = (f"{key[0][0]}:{key[0][1]}<->"
                     f"{key[1][0]}:{key[1][1]}")
            flow = self._flows[key] = _Flow(label)
        route = self._routes[(src, sport, dst, dport)] = (
            flow, flow.direction(sender), flow.direction(receiver))
        return route

    def _report(self, time: float, flow: _Flow, rule: str,
                message: str) -> None:
        self.violations.append(Violation(time=time, flow=flow.label,
                                         rule=rule, message=message))

    # ------------------------------------------------------------------
    def replay(self, rows: Iterable[Row]) -> float:
        """Process ``rows`` in capture order; returns the last row's
        time (0.0 when there is none)."""
        routes = self._routes
        report = self._report
        config = self.config
        budgets = self._budgets
        time = 0.0
        for time, src, sport, dst, dport, flags, seq, ack, payload_len \
                in rows:
            route = routes.get((src, sport, dst, dport))
            if route is None:
                route = self._route(src, sport, dst, dport)
            flow, d, r = route
            if flow.aborted:
                continue

            if "R" in flags:
                # A RST after both FINs were acknowledged (a stack that
                # has forgotten the connection answering a retransmitted
                # FIN) destroys no data; any other RST is the naive
                # close.
                if not (config.faulty or (d.fin_acked and r.fin_acked)):
                    report(time, flow, "rst",
                           "RST in a clean trace (naive close or reset "
                           "connection)")
                flow.aborted = True
                continue
            syn = "S" in flags
            fin = "F" in flags
            ack_flag = "A" in flags

            # -- handshake ordering ------------------------------------
            handshake = flow.handshake
            if handshake < 2:
                if handshake == 0:
                    if syn and not ack_flag:
                        flow.initiator = (src, sport)
                        d.initiator = True
                        flow.handshake = 1
                    else:
                        report(time, flow, "handshake-order",
                               "flow does not start with a bare SYN")
                        flow.handshake = 2  # avoid cascading reports
                elif d.initiator:
                    if not (syn and not ack_flag and seq == 0):
                        report(time, flow, "handshake-order",
                               "initiator sent non-SYN before the "
                               "SYN+ACK")
                elif syn and ack_flag:
                    # The receiver is the initiator here.
                    expected = r.syn_end or 1
                    if ack != expected:
                        report(time, flow, "handshake-order",
                               f"SYN+ACK acknowledges {ack}, expected "
                               f"{expected}")
                    flow.handshake = 2
                else:
                    report(time, flow, "handshake-order",
                           "responder sent non-SYN+ACK before the "
                           "handshake completed")
                    flow.handshake = 2
                if payload_len and flow.handshake < 2:
                    report(time, flow, "handshake-order",
                           "payload before the handshake completed")

            # -- sequence space ----------------------------------------
            end = seq + payload_len
            if syn:
                end += 1
            if fin:
                end += 1
            snd_nxt = d.snd_nxt
            if seq > snd_nxt:
                report(time, flow, "seq-monotonic",
                       f"sequence gap: seq={seq} beyond snd_nxt="
                       f"{snd_nxt}")
            is_retransmission = end <= snd_nxt and (payload_len or syn
                                                    or fin)
            if syn and d.syn_end is None:
                d.syn_end = end

            # -- payload / FIN discipline ------------------------------
            fin_end = d.fin_end
            if fin_end is not None and end > fin_end:
                report(time, flow, "payload-after-fin",
                       f"sequence space {end} beyond the FIN at "
                       f"{fin_end}")
            if fin:
                if fin_end is None:
                    d.fin_end = end
                elif end != fin_end:
                    report(time, flow, "payload-after-fin",
                           f"FIN moved from {fin_end} to {end}")

            if payload_len:
                # -- Nagle: never two outstanding small segments -------
                if config.nagle_server and not d.initiator \
                        and not is_retransmission \
                        and flow.initiator is not None:
                    outstanding = [e for e in d.small_ends
                                   if e > d.snd_una]
                    if payload_len < config.mss:
                        # Full-sized segments may always go; a second
                        # sub-MSS segment while one is unacknowledged
                        # is the violation.
                        if outstanding:
                            report(time, flow, "nagle",
                                   f"small segment (len={payload_len}) "
                                   f"sent while a small segment is "
                                   f"outstanding (Nagle violation)")
                        outstanding.append(end)
                    d.small_ends = outstanding

                # -- bookkeeping for the delayed-ACK deadline check -----
                if end > snd_nxt:
                    d.unacked.append((end, time))
                    d.sent_payload = True
                elif is_retransmission and d.unacked:
                    # A retransmission implies the original (or the ACK
                    # coming back, or data blocking reassembly ahead of
                    # it) was lost in flight: the peer could not have
                    # acknowledged anything sooner, so every outstanding
                    # delayed-ACK deadline restarts at the retransmit.
                    # Strictly more permissive — a clean trace carries
                    # no retransmissions and is unaffected.
                    d.unacked = deque((end_seq, time)
                                      for end_seq, _ in d.unacked)
            if end > snd_nxt:
                d.snd_nxt = end

            # -- acknowledgement checks --------------------------------
            if ack_flag:
                if ack > r.snd_nxt:
                    report(time, flow, "ack-unsent",
                           f"ack={ack} acknowledges unsent data (peer "
                           f"snd_nxt={r.snd_nxt})")
                if ack > r.snd_una:
                    r.snd_una = ack
                    unacked = r.unacked
                    if unacked and unacked[0][0] <= ack:
                        budget = budgets[d.initiator]
                        while unacked and unacked[0][0] <= ack:
                            _, sent_at = unacked.popleft()
                            if time - sent_at > budget:
                                report(time, flow, "delayed-ack",
                                       f"data sent at t={sent_at:.6f} "
                                       f"acked after "
                                       f"{time - sent_at:.3f}s (budget "
                                       f"{budget:.3f}s)")
                    if r.fin_end is not None and ack >= r.fin_end:
                        r.fin_acked = True
        return time

    # ------------------------------------------------------------------
    def finalize(self, end_time: float) -> None:
        """End-of-trace checks, once, after the last row (stamped
        ``end_time``)."""
        for flow in self._flows.values():
            if flow.aborted:
                continue
            if flow.handshake < 2:
                if any(d.sent_payload
                       for d in flow.directions.values()):
                    self._report(end_time, flow, "handshake-order",
                                 "payload on a flow whose handshake "
                                 "never completed")
                continue
            for endpoint, d in sorted(flow.directions.items()):
                if d.unacked:
                    end_seq, sent_at = d.unacked[0]
                    self._report(end_time, flow, "delayed-ack",
                                 f"data sent at t={sent_at:.6f} "
                                 "(end_seq="
                                 f"{end_seq}) was never acknowledged")
                if self.config.faulty:
                    continue
                who = f"{endpoint[0]}:{endpoint[1]}"
                if d.fin_end is None:
                    self._report(end_time, flow, "half-close",
                                 f"{who} never closed its send side "
                                 "(no FIN)")
                elif not d.fin_acked:
                    self._report(end_time, flow, "half-close",
                                 f"{who}'s FIN was never acknowledged")
        self._check_mode_rules(end_time)

    def _check_mode_rules(self, end_time: float) -> None:
        """Trace-level connection-shape checks (mode rules)."""
        rules = self.config.mode_rules
        if rules is None or self.config.faulty:
            return

        def report(message: str) -> None:
            self.violations.append(Violation(
                time=end_time, flow="<trace>", rule="mode-rules",
                message=message))

        per_port: Dict[int, int] = {}
        total = 0
        for key, flow in self._flows.items():
            if flow.initiator is None:
                continue
            total += 1
            responder = key[1] if key[0] == flow.initiator else key[0]
            per_port[responder[1]] = per_port.get(responder[1], 0) + 1
        if rules.connections is not None and total != rules.connections:
            report(f"trace opened {total} connections, mode requires "
                   f"exactly {rules.connections}")
        for port in rules.required_ports:
            if port not in per_port:
                report(f"no connection to required server port {port}")
        if rules.max_handshakes_per_port is not None:
            for port in sorted(per_port):
                if per_port[port] > rules.max_handshakes_per_port:
                    report(f"server port {port} absorbed "
                           f"{per_port[port]} handshakes, mode allows "
                           f"at most {rules.max_handshakes_per_port}")


def validate_rows(rows: Iterable[Row],
                  config: SanitizerConfig) -> List[Violation]:
    """Replay ``rows`` in capture order, then run the end-of-trace
    checks (stamped with the last row's time); returns every
    violation."""
    validator = TraceValidator(config)
    validator.finalize(validator.replay(rows))
    return validator.violations
