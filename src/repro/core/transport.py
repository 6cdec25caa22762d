"""Transport strategies: how a protocol mode reaches the wire.

A :class:`ProtocolMode <repro.core.modes.ProtocolMode>` is a table
label, a :class:`Transport`, and the
:class:`~repro.client.robot.ClientConfig` fields that differ from that
dataclass's defaults.  The transport owns what differs per *wire
format*:

* **server wiring** — how many listeners to start and in which framing
  mode (plain HTTP, MUX, MUX + push),
* **client construction** — which client class speaks the format,
* **trace rules** — the connection shape a clean run must show
  (:class:`ModeTraceRules`, checked by the unit-end
  :class:`~repro.simnet.checks.TraceValidator`),
* **client fields its geometry implies** — a sharded transport's
  shard and connection counts are the robot's constants
  (:data:`~repro.client.robot.SHARDS`,
  :data:`~repro.client.robot.CONNECTIONS_PER_SHARD`) and reach the
  client configuration from there, so each number appears once.

A MUX transport's frames are checked too: :class:`FrameStreamValidator`
watches both frame taps of a clean MUX run.

Plain HTTP/1.0 and HTTP/1.1 differ only in client fields, so they share
the base :class:`Transport`.  Transports are frozen dataclasses so
modes stay value-comparable; two ``ShardedTransport()`` instances are
the same transport.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Set, Tuple

from ..client.robot import (CONNECTIONS_PER_SHARD, SHARDS, ClientConfig,
                            Robot)
from ..http.framing import (F_CANCEL, F_DATA, F_END_STREAM, F_HEADERS,
                            F_PUSH_PROMISE, F_WINDOW_UPDATE,
                            FRAME_TYPE_NAMES, FramingError, Frame,
                            INITIAL_STREAM_WINDOW, window_increment)
from ..server.base import SimHttpServer
from ..simnet.checks import Violation

__all__ = ["Transport", "MuxTransport", "ShardedTransport", "DEFAULT_PORT",
           "ModeTraceRules", "FrameStreamValidator"]

#: Base listening port; sharded transports fan out to consecutive ports.
DEFAULT_PORT = 80


@dataclasses.dataclass(frozen=True)
class ModeTraceRules:
    """Per-protocol-mode shape constraints on a clean trace.

    Each :class:`Transport` may describe what its traffic must look
    like at the TCP layer — how many connections a clean run opens,
    which server ports must appear, and how many handshakes any one
    port may absorb.  The rules run in
    :meth:`~repro.simnet.checks.TraceValidator.finalize`, alongside the
    teardown checks, as the ``mode-rules`` rule.
    """

    #: Exactly how many connections a clean run opens (None = any).
    connections: Optional[int] = None
    #: Server ports that must each receive at least one connection.
    required_ports: Tuple[int, ...] = ()
    #: Ceiling on handshakes any single server port absorbs.
    max_handshakes_per_port: Optional[int] = None


@dataclasses.dataclass(frozen=True)
class Transport:
    """Plain HTTP: one listener on port 80, the libwww-style robot.

    This is the paper's wiring, used as is by its four modes;
    subclasses override the pieces a different wire format changes.
    """

    #: Whether the connection carries MUX frames (consulted by the
    #: runner to attach the frame-level validator).  Class attribute,
    #: not a field: transports compare by type + their own knobs.
    mux = False
    #: Whether the server speculatively pushes inline objects.
    push = False

    def client_fields(self) -> Dict[str, Any]:
        """:class:`ClientConfig` fields this transport's geometry fixes."""
        return {}

    def ports(self) -> Tuple[int, ...]:
        """Listening ports of the mode's origin(s); first is primary."""
        return (DEFAULT_PORT,)

    def start_servers(self, sim, stack, store, profile,
                      max_concurrent: Optional[int] = None
                      ) -> List[SimHttpServer]:
        """Start one listener per origin port on ``stack``.

        ``max_concurrent`` is each listener's accept-gate capacity
        (``None``: the paper's unbounded single-robot regime).
        """
        return [SimHttpServer(sim, stack, store, profile, port=port,
                              mux=self.mux, push=self.push,
                              max_concurrent=max_concurrent)
                for port in self.ports()]

    def create_client(self, sim, stack, server_host: str, server_port: int,
                      config: ClientConfig, cache) -> Robot:
        """Build the client that speaks this transport."""
        return Robot(sim, stack, server_host, server_port, config, cache)

    def trace_rules(self, config: ClientConfig) -> Optional[ModeTraceRules]:
        """Packet-level invariants for clean runs (None = generic only)."""
        return None


@dataclasses.dataclass(frozen=True)
class MuxTransport(Transport):
    """Multiplexed streams over one TCP connection (HTTP/2-shaped).

    With ``server_push`` the server speculatively frames every inline
    image after an HTML request; the client cancels duplicates.
    """

    server_push: bool = False

    mux = True

    @property
    def push(self) -> bool:
        return self.server_push

    def create_client(self, sim, stack, server_host: str, server_port: int,
                      config: ClientConfig, cache):
        from ..client.mux import MuxClient
        return MuxClient(sim, stack, server_host, server_port, config,
                         cache)

    def trace_rules(self, config: ClientConfig) -> ModeTraceRules:
        # Everything multiplexes over exactly one TCP connection.
        return ModeTraceRules(connections=1)


@dataclasses.dataclass(frozen=True)
class ShardedTransport(Transport):
    """Content split across :data:`~repro.client.robot.SHARDS` simulated
    origins, on consecutive ports from :data:`DEFAULT_PORT`.

    Each shard is an independent :class:`SimHttpServer` with its own
    serial CPU; the client hashes each URL to a shard and keeps up to
    :data:`~repro.client.robot.CONNECTIONS_PER_SHARD` redundant
    persistent connections there.
    """

    def client_fields(self) -> Dict[str, Any]:
        return {"shards": SHARDS,
                "max_connections": SHARDS * CONNECTIONS_PER_SHARD}

    def ports(self) -> Tuple[int, ...]:
        return tuple(DEFAULT_PORT + shard for shard in range(SHARDS))

    def trace_rules(self, config: ClientConfig) -> ModeTraceRules:
        return ModeTraceRules(
            required_ports=self.ports(),
            max_handshakes_per_port=CONNECTIONS_PER_SHARD)


class FrameStreamValidator:
    """Validates the frame event stream of a MUX-mode run.

    The MUX client and server expose a ``frame_tap`` hook called at
    frame *send* time — ``tap(now, direction, frame_type, stream_id,
    payload)`` with ``direction`` ``"c>s"`` or ``"s>c"``.  A credit
    grant is tapped before the server receives it, and any DATA that
    grant enables is tapped after, so one validator observing both taps
    in global time order sees grants before the spends they permit.

    Enforced rules:

    * client request streams carry odd, strictly increasing ids;
      pushed streams even, strictly increasing ids;
    * ``PUSH_PROMISE`` flows only server→client, only when the mode
      allows pushing, and never before the first client request
      (the push-before-request ordering rule);
    * the server frames only open streams — an odd stream needs a
      prior client ``HEADERS``, an even one a prior ``PUSH_PROMISE`` —
      and nothing follows ``END_STREAM``;
    * ``DATA`` never exceeds the granted flow-control window;
    * every stream opened is ended or cancelled by trace end.

    Server frames on a *cancelled* stream are tolerated: a CANCEL
    legitimately crosses in-flight frames on the wire.
    """

    def __init__(self, *, push_allowed: bool = False) -> None:
        self.push_allowed = push_allowed
        self.violations: List[Violation] = []
        #: Stream id → server send credit remaining.
        self._windows: Dict[int, int] = {}
        #: Stream id → True when opened by PUSH_PROMISE.
        self._open: Dict[int, bool] = {}
        self._ended: Set[int] = set()
        self._cancelled: Set[int] = set()
        self._last_client = -1
        self._last_push = 0
        self._requests = 0

    def _report(self, time: float, rule: str, message: str) -> None:
        self.violations.append(Violation(time=time, flow="<frames>",
                                         rule=rule, message=message))

    # ------------------------------------------------------------------
    def observe(self, now: float, direction: str, ftype: int, sid: int,
                payload: bytes = b"") -> List[Violation]:
        """Process one tapped frame event; returns new violations."""
        before = len(self.violations)
        name = FRAME_TYPE_NAMES.get(ftype, hex(ftype))
        if direction == "c>s":
            self._observe_client(now, ftype, sid, payload, name)
        else:
            self._observe_server(now, ftype, sid, payload, name)
        return self.violations[before:]

    def _observe_client(self, now: float, ftype: int, sid: int,
                        payload: bytes, name: str) -> None:
        if ftype == F_HEADERS:
            if sid % 2 == 0 or sid <= self._last_client:
                self._report(now, "stream-id",
                             f"client HEADERS on stream {sid} (want an "
                             f"odd id above {self._last_client})")
            else:
                self._last_client = sid
            self._open[sid] = False
            self._windows[sid] = INITIAL_STREAM_WINDOW
            self._requests += 1
        elif ftype == F_WINDOW_UPDATE:
            if sid not in self._open:
                self._report(now, "frame-unopened",
                             f"WINDOW_UPDATE for unopened stream {sid}")
                return
            try:
                increment = window_increment(Frame(ftype, sid, payload))
            except FramingError as exc:
                self._report(now, "frame-malformed", str(exc))
                return
            self._windows[sid] = self._windows.get(sid, 0) + increment
        elif ftype == F_CANCEL:
            if sid not in self._open:
                self._report(now, "frame-unopened",
                             f"CANCEL for unopened stream {sid}")
            self._cancelled.add(sid)
        else:
            self._report(now, "frame-direction",
                         f"{name} is not a client frame")

    def _observe_server(self, now: float, ftype: int, sid: int,
                        payload: bytes, name: str) -> None:
        if ftype == F_PUSH_PROMISE:
            if not self.push_allowed:
                self._report(now, "push-not-allowed",
                             f"PUSH_PROMISE for stream {sid} in a mode "
                             "without server push")
            if self._requests == 0:
                self._report(now, "push-before-request",
                             f"PUSH_PROMISE for stream {sid} before any "
                             "client request")
            if sid % 2 or sid <= self._last_push:
                self._report(now, "stream-id",
                             f"PUSH_PROMISE on stream {sid} (want an "
                             f"even id above {self._last_push})")
            else:
                self._last_push = sid
            self._open[sid] = True
            self._windows.setdefault(sid, INITIAL_STREAM_WINDOW)
            return
        if sid in self._cancelled:
            return      # crossed a CANCEL on the wire; tolerated
        if sid not in self._open:
            self._report(now, "frame-unopened",
                         f"server {name} on unopened stream {sid}")
            return
        if sid in self._ended:
            self._report(now, "frame-after-end",
                         f"server {name} on stream {sid} after its "
                         "END_STREAM")
            return
        if ftype == F_DATA:
            credit = self._windows.get(sid, 0) - len(payload)
            self._windows[sid] = credit
            if credit < 0:
                self._report(now, "flow-window",
                             f"DATA overruns stream {sid}'s window by "
                             f"{-credit} bytes")
        elif ftype == F_END_STREAM:
            self._ended.add(sid)
        elif ftype != F_HEADERS:
            self._report(now, "frame-direction",
                         f"{name} is not a server frame")

    # ------------------------------------------------------------------
    def finish(self, at_time: float = 0.0) -> List[Violation]:
        """End-of-trace check: no stream may be left dangling."""
        before = len(self.violations)
        for sid in sorted(self._open):
            if sid in self._ended or sid in self._cancelled:
                continue
            self._report(at_time, "stream-unfinished",
                         f"stream {sid} was never ended or cancelled")
        return self.violations[before:]
