"""The simulated HTTP server: connection handling and response buffering.

Implements the server-side lessons of the paper:

* **Response buffering** — "For each connection, the server maintains a
  response buffer that it flushes either when full, or when there is no
  more requests coming in on that connection, or before it goes idle.
  This buffering enables aggregating responses (for example, cache
  validation responses) into fewer packets even on a high-speed
  network."  The per-connection buffer here flushes on exactly those
  triggers.
* **Serial CPU** — the paper's single-CPU Ultra-1 serialized request
  processing across connections; so does :class:`SimHttpServer`, which
  is what makes HTTP/1.0's four parallel connections pay the same total
  CPU while adding per-connection overhead.
* **Careful close** — half-close by default (stop sending, keep ACKing
  client data); the naive both-halves close that RSTs pipelined clients
  is available via :data:`~repro.server.profiles.NAIVE_CLOSE_SERVER`.
* **TCP_NODELAY** — buffering implementations must disable Nagle; the
  profile controls it so the Nagle ablation can turn it back on.

Each distinct response is built once per store and profile.  A parsed
request carries the head bytes it came from, and for a fixed store and
profile those bytes determine the whole response except its ``Date``
and ``Connection`` lines, which ``build_response`` never adds.  So a
template is the wire bytes of the built response, cut at the two points
where those lines go (:func:`_template`), and a served response is the
status line + the ``Date`` line + the other header lines + the
``Connection`` line + CRLF + the body.
:meth:`SimHttpServer._respond` looks ``head bytes → template`` up in
the map the store keeps per profile (``ResourceStore.derived``: shared
by every server on the store, emptied when its content changes) and
runs :func:`~repro.server.static.build_response` only on a miss (or for
a hand-built request, or one with a body), so a hit builds no
``Response`` or ``Headers``.  The ``Date`` line is rebuilt only when
the simulated second changes.  A template also carries the request's
``Connection`` tokens (``close``, ``keep-alive``), so the ``Connection``
line and the close decision (:meth:`SimHttpServer._connection`) read
them there and scan no header.  Scripted faults and the ``Connection``
line stay outside the map and run per request; the scripted 503 has no
``Date``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from ..client.pipeline import FlowWindow
from ..http import (HTTP10, HTTP11, Headers, ParseError, Request,
                    RequestParser, Response, PAPER_EPOCH,
                    format_http_date)
from ..http.framing import (F_CANCEL, F_DATA, F_END_STREAM, F_HEADERS,
                            F_PUSH_PROMISE, F_WINDOW_UPDATE, FramingError,
                            FrameReader, INITIAL_STREAM_WINDOW,
                            MAX_DATA_PAYLOAD, encode_frame,
                            window_increment)
from ..memo import Memo
from ..simnet.engine import Simulator
from ..simnet.tcp import TcpConnection, TcpStack
from .profiles import ServerProfile
from .static import ResourceStore, build_response

__all__ = ["SimHttpServer"]

#: The declaration; ``ResourceStore.derived`` keeps one
#: :meth:`~repro.memo.Memo.fresh` instance per profile.
_RESPONSE_HEADS = Memo("server.response-heads", 4096)


class _Template(NamedTuple):
    """What a served response is built from (see :func:`_template`)."""

    status: int
    content_type: str
    status_line: bytes
    #: The header lines between the ``Date`` and ``Connection`` lines.
    lines: bytes
    body: bytes
    #: The request's ``Connection`` field holds ``close`` /
    #: ``keep-alive``.
    close: bool
    keep_alive: bool


def _template(response: Response, request: Request) -> _Template:
    """``response.to_bytes()`` cut where a served response's ``Date``
    line and its ``Connection`` line go, and the ``Connection`` tokens
    of ``request``: each a function of the request's head bytes, the
    key the template is kept under."""
    body = response.body_on_wire()
    wire = response.to_bytes()
    status_end = wire.index(b"\r\n") + 2
    headers = request.headers
    return _Template(
        response.status, response.headers.get("Content-Type", ""),
        wire[:status_end], wire[status_end:len(wire) - len(body) - 2], body,
        headers.contains_token("Connection", "close"),
        headers.contains_token("Connection", "keep-alive"))


class _ConnectionState:
    """Per-connection server state both framings share: the output
    buffer, the counters and the close discipline."""

    def __init__(self, server: "SimHttpServer",
                 conn: TcpConnection) -> None:
        self.server = server
        self.conn = conn
        self.out = bytearray()
        self.requests_seen = 0
        self.responses_queued = 0       # built but CPU not finished
        self.eof_received = False
        self.closed = False
        #: Fired once when the connection reaches a terminal state; the
        #: server's finite-capacity accept gate uses it to free a slot.
        self.on_closed: Optional[Callable[[], None]] = None

    def _release(self) -> None:
        callback, self.on_closed = self.on_closed, None
        if callback is not None:
            callback()

    def on_reset(self, _conn: TcpConnection) -> None:
        self.closed = True
        self._release()

    def reset(self, prefix: Optional[bytes] = None) -> None:
        """Slam the connection shut with an RST.  A truncated response
        first flushes what is buffered and sends its ``prefix``; a
        protocol error (``prefix`` None) sends nothing more.  A local
        abort never sees ``on_reset`` (that is the peer's event), so
        the accept-gate slot is freed here."""
        if prefix is not None:
            self.flush()
            if prefix:
                self.conn.send(prefix)
        self.closed = True
        if self.conn.state != "CLOSED":
            self.conn.abort()
        self._release()

    def flush(self, close: bool = False) -> None:
        if self.out and not self.closed and self.conn.state != "CLOSED":
            self.conn.send(bytes(self.out), close=close)
            self.out.clear()
        elif close and not self.closed and self.conn.state != "CLOSED":
            self.conn.close()

    def finish(self) -> None:
        """Flush and close (per the profile's close discipline).

        The FIN rides on the final data segment when possible.
        """
        if self.closed:
            return
        self.flush(close=True)
        self.closed = True
        if not self.server.profile.half_close \
                and self.conn.state != "CLOSED":
            self.conn.shutdown_receive()
        self._release()


class _ServerConnection(_ConnectionState):
    """Per-connection server state for plain HTTP."""

    def __init__(self, server: "SimHttpServer",
                 conn: TcpConnection) -> None:
        super().__init__(server, conn)
        self.parser = RequestParser()

    # ------------------------------------------------------------------
    def on_data(self, _conn: TcpConnection, data: bytes) -> None:
        if self.closed:
            return
        try:
            requests = self.parser.feed(data)
        except ParseError:
            self.server._send_error(self, 400)
            return
        for request in requests:
            self.requests_seen += 1
            self.responses_queued += 1
            self.server._dispatch(self, request)

    def on_eof(self, _conn: TcpConnection) -> None:
        self.eof_received = True
        if self.responses_queued == 0:
            self.finish()

    # ------------------------------------------------------------------
    def queue_bytes(self, payload: bytes) -> None:
        """Append response bytes, applying the buffer-flush policy."""
        if self.closed:
            return
        self.out.extend(payload)
        profile = self.server.profile
        if not profile.buffered:
            self.flush()
        elif len(self.out) >= profile.output_buffer_size:
            self.flush()
        elif self.responses_queued == 0:
            # No more requests pending on this connection right now.
            self.flush()


class _MuxServerStream:
    """One response being framed onto a MUX connection."""

    __slots__ = ("head", "body", "sent", "window")

    def __init__(self, head: bytes, body: bytes) -> None:
        self.head: Optional[bytes] = head
        self.body = body
        self.sent = 0
        self.window = FlowWindow(INITIAL_STREAM_WINDOW)


class _MuxServerConnection(_ConnectionState):
    """Per-connection server state for the MUX framing modes.

    Responses are emitted round-robin, at most one DATA frame per
    stream per pass, each stream throttled by its flow-control window —
    this is what interleaves the HTML body with the GIFs instead of
    serializing whole responses like pipelining does.
    """

    def __init__(self, server: "SimHttpServer", conn: TcpConnection,
                 push: bool) -> None:
        super().__init__(server, conn)
        self.push_enabled = push
        self.reader = FrameReader()
        #: Streams currently emitting, in round-robin order.
        self.active: Dict[int, _MuxServerStream] = {}
        #: Streams refused by the client while their response was still
        #: on the CPU queue.
        self.cancelled: Set[int] = set()
        self.next_push_id = 2
        #: Stop accepting new streams (request limit reached); finish
        #: once the queue drains.
        self.closing = False

    # ------------------------------------------------------------------
    def on_data(self, _conn: TcpConnection, data: bytes) -> None:
        if self.closed:
            return
        try:
            frames = self.reader.feed(data)
        except FramingError:
            self.reset()
            return
        for frame in frames:
            self._on_frame(frame)

    def _on_frame(self, frame) -> None:
        if self.closed:
            return
        if frame.type == F_HEADERS:
            self._on_request(frame.stream, frame.payload)
        elif frame.type == F_WINDOW_UPDATE:
            stream = self.active.get(frame.stream)
            if stream is not None:
                stream.window.grant(window_increment(frame))
                self._pump()
        elif frame.type == F_CANCEL:
            self._on_cancel(frame.stream)
        # Clients send nothing else; stray frame types are ignored.

    def _on_request(self, sid: int, payload: bytes) -> None:
        if self.closing:
            # Winding down: unanswered streams die with the connection
            # and the client re-issues them (its normal recovery path).
            return
        try:
            requests = RequestParser().feed(payload)
        except ParseError:
            requests = []
        if len(requests) != 1:
            self.reset()
            return
        self.requests_seen += 1
        self.responses_queued += 1
        self.server._dispatch_mux(self, sid, requests[0])

    def _on_cancel(self, sid: int) -> None:
        self.server._note("cancel", f"stream {sid}")
        if sid in self.active:
            del self.active[sid]
        else:
            self.cancelled.add(sid)
        self._maybe_finish()

    def on_eof(self, _conn: TcpConnection) -> None:
        self.eof_received = True
        self._maybe_finish()

    # ------------------------------------------------------------------
    def start_stream(self, sid: int, head: bytes, body: bytes) -> None:
        """CPU finished for this response: begin framing it out."""
        self.active[sid] = _MuxServerStream(head, body)
        self._pump()

    def queue_frame(self, ftype: int, sid: int,
                    payload: bytes = b"") -> None:
        """Append one frame, applying the buffer-flush policy."""
        if self.closed:
            return
        tap = self.server.frame_tap
        if tap is not None:
            tap(self.server.sim.now, "s>c", ftype, sid, payload)
        self.out.extend(encode_frame(ftype, sid, payload))
        profile = self.server.profile
        if not profile.buffered:
            self.flush()
        elif len(self.out) >= profile.output_buffer_size:
            self.flush()

    def _pump(self) -> None:
        """Round-robin emission: one DATA frame per stream per pass."""
        if self.closed:
            return
        progress = True
        while progress:
            progress = False
            for sid in list(self.active):
                stream = self.active.get(sid)
                if stream is None:
                    continue
                if stream.head is not None:
                    self.queue_frame(F_HEADERS, sid, stream.head)
                    stream.head = None
                    progress = True
                remaining = len(stream.body) - stream.sent
                if remaining > 0:
                    can = stream.window.sendable(
                        min(MAX_DATA_PAYLOAD, remaining))
                    if can > 0:
                        chunk = bytes(stream.body[stream.sent:
                                                  stream.sent + can])
                        stream.window.spend(can)
                        stream.sent += can
                        self.queue_frame(F_DATA, sid, chunk)
                        progress = True
                if stream.head is None \
                        and stream.sent >= len(stream.body) \
                        and sid in self.active:
                    self.queue_frame(F_END_STREAM, sid)
                    del self.active[sid]
                    progress = True
        if self.responses_queued == 0:
            self.flush()
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if self.closed:
            return
        if self.responses_queued or self.active:
            return
        if self.closing or self.eof_received:
            self.finish()


class _ParkedConnection:
    """A connection accepted by TCP but waiting for a server slot.

    While parked, the client's bytes (and any EOF/RST) are buffered
    here; activation replays them into a real per-connection state in
    arrival order, so the served dialogue is indistinguishable from one
    that was merely delayed in the listen queue.
    """

    __slots__ = ("conn", "arrived_at", "buffered", "eof", "reset")

    def __init__(self, conn: TcpConnection, now: float) -> None:
        self.conn = conn
        self.arrived_at = now
        self.buffered = bytearray()
        self.eof = False
        self.reset = False

    def on_data(self, _conn: TcpConnection, data: bytes) -> None:
        self.buffered.extend(data)

    def on_eof(self, _conn: TcpConnection) -> None:
        self.eof = True

    def on_reset(self, _conn: TcpConnection) -> None:
        self.reset = True


class SimHttpServer:
    """An HTTP/1.0 + HTTP/1.1 static server on the simulated network.

    Parameters
    ----------
    sim, stack:
        Simulator and the host's TCP stack.
    store:
        The resources to serve.
    profile:
        Behavioural profile (Jigsaw / Apache / ablations).
    port:
        Listening port (default 80).
    mux, push:
        Speak the MUX framing protocol on accepted connections; with
        ``push``, speculatively push inline images after an HTML GET.
    max_concurrent:
        Finite service capacity: at most this many connections are
        handled at once; excess accepted connections park in a FIFO
        backlog (their bytes buffered) until a handled connection
        reaches a terminal state.  ``None`` (the default) is the
        paper's unbounded single-robot regime and changes nothing.
    """

    def __init__(self, sim: Simulator, stack: TcpStack,
                 store: ResourceStore, profile: ServerProfile,
                 port: int = 80, mux: bool = False,
                 push: bool = False,
                 max_concurrent: Optional[int] = None) -> None:
        self.sim = sim
        self.stack = stack
        self.store = store
        self.profile = profile
        self.port = port
        self.mux = mux
        self.push = push
        #: Finite accept/service capacity (None = unbounded).  May be
        #: assigned after construction but before the first accept.
        self.max_concurrent = max_concurrent
        self._active_connections = 0
        self._accept_backlog: "deque[_ParkedConnection]" = deque()
        #: Seconds each parked connection waited for a slot, in
        #: activation order (empty when capacity is unbounded).
        self.queue_waits: List[float] = []
        self._cpu_free_at = 0.0
        #: Optional hook observing every MUX frame the server emits:
        #: ``tap(now, "s>c", frame_type, stream_id, payload)`` (set by
        #: the experiment runner on a checked clean MUX run).
        self.frame_tap = None
        #: Statistics for tests.
        self.requests_served = 0
        self.pushes_promised = 0
        self.pushes_sent = 0
        self.connections_accepted = 0
        #: Arrival ordinal of the last request, across all connections —
        #: the key by which scripted server faults fire.
        self.requests_received = 0
        #: Optional :class:`~repro.faults.RecoveryLog` the server notes
        #: injected faults into (set by the experiment runner).
        self.recovery = None
        #: Total CPU-busy seconds consumed (the paper's future work:
        #: "the CPU time savings of HTTP/1.1 ... could now be
        #: quantified for Apache").
        self.cpu_busy_seconds = 0.0
        #: The current ``Date`` line and the whole second it renders.
        self._date_second = -1
        self._date_line = b""
        #: :attr:`_heads`, and the store's ``changes`` it was read at.
        self._heads_memo: Optional[Memo] = None
        self._heads_changes = -1
        stack.listen(port, self._accept)

    # ------------------------------------------------------------------
    # CPU model: one serial processor
    # ------------------------------------------------------------------
    def _cpu_run(self, cost: float, callback: Callable[[], None]) -> None:
        start = max(self.sim.now, self._cpu_free_at)
        self._cpu_free_at = start + cost
        self.cpu_busy_seconds += cost
        self.sim.schedule_at(self._cpu_free_at, callback)

    # ------------------------------------------------------------------
    def _accept(self, conn: TcpConnection) -> None:
        self.connections_accepted += 1
        if self.max_concurrent is not None \
                and self._active_connections >= self.max_concurrent:
            parked = _ParkedConnection(conn, self.sim.now)
            conn.on_data = parked.on_data
            conn.on_eof = parked.on_eof
            conn.on_reset = parked.on_reset
            self._accept_backlog.append(parked)
            return
        self._activate(conn)

    def _activate(self, conn: TcpConnection,
                  parked: Optional[_ParkedConnection] = None) -> None:
        if self.mux:
            state = _MuxServerConnection(self, conn, self.push)
        else:
            state = _ServerConnection(self, conn)
        if self.max_concurrent is not None:
            self._active_connections += 1
            state.on_closed = self._connection_closed
        conn.set_nodelay(self.profile.nodelay)
        conn.on_data = state.on_data
        conn.on_eof = state.on_eof
        conn.on_reset = state.on_reset
        # Accepting a connection costs CPU (fork/thread dispatch).
        self._cpu_free_at = max(self.sim.now, self._cpu_free_at) \
            + self.profile.per_connection_cpu
        self.cpu_busy_seconds += self.profile.per_connection_cpu
        if parked is not None:
            self.queue_waits.append(self.sim.now - parked.arrived_at)
            if parked.buffered:
                state.on_data(conn, bytes(parked.buffered))
            if parked.eof:
                state.on_eof(conn)
            if parked.reset:
                state.on_reset(conn)

    def _connection_closed(self) -> None:
        self._active_connections -= 1
        while self._accept_backlog \
                and self._active_connections < self.max_concurrent:
            parked = self._accept_backlog.popleft()
            if parked.reset or parked.conn.state == "CLOSED":
                # The client gave up while waiting; no slot consumed.
                continue
            self._activate(parked.conn, parked)

    def _note(self, kind: str, detail: str = "") -> None:
        if self.recovery is not None:
            self.recovery.note(self.sim.now, "server", kind, detail)

    def _date_header(self) -> bytes:
        """The ``Date`` line for now, re-rendered once per second."""
        second = int(PAPER_EPOCH + self.sim.now)
        if second != self._date_second:
            self._date_second = second
            self._date_line = (f"Date: {format_http_date(second)}\r\n"
                               .encode("latin-1"))
        return self._date_line

    @property
    def _heads(self) -> Memo:
        """``request head bytes → template`` (see :func:`_template`) of
        the response ``build_response`` produces without a ``Date``, for
        this profile from the store's content.  Read from the store once
        per content change: the key hashes the whole profile."""
        store = self.store
        if self._heads_changes != store.changes:
            self._heads_memo = store.derived(("response-heads", self.profile),
                                             _RESPONSE_HEADS.fresh)
            self._heads_changes = store.changes
        return self._heads_memo

    def _respond(self, request: Request) -> _Template:
        """The template of ``build_response`` for ``request``, built
        once per distinct parsed head; see the module docstring."""
        key = request.head
        if key is None or request.body:
            return _template(build_response(self.store, request,
                                            self.profile), request)
        heads = self._heads
        template = heads.get(key)
        if template is None:
            template = heads.store(key, _template(
                build_response(self.store, request, self.profile), request))
        return template

    def _build_or_fault(self, request: Request):
        """Account the request, apply scripted faults, build the
        response.  Shared by the plain-HTTP and MUX dispatch paths;
        returns ``(template, Date line, abort_after, ordinal)``."""
        self.requests_received += 1
        ordinal = self.requests_received
        faults = getattr(self.profile, "faults", None)
        abort_after = None
        if faults is not None:
            if ordinal in faults.stall_requests:
                # The worker freezes before touching this request: the
                # serial CPU is unavailable for the stall (which is not
                # billed as useful work).
                self._cpu_free_at = max(self.sim.now, self._cpu_free_at) \
                    + faults.stall_seconds
                self._note("stall", f"request {ordinal} stalls "
                           f"{faults.stall_seconds:g}s")
            if ordinal in faults.abort_requests:
                abort_after = faults.abort_after_bytes
        if faults is not None and ordinal in faults.error_503_requests:
            self._note("503", f"request {ordinal} ({request.target})")
            error_body = b"Service Unavailable\r\n"
            template = _template(Response(
                503, request.version,
                Headers([("Content-Type", "text/plain"),
                         ("Content-Length", str(len(error_body)))]),
                body=error_body, request_method=request.method), request)
            return template, b"", abort_after, ordinal
        template = self._respond(request)
        return template, self._date_header(), abort_after, ordinal

    def _dispatch(self, state: _ServerConnection,
                  request: Request) -> None:
        template, date, abort_after, ordinal = self._build_or_fault(request)
        _, _, status_line, lines, body, _, _ = template
        connection, close_after = self._connection(state, request, template)
        rest = date + lines + connection + b"\r\n"
        cost = self.profile.base_cpu + len(body) * self.profile.cpu_per_byte
        payload = status_line + rest + body

        def emit() -> None:
            state.responses_queued -= 1
            if state.closed or state.conn.state == "CLOSED":
                return
            if abort_after is not None:
                self._note("abort", f"request {ordinal} RST after "
                           f"{abort_after} bytes")
                # Send a truncated prefix of the response, then slam the
                # connection shut with an RST mid-body.
                state.reset(payload[:abort_after])
                return
            self.requests_served += 1
            closing = close_after or (state.eof_received
                                      and state.responses_queued == 0)
            if closing and not self.profile.split_header_write:
                # Append without triggering an intermediate flush so the
                # FIN can ride on the final data segment.
                state.out.extend(payload)
                state.finish()
                return
            if self.profile.split_header_write:
                # Pre-tuning implementation shape: the status line,
                # header block and body reach the socket as separate
                # writes.  With Nagle enabled the later small writes
                # stall until the first one is ACKed — and the peer is
                # sitting on a delayed ACK.  This is the interaction
                # the paper's "Nagle Interaction" section describes.
                state.queue_bytes(status_line)
                state.queue_bytes(rest)
                if body:
                    state.queue_bytes(body)
            else:
                state.queue_bytes(payload)
            if closing:
                state.finish()

        self._cpu_run(cost, emit)

    # ------------------------------------------------------------------
    # MUX dispatch path
    # ------------------------------------------------------------------
    def _dispatch_mux(self, state: _MuxServerConnection, sid: int,
                      request: Request) -> None:
        template, date, abort_after, ordinal = self._build_or_fault(request)
        limit = self.profile.max_requests_per_connection
        if limit is not None and state.requests_seen >= limit:
            state.closing = True
        if (state.push_enabled and not state.closing
                and request.method == "GET" and template.status == 200
                and template.content_type.startswith("text/html")):
            self._promise_pushes(state, request)
        self._schedule_mux_response(state, sid, template, date,
                                    abort_after, ordinal, push=False)

    def _schedule_mux_response(self, state: _MuxServerConnection,
                               sid: int, template: _Template, date: bytes,
                               abort_after: Optional[int],
                               ordinal: int, push: bool) -> None:
        _, _, status_line, lines, body, _, _ = template
        head = status_line + date + lines + b"\r\n"
        cost = self.profile.base_cpu + len(body) * self.profile.cpu_per_byte

        def emit() -> None:
            state.responses_queued -= 1
            if sid in state.cancelled:
                state.cancelled.discard(sid)
                state._maybe_finish()
                return
            if state.closed or state.conn.state == "CLOSED":
                return
            if abort_after is not None:
                self._note("abort", f"request {ordinal} RST after "
                           f"{abort_after} bytes")
                framed = bytearray(encode_frame(F_HEADERS, sid, head))
                for offset in range(0, len(body), MAX_DATA_PAYLOAD):
                    framed += encode_frame(
                        F_DATA, sid, body[offset:offset + MAX_DATA_PAYLOAD])
                state.reset(bytes(framed[:abort_after]))
                return
            if push:
                self.pushes_sent += 1
            else:
                self.requests_served += 1
            state.start_stream(sid, head, body)

        self._cpu_run(cost, emit)

    def _promise_pushes(self, state: _MuxServerConnection,
                        request: Request) -> None:
        """Speculatively frame every inline image after an HTML GET.

        The promises go out ahead of the HTML body so the client knows
        not to request what is already coming; each pushed response
        then pays the normal serial-CPU cost behind the HTML.
        """
        host = request.headers.get("Host", "")
        for url in self.store.urls():
            if url == request.target:
                continue
            resource = self.store.get(url)
            if resource is None \
                    or not resource.content_type.startswith("image/"):
                continue
            sid = state.next_push_id
            state.next_push_id += 2
            self.pushes_promised += 1
            state.queue_frame(F_PUSH_PROMISE, sid,
                              url.encode("ascii", "replace"))
            template = self._respond(Request("GET", url, HTTP11,
                                             Headers([("Host", host)])))
            state.responses_queued += 1
            self._schedule_mux_response(state, sid, template,
                                        self._date_header(), None, 0,
                                        push=True)

    def _connection(self, state: _ServerConnection, request: Request,
                    template: _Template) -> Tuple[bytes, bool]:
        """The ``Connection`` line that ends a response's head (or
        ``b""``), and whether the server closes after the response.
        The request's ``Connection`` tokens are read from ``template``.

        An HTTP/1.1 response says ``close`` exactly when the server
        closes; an HTTP/1.0 one says ``Keep-Alive`` exactly when it
        does not."""
        limit = self.profile.max_requests_per_connection
        http11 = request.version >= HTTP11
        if limit is not None and state.requests_seen >= limit:
            close = True
        elif http11:
            close = template.close
        else:
            close = (not template.keep_alive
                     or (self.profile.close_keepalive_after_head
                         and request.method == "HEAD"))
        if http11:
            return (b"Connection: close\r\n" if close else b""), close
        return (b"" if close else b"Connection: Keep-Alive\r\n"), close

    def _send_error(self, state: _ServerConnection, status: int) -> None:
        response = Response(status, HTTP10,
                            Headers([("Content-Length", "0")]),
                            request_method="GET")
        state.queue_bytes(response.to_bytes())
        state.finish()
