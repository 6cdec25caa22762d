"""The MUX client: multiplexed streams over one TCP connection.

Subclasses :class:`~repro.client.robot.Robot` so the whole hardening
surface — retry budget, exponential backoff, watchdog, 5xx re-issue,
incremental HTML discovery — is shared, and so are the connection
ledger and the pipelined discipline, which MUX always takes.  Only the
wire layer changes:

* every request is a ``HEADERS`` frame on a fresh odd-numbered stream
  (batched through the same :class:`~repro.client.pipeline.
  OutputBuffer` the pipelined mode tunes);
* response heads arrive as ``HEADERS`` frames and bodies as
  flow-controlled ``DATA`` frames, interleaved across streams; the
  client replenishes each stream's credit immediately with
  ``WINDOW_UPDATE``, so the per-stream window bounds how far any one
  response can get ahead of the client;
* a ``PUSH_PROMISE`` registers a speculative server push on an
  even-numbered stream — unless the URL is already requested or
  delivered, in which case the client refuses it with ``CANCEL``
  (cancel-on-duplicate);
* a dead connection re-queues every unfinished stream — including
  promised-but-unfinished pushes — through the robot's normal
  recovery path, which re-issues them as plain requests.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..http import ParseError, Response, ResponseParser
from ..http.framing import (F_CANCEL, F_DATA, F_END_STREAM, F_HEADERS,
                            F_PUSH_PROMISE, F_WINDOW_UPDATE,
                            FRAME_HEADER_SIZE, Frame, FramingError,
                            FrameReader, INITIAL_STREAM_WINDOW,
                            encode_frame, encode_window_update)
from ..simnet.tcp import TcpConnection
from .pipeline import FlowWindow
from .robot import Robot, _Connection

__all__ = ["MuxClient"]


class _MuxStream:
    """Client-side state of one stream (requested or pushed)."""

    __slots__ = ("url", "parser", "pushed", "recv_window", "unscanned")

    def __init__(self, url: str, pushed: bool) -> None:
        self.url = url
        self.parser = ResponseParser()
        self.pushed = pushed
        self.recv_window = FlowWindow(INITIAL_STREAM_WINDOW)
        #: The response, once ``Robot._scan_chunk`` found it is not HTML.
        self.unscanned: Optional[Response] = None


class _MuxConnState(_Connection):
    """One MUX connection: a frame reader over the stream, and the
    open streams with a response parser each."""

    __slots__ = ("reader", "streams", "next_stream")

    def __init__(self, robot: "MuxClient", shard: Optional[int]) -> None:
        super().__init__(robot, shard)
        self.reader = FrameReader()
        #: Stream id → stream, both requested (odd) and pushed (even).
        self.streams: Dict[int, _MuxStream] = {}
        self.next_stream = 1

    def retire(self, _conn: Optional[TcpConnection] = None) -> None:
        for sid in list(self.streams):
            self.end_stream(sid)
        super().retire()

    def end_stream(self, sid: int) -> Optional[_MuxStream]:
        """Forget stream ``sid``; its parser stops calling back into
        the robot (the reader's closure holds the stream itself)."""
        stream = self.streams.pop(sid, None)
        if stream is not None:
            stream.parser.on_body_chunk = None
        return stream

    # ------------------------------------------------------------------
    def send_request(self, url: str, request: Tuple[str, bytes],
                     flush: bool) -> None:
        method, payload = request
        sid = self.next_stream
        self.next_stream += 2
        stream = _MuxStream(url, pushed=False)
        stream.parser.expect(method)
        stream.parser.on_body_chunk = (
            lambda response, chunk:
            self.robot._on_mux_body_chunk(stream, response, chunk))
        self.streams[sid] = stream
        self.outstanding.append(url)
        self.robot.result.request_bytes += \
            len(payload) + FRAME_HEADER_SIZE
        self.robot.result.requests_sent += 1
        self.robot._send_frame(self, F_HEADERS, sid, payload,
                               buffered=True, flush=flush)
        self.robot._arm_watchdog(self)

    def collect_unfinished(self) -> None:
        """Move promised-but-unfinished pushes into ``outstanding`` so
        the robot's recovery re-issues them as plain requests."""
        for sid in list(self.streams):
            stream = self.end_stream(sid)
            if stream.pushed and stream.url not in self.outstanding:
                self.outstanding.append(stream.url)

    # ------------------------------------------------------------------
    def _on_data(self, _conn: TcpConnection, data: bytes) -> None:
        timeout = self.robot.config.watchdog_timeout
        if timeout is not None:
            self.deadline = self.robot.sim.now + timeout
        try:
            frames = self.reader.feed(data)
        except FramingError as exc:
            self.robot.result.errors.append(f"framing error: {exc}")
            self.robot._abort(self)
            return
        for frame in frames:
            self.robot._on_frame(self, frame)
            if not self.open:
                break


class MuxClient(Robot):
    """Fetch a page over multiplexed framed streams (one connection)."""

    # Robot itself is not slotted, so instances keep a __dict__; the
    # declaration still catches typos on the MUX-specific attributes.
    __slots__ = ("frame_tap", "pushes_cancelled")

    _conn_class = _MuxConnState

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Optional hook observing every frame the client emits:
        #: ``tap(now, "c>s", frame_type, stream_id, payload)``.
        self.frame_tap = None
        #: URLs whose push the client refused (cancel-on-duplicate).
        self.pushes_cancelled = 0

    # ------------------------------------------------------------------
    # Dispatch: always the pipelined batch.  There is no downgrade ladder
    # below MUX: recovery re-opens the one multiplexed connection.
    # ------------------------------------------------------------------
    def _pipelines(self) -> bool:
        return True

    def _maybe_downgrade(self) -> None:
        return

    # ------------------------------------------------------------------
    # Frame plumbing
    # ------------------------------------------------------------------
    def _send_frame(self, state: _MuxConnState, ftype: int, sid: int,
                    payload: bytes = b"", *, buffered: bool = False,
                    flush: bool = False) -> None:
        if self.frame_tap is not None:
            self.frame_tap(self.sim.now, "c>s", ftype, sid, payload)
        wire = encode_frame(ftype, sid, payload)
        if buffered:
            state.buffer.write(wire, flush)
        elif state.conn.state != "CLOSED":
            # Control frames (WINDOW_UPDATE, CANCEL) must not sit in
            # the request batch buffer: the server may be stalled on
            # exactly this credit.
            state.conn.send(wire)

    def _on_frame(self, state: _MuxConnState, frame: Frame) -> None:
        ftype = frame.type
        if ftype in (F_HEADERS, F_DATA):
            stream = state.streams.get(frame.stream)
            if stream is None:
                return      # cancelled or already complete; stale frame
            if ftype == F_DATA:
                stream.recv_window.spend(len(frame.payload))
                if stream.recv_window.overrun:
                    self.result.errors.append(
                        f"flow-control overrun on stream {frame.stream}")
                    self._abort(state)
                    return
                # Replenish immediately: the client consumes as it
                # parses, so credit equals consumption.
                stream.recv_window.grant(len(frame.payload))
                wire = encode_window_update(frame.stream,
                                            len(frame.payload))
                if self.frame_tap is not None:
                    self.frame_tap(self.sim.now, "c>s", F_WINDOW_UPDATE,
                                   frame.stream,
                                   wire[FRAME_HEADER_SIZE:])
                if state.conn.state != "CLOSED":
                    state.conn.send(wire)
            try:
                responses = stream.parser.feed(frame.payload)
            except ParseError as exc:
                self.result.errors.append(f"parse error: {exc}")
                self._abort(state)
                return
            for response in responses:
                self._stream_complete(state, frame.stream, stream,
                                      response)
        elif ftype == F_PUSH_PROMISE:
            self._on_push_promise(state, frame)
        elif ftype == F_END_STREAM:
            state.end_stream(frame.stream)
        # Servers send nothing else client-relevant; ignore the rest.

    def _on_push_promise(self, state: _MuxConnState,
                         frame: Frame) -> None:
        url = frame.payload.decode("ascii", "replace")
        if url in self._expected or url in self.result.responses:
            # Duplicate of something already requested or delivered:
            # refuse the push before the server spends wire on it.
            self.pushes_cancelled += 1
            self._note("push-cancel", url)
            self._send_frame(state, F_CANCEL, frame.stream)
            return
        self._expected[url] = None
        self._unhandled.add(url)
        stream = _MuxStream(url, pushed=True)
        stream.parser.expect("GET")
        stream.parser.on_body_chunk = (
            lambda response, chunk:
            self._on_mux_body_chunk(stream, response, chunk))
        state.streams[frame.stream] = stream

    def _stream_complete(self, state: _MuxConnState, sid: int,
                         stream: _MuxStream, response: Response) -> None:
        state.end_stream(sid)
        if not stream.pushed:
            try:
                state.outstanding.remove(stream.url)
            except ValueError:
                pass
        state.popped += 1
        self._response_arrived(state, stream.url, response)

    def _on_mux_body_chunk(self, stream: _MuxStream, response: Response,
                           chunk: bytes) -> None:
        if self.on_body_progress is not None:
            total = self._body_progress.get(stream.url, 0) + len(chunk)
            self._body_progress[stream.url] = total
            self.on_body_progress(stream.url, response, total, chunk)
        self._scan_chunk(stream, response, chunk)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _connection_gone(self, state) -> None:
        if isinstance(state, _MuxConnState):
            state.collect_unfinished()
        super()._connection_gone(state)
