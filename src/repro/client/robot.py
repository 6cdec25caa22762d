"""The libwww-robot-style web client.

Its modes differ only in connection policy: two request disciplines
over one ledger of connections.

* **Serial**: an origin's queue fills its idle live connections, then
  opens new ones up to a limit; one request is outstanding per
  connection.  HTTP/1.0 is this rule on up to four connections ("the
  same as Netscape Navigator's default") that the server closes after
  each response, revalidating with a plain GET of the HTML and HEADs of
  the images as libwww 4.1D did.  HTTP/1.1 persistent runs it on one
  connection: "the request / response sequence looks identical to
  HTTP/1.0 but all communication happens on the same TCP connection".
  Sharding runs it per origin, :data:`CONNECTIONS_PER_SHARD` each.
* **Pipelined**: the pending requests go out as one batch through
  :class:`~repro.client.pipeline.OutputBuffer` (1024-byte threshold,
  flush timer), flushed explicitly after the HTML request, with full
  HTTP/1.1 validation (``If-None-Match``, entity tags).  With deflate
  the HTML request advertises ``Accept-Encoding: deflate`` and the body
  is inflated on the fly, so a compressed first segment discovers the
  embedded images sooner (the paper's "Why Compression is Important").
  The MUX client sends the same batch as frames.

The ledger: ``Robot._conns`` holds the un-retired states (a half-closed
one until TCP reaches ``CLOSED``), ``Robot._live`` the open ones, both
in opening order; only :meth:`_Connection.shut` takes one out of it.

The robot parses HTML *incrementally*: every arriving body chunk is
scanned for new ``<img>`` URLs, and discovered images are requested
immediately (batched by the output buffer in pipelined mode).  It also
survives servers that close mid-pipeline (Apache 1.2b2's five-request
limit): unanswered requests are re-issued on a fresh connection.

A request is its wire bytes.  :meth:`Robot._build_request` returns
``(method, wire)``: the robot's base fields (a tuple built once) plus
the extras the configuration, scenario and cache call for, serialized
by :func:`~repro.http.messages.request_head`, the serializer
:meth:`Request.to_bytes` uses, so a warm request is one memo lookup and
builds no :class:`Request` or :class:`Headers`.  A batch the robot
will flush itself goes through :meth:`OutputBuffer.begin_batch`, so it
arms no flush timer only to cancel it.
"""

from __future__ import annotations

import dataclasses
import zlib
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from ..faults.recovery import RecoveryLog
from ..http import (HTTP10, HTTP11, MemoryCache, ParseError, Response,
                    ResponseParser)
from ..http.messages import request_head
from .discovery import IncrementalImageScanner
from ..simnet.engine import Simulator
from ..simnet.tcp import TcpConnection, TcpStack
from .pipeline import OutputBuffer

__all__ = ["ClientConfig", "FetchResult", "Robot", "FIRST_TIME",
           "REVALIDATE", "TAIL_MARKER"]

FIRST_TIME = "first-time"
REVALIDATE = "revalidate"

#: Internal suffix distinguishing the tail fetch of a ranged image from
#: its prefix fetch (never appears on the wire).
TAIL_MARKER = "\x00tail"

#: Total connection-retry budget for one fetch; exceeding it records a
#: terminal error instead of re-queueing forever.
RETRY_BUDGET = 64
#: Consecutive connection failures *without a single response* tolerated
#: before giving up (a server that always closes before answering must
#: not loop forever).
MAX_CONSECUTIVE_FAILURES = 5
#: Exponential backoff before re-dispatching after a zero-progress
#: failure: ``base * 2**(failures-1)`` seconds, capped at ``max``.
RETRY_BACKOFF_BASE = 0.1
RETRY_BACKOFF_MAX = 5.0
#: Times to re-issue a request answered with a 5xx before accepting the
#: error response as final.
RETRY_SERVER_ERRORS = 3
#: The sharded transport's geometry: content hashed across four origins,
#: with up to two redundant persistent connections to each.
SHARDS = 4
CONNECTIONS_PER_SHARD = 2


@dataclasses.dataclass
class ClientConfig:
    """Behavioural knobs of the robot (see module docstring)."""

    http_version: Tuple[int, int] = HTTP11
    #: Maximum simultaneous TCP connections (4 = Navigator's default).
    max_connections: int = 1
    #: Pipeline requests on persistent connections.
    pipeline: bool = False
    #: Ask HTTP/1.0 servers to keep the connection open.
    keep_alive: bool = False
    #: Advertise ``Accept-Encoding: deflate`` on the HTML request.
    accept_deflate: bool = False
    #: Pipeline output buffer threshold ("1024 bytes is a good
    #: compromise") and flush timer (1 s initially, 50 ms in the final
    #: runs; None = no timer).
    output_buffer_size: int = 1024
    flush_timeout: Optional[float] = 0.05
    #: Flush explicitly after the HTML request / at end of a known batch.
    explicit_flush: bool = True
    #: Revalidation style: "conditional" (HTTP/1.1 Conditional GETs),
    #: "get-plus-head" (old libwww: GET the HTML, HEAD the images), or
    #: "conditional-or-head" (product-browser style: conditional GET
    #: when a usable validator is cached, HEAD for images otherwise).
    reval_strategy: str = "conditional"
    #: Prefer entity tags ("etag") or dates ("date") as validators.
    validator_preference: str = "etag"
    #: Fall back to the stored response ``Date`` when the server sent no
    #: ``Last-Modified`` (a Navigator heuristic; IE did not do this).
    allow_date_fallback: bool = False
    #: CPU seconds to process one response (serial client CPU).
    per_response_cpu: float = 0.002
    user_agent: str = "W3CRobot/5.1 libwww/5.1"
    #: Extra request headers (browser profiles are more verbose).
    extra_headers: Tuple[Tuple[str, str], ...] = ()
    #: Fetch embedded images discovered in the HTML.  False reproduces
    #: the paper's §8.2.1 modem test: "the HTML retrieval (a single
    #: HTTP GET request) only with no embedded objects".
    follow_images: bool = True
    #: "Poor man's multiplexing": request only the first N bytes of each
    #: image first (enough for its metadata/dimensions), then fetch the
    #: tails.  None disables ranged fetching.
    range_prefix_bytes: Optional[int] = None
    # -- Hardening knobs (fault tolerance; None on a clean run, so it
    # -- takes identical code paths and schedules no extra events).
    #: Abort a connection when no data has arrived for this many seconds
    #: while requests are outstanding (None = no watchdog).
    watchdog_timeout: Optional[float] = None
    #: Step down the downgrade ladder (pipelined → serialized →
    #: one-shot) after this many connections died with unanswered
    #: requests (None = never downgrade).
    downgrade_after: Optional[int] = None
    #: Number of simulated origins the content is hashed across: 0 (one
    #: origin) or :data:`SHARDS` (the sharded transport, each origin on
    #: ``server_port + shard``).  The serial rule runs per origin either
    #: way.
    shards: int = 0


@dataclasses.dataclass
class FetchResult:
    """Outcome of one page fetch."""

    responses: Dict[str, Response] = dataclasses.field(default_factory=dict)
    completed_at: Optional[float] = None
    started_at: float = 0.0
    connections_used: int = 0
    max_parallel_connections: int = 0
    retries: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)
    request_bytes: int = 0
    requests_sent: int = 0
    #: Fault hits and recovery actions taken during the fetch (shared
    #: with the fault injector / server when one is active).
    recovery: RecoveryLog = dataclasses.field(default_factory=RecoveryLog)
    #: Set when the robot gave up (retry budget exhausted, repeated
    #: zero-progress failures); ``complete`` stays False.
    terminal_error: Optional[str] = None

    @property
    def elapsed(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    @property
    def complete(self) -> bool:
        return self.completed_at is not None

    @property
    def mean_request_bytes(self) -> float:
        if not self.requests_sent:
            return 0.0
        return self.request_bytes / self.requests_sent


def _range_has_tail(response: Response) -> bool:
    """True when a 206's Content-Range shows bytes remain after it."""
    spec = response.headers.get("Content-Range", "")
    try:
        span, total_text = spec.split()[1].split("/")
        end = int(span.split("-")[1])
        return end < int(total_text) - 1
    except (IndexError, ValueError):
        return False


class _Connection:
    """What every client connection state is: the TCP connection, its
    output buffer, the requests it owes, the watchdog and the one exit.
    A subclass adds the wire format (``send_request``, ``_on_data``)."""

    def __init__(self, robot: "Robot", shard: Optional[int]) -> None:
        self.robot = robot
        self.shard = shard
        self.conn: TcpConnection = robot.stack.connect(
            robot.server_host, robot.server_port + (shard or 0))
        # TCP_NODELAY on every client connection: the paper's
        # recommendation.
        self.conn.set_nodelay(True)
        self.buffer = OutputBuffer(
            robot.sim, self.conn, size=robot.config.output_buffer_size,
            flush_timeout=robot.config.flush_timeout)
        self.outstanding: Deque[str] = deque()
        self.popped = 0          # responses removed from outstanding
        self.open = True
        #: Watchdog: standing event chasing ``deadline`` (the lazy-timer
        #: pattern — progress just moves the attribute, the event
        #: re-schedules itself if it fires early).  None when the
        #: watchdog is disabled or idle.
        self.watchdog_event = None
        self.deadline = 0.0
        self.conn.on_data = self._on_data
        self.conn.on_eof = self._on_eof
        self.conn.on_reset = self._on_reset
        self.conn.on_closed = self.retire

    def cancel_watchdog(self) -> None:
        if self.watchdog_event is not None:
            self.robot.sim.cancel(self.watchdog_event)
            self.watchdog_event = None

    def retire(self, _conn: Optional[TcpConnection] = None) -> None:
        """The one exit, taken once the TCP connection is ``CLOSED``:
        state and robot let go of each other (a subclass first drops
        the reader callbacks that close over both).  A robot whose last
        state retired goes with its pending events, cache and all."""
        self.shut()
        self.cancel_watchdog()
        if self in self.robot._conns:
            self.robot._conns.remove(self)

    def shut(self) -> None:
        """The one place ``open`` goes False: leave the robot's ``_live``."""
        if self.open:
            self.open = False
            self.robot._live.remove(self)

    def _on_eof(self, _conn: TcpConnection) -> None:
        self.shut()
        self.conn.close()
        self.robot._connection_gone(self)

    def _on_reset(self, _conn: TcpConnection) -> None:
        self.shut()
        self.robot.result.errors.append(
            f"connection reset with {len(self.outstanding)} outstanding")
        self.robot._connection_gone(self)


class _ConnState(_Connection):
    """One plain-HTTP connection: a response parser over the stream."""

    def __init__(self, robot: "Robot", shard: Optional[int]) -> None:
        super().__init__(robot, shard)
        self.parser = ResponseParser()
        self.parser.on_body_chunk = (
            lambda response, chunk:
            robot._on_body_chunk(self, response, chunk))
        #: The response, once ``Robot._scan_chunk`` found it is not HTML.
        self.unscanned: Optional[Response] = None

    def retire(self, _conn: Optional[TcpConnection] = None) -> None:
        self.parser.on_body_chunk = None
        super().retire()

    # ------------------------------------------------------------------
    def send_request(self, url: str, request: Tuple[str, bytes],
                     flush: bool) -> None:
        method, wire = request
        self.parser.expect(method)
        self.outstanding.append(url)
        self.robot.result.request_bytes += len(wire)
        self.robot.result.requests_sent += 1
        self.buffer.write(wire, flush)
        self.robot._arm_watchdog(self)

    # ------------------------------------------------------------------
    def _on_data(self, _conn: TcpConnection, data: bytes) -> None:
        timeout = self.robot.config.watchdog_timeout
        if timeout is not None:
            self.deadline = self.robot.sim.now + timeout
        try:
            responses = self.parser.feed(data)
        except ParseError as exc:
            self.robot.result.errors.append(f"parse error: {exc}")
            self.robot._abort(self)
            return
        for response in responses:
            url = self.outstanding.popleft()
            self.popped += 1
            self.robot._response_arrived(self, url, response)

    def _on_eof(self, _conn: TcpConnection) -> None:
        try:
            self.parser.eof()
        except ParseError as exc:
            self.robot.result.errors.append(f"truncated response: {exc}")
        super()._on_eof(_conn)


class Robot:
    """Fetch a page and its embedded objects over the simulated network."""

    #: Connection-state class; the MUX client substitutes its own.
    _conn_class = _ConnState

    def __init__(self, sim: Simulator, stack: TcpStack, server_host: str,
                 server_port: int = 80,
                 config: Optional[ClientConfig] = None,
                 cache: Optional[MemoryCache] = None) -> None:
        self.sim = sim
        self.stack = stack
        self.server_host = server_host
        self.server_port = server_port
        self.config = config or ClientConfig()
        self.cache = cache if cache is not None else MemoryCache()
        self.result = FetchResult()
        #: The ledger (module docstring): un-retired states, open states.
        self._conns: List[_Connection] = []
        self._live: List[_Connection] = []
        self._pending: Deque[str] = deque()
        #: Per-shard request queues (empty list when not sharding).
        self._shard_queues: List[Deque[str]] = [
            deque() for _ in range(self.config.shards)]
        #: Every URL the page has asked for, in order (the dict is an
        #: ordered set), and those still waiting for their response.
        self._expected: Dict[str, None] = {}
        self._unhandled: Set[str] = set()
        self._scenario = FIRST_TIME
        self._html_url: Optional[str] = None
        self._html_complete = False
        #: The HTML response the scan state (scanner, inflater) belongs
        #: to: a re-fetched page never continues a cut copy's scan.
        self._scanned: Optional[Response] = None
        self._scanner = IncrementalImageScanner()
        self._inflater: Optional["zlib._Decompress"] = None
        self._cpu_free_at = 0.0
        self._started = False
        #: Consecutive zero-response connection failures, per origin
        #: (keyed by shard index; ``None`` = the single-origin modes).
        self._consecutive_failures: Dict[Optional[int], int] = {}
        #: Connections that died with unanswered requests (feeds the
        #: downgrade ladder) and the current ladder position: 0 = as
        #: configured, 1 = persistent-serialized, 2 = one-shot.
        self._pipeline_kills = 0
        self._downgrade_level = 0
        self._server_error_retries: Dict[str, int] = {}
        self.on_complete: Optional[Callable[[FetchResult], None]] = None
        #: Optional instrumentation hooks (used by repro.core.render):
        #: on_response(url, response) fires when a response is handled;
        #: on_body_progress(url, response, bytes_so_far, chunk) fires
        #: for every body chunk as it arrives off the wire.
        self.on_response: Optional[Callable[[str, Response], None]] = None
        self.on_body_progress: Optional[
            Callable[[str, Response, int, bytes], None]] = None
        self._body_progress: Dict[str, int] = {}
        #: The fields every request of this robot starts with.
        self._base_fields: Tuple[Tuple[str, str], ...] = (
            ("Host", server_host), ("User-Agent", self.config.user_agent),
            ("Accept", "*/*"), *self.config.extra_headers)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def fetch(self, html_url: str, scenario: str = FIRST_TIME,
              known_urls: Optional[List[str]] = None) -> FetchResult:
        """Start fetching; run the simulator to make progress.

        ``known_urls`` (for :data:`REVALIDATE`) defaults to every URL in
        the cache, HTML first — the robot validates them all without
        waiting for the HTML body.
        """
        if self._started:
            raise RuntimeError("robot instances are single-use")
        self._started = True
        self._scenario = scenario
        self._html_url = html_url
        self.result.started_at = self.sim.now
        if scenario == REVALIDATE:
            urls = known_urls
            if urls is None:
                urls = [html_url] + [u for u in self.cache.urls()
                                     if u != html_url]
            for url in urls:
                self._expect(url)
            self._html_complete = True
        else:
            self._expect(html_url)
        self._dispatch()
        return self.result

    # ------------------------------------------------------------------
    # Request construction
    # ------------------------------------------------------------------
    def _build_request(self, url: str) -> Tuple[str, bytes]:
        """``(method, wire bytes)`` of the request for ``url``."""
        config = self.config
        tail_of: Optional[str] = None
        if url.endswith(TAIL_MARKER):
            tail_of = url[:-len(TAIL_MARKER)]
            url = tail_of
        is_html = url == self._html_url
        method = "GET"
        fields = self._base_fields
        if is_html and config.accept_deflate:
            fields += (("Accept-Encoding", "deflate"),)
        if config.http_version == HTTP10 and config.keep_alive:
            fields += (("Connection", "Keep-Alive"),)
        elif config.http_version >= HTTP11 and self._downgrade_level >= 2:
            # Fully downgraded: one request per connection, and the
            # server must not hold the connection open afterwards.
            fields += (("Connection", "close"),)
        prefix = config.range_prefix_bytes
        if prefix and not is_html and self._scenario == FIRST_TIME:
            if tail_of is not None:
                fields += (("Range", f"bytes={prefix}-"),)
            else:
                fields += (("Range", f"bytes=0-{prefix - 1}"),)
        if self._scenario == REVALIDATE:
            strategy = config.reval_strategy
            if strategy == "get-plus-head":
                if not is_html:
                    method = "HEAD"
            else:
                http11 = (config.http_version >= HTTP11
                          and config.validator_preference == "etag")
                validators = self.cache.conditional_headers(
                    url, http11=http11,
                    date_fallback=config.allow_date_fallback)
                if validators:
                    fields += validators
                elif strategy == "conditional-or-head" and not is_html:
                    # No usable validator: check the image's metadata
                    # with a HEAD instead of re-transferring it.
                    method = "HEAD"
        return method, request_head(method, url, config.http_version,
                                    fields)

    # ------------------------------------------------------------------
    # Dispatch: two disciplines
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        if self._finished():
            return
        config = self.config
        if self._pipelines():
            self._dispatch_pipelined()
        elif not config.shards:
            self._dispatch_serial(self._pending, None, config.max_connections)
        else:
            while self._pending:
                url = self._pending.popleft()
                self._shard_queues[self._shard_of(url)].append(url)
            for shard, queue in enumerate(self._shard_queues):
                self._dispatch_serial(queue, shard, CONNECTIONS_PER_SHARD)

    def _pipelines(self) -> bool:
        """Pipelined if configured, persistent, one origin, undowngraded."""
        config = self.config
        return (config.pipeline and not config.shards
                and self._downgrade_level == 0
                and (config.http_version >= HTTP11 or config.keep_alive))

    def _dispatch_serial(self, queue: Deque[str], shard: Optional[int],
                         limit: int) -> None:
        """Fill the origin's idle live connections (last opened first),
        then open new ones up to ``limit``.  Sharding is the late-90s
        workaround the MUX modes obsolete: more parallelism bought with
        extra handshakes and slow-starts."""
        if not queue:
            return
        live = [c for c in self._live if c.shard == shard]
        idle = [c for c in live if not c.outstanding]
        opened = len(live)
        while queue and (idle or opened < limit):
            url = queue.popleft()
            if idle:
                state = idle.pop()
            else:
                state = self._new_conn(shard)
                opened += 1
            state.send_request(url, self._build_request(url), flush=True)

    def _dispatch_pipelined(self) -> None:
        """Pipeline through the buffer over up to ``max_connections``
        persistent connections (the HTTP/1.1 specification permits two;
        the paper's tests use one, and discuss how splitting "divides
        the mean length of packet trains down by a factor of two")."""
        pending = self._pending
        if not pending:
            return
        config = self.config
        conns = self._live
        while (len(conns) < config.max_connections
               and len(pending) > len(conns)):
            self._new_conn()
        # The application knows no further requests are coming right now
        # (the HTML is fully parsed, or the batch was fully known): it
        # flushes after the loop rather than wait for the timer, so
        # the writes arm none (nothing in the loop calls back here).
        batch = config.explicit_flush and self._html_complete
        flush_html = config.explicit_flush and self._scenario == FIRST_TIME
        # Written states, flushed below in ``conns`` order: the first
        # write goes to conns[0], the rest round-robin from there.
        wrote: Dict[_Connection, None] = {}
        index = 0
        while pending:
            url = pending.popleft()
            if url == self._html_url:
                state = conns[0]
            else:
                state = conns[index % len(conns)]
                index += 1
            if batch:
                state.buffer.begin_batch()
            state.send_request(url, self._build_request(url),
                               flush=flush_html and url == self._html_url)
            wrote[state] = None
        if batch:
            for state in wrote:
                state.buffer.flush()

    def _shard_of(self, url: str) -> int:
        """Hash a URL to its origin (stable across the whole fetch)."""
        key = url[:-len(TAIL_MARKER)] if url.endswith(TAIL_MARKER) else url
        return zlib.crc32(key.encode("ascii", "replace")) \
            % self.config.shards

    def _new_conn(self, shard: Optional[int] = None) -> _Connection:
        state = self._conn_class(self, shard)
        self._conns.append(state)
        self._live.append(state)
        self.result.connections_used += 1
        self.result.max_parallel_connections = max(
            self.result.max_parallel_connections, len(self._live))
        return state

    # ------------------------------------------------------------------
    # Response path
    # ------------------------------------------------------------------
    def _response_arrived(self, state: _Connection, url: str,
                          response: Response) -> None:
        cost = self.config.per_response_cpu
        start = max(self.sim.now, self._cpu_free_at)
        self._cpu_free_at = start + cost
        self.sim.schedule_at(self._cpu_free_at, self._handle_response,
                             state, url, response)

    def _expect(self, url: str) -> None:
        self._expected[url] = None
        self._unhandled.add(url)
        self._pending.append(url)

    def _handle_response(self, state: _Connection, url: str,
                         response: Response) -> None:
        if 500 <= response.status < 600:
            attempts = self._server_error_retries.get(url, 0)
            if attempts < RETRY_SERVER_ERRORS:
                # Transient server error: re-issue the request rather
                # than accepting the error body as the resource.
                self._server_error_retries[url] = attempts + 1
                self.result.retries += 1
                self._note("retry-5xx",
                           f"{response.status} for {url} "
                           f"(attempt {attempts + 1})")
                self._pending.append(url)
                self._after_response(state, response)
                return
        if response.status in (200, 304) and response.request_method == "GET":
            body = response.body
            if response.headers.get("Content-Encoding") == "deflate" \
                    and response.status == 200:
                body = zlib.decompress(response.body)
                response = dataclasses.replace(response, body=body)
                response.headers.remove("Content-Encoding")
            self.cache.handle_response(url, response)
        self.result.responses[url] = response
        self._unhandled.discard(url)
        # A ranged image prefix: schedule the tail fetch unless the
        # prefix already covered the whole entity.
        if (self.config.range_prefix_bytes
                and self._scenario == FIRST_TIME
                and response.status == 206
                and not url.endswith(TAIL_MARKER)):
            tail_key = url + TAIL_MARKER
            if tail_key not in self._expected \
                    and _range_has_tail(response):
                self._expect(tail_key)
        if self.on_response is not None:
            self.on_response(url, response)
        if url == self._html_url and response.status == 200 \
                and self._scanner.bytes_seen != len(response.body):
            # The streamed scan did not cover this body (zero-chunk
            # path, revalidation, an inflater error): scan it whole.
            self._scanner = IncrementalImageScanner()
            self._discover(bytes(response.body))
        if url == self._html_url:
            self._html_complete = True
        self._after_response(state, response)

    def _after_response(self, state: _Connection,
                        response: Response) -> None:
        """Close what the response does not keep alive, and advance."""
        if not response.allows_keep_alive() and state.open:
            state.shut()
            state.conn.close()
        self._advance()

    # ------------------------------------------------------------------
    # Incremental HTML discovery
    # ------------------------------------------------------------------
    def _on_body_chunk(self, state: "_ConnState", response: Response,
                       chunk: bytes) -> None:
        """Called by the parser for every body byte-run as it arrives."""
        if self.on_body_progress is not None and state.outstanding:
            # Several responses can complete inside one parser feed;
            # index into the outstanding queue by how many this parser
            # has finished beyond those already popped.
            index = state.parser.messages_completed - state.popped
            if 0 <= index < len(state.outstanding):
                url = state.outstanding[index]
                total = self._body_progress.get(url, 0) + len(chunk)
                self._body_progress[url] = total
                self.on_body_progress(url, response, total, chunk)
        self._scan_chunk(state, response, chunk)

    def _scan_chunk(self, holder, response: Response, chunk: bytes) -> None:
        """Feed one body chunk to the scanner if it is the page's.

        ``holder`` (the connection or MUX stream, one response at a
        time) remembers a response found not to be HTML: the headers are
        read once per response, then a chunk costs an identity test.
        """
        if response is holder.unscanned or self._scenario != FIRST_TIME:
            return
        if response is not self._scanned:
            headers = response.headers
            if not headers.get("Content-Type", "").startswith("text/html"):
                holder.unscanned = response
                return
            self._scanned = response
            self._scanner = IncrementalImageScanner()
            self._inflater = None
            if headers.get("Content-Encoding") == "deflate":
                self._inflater = zlib.decompressobj()
        if self._inflater is not None:
            try:
                chunk = self._inflater.decompress(chunk)
            except zlib.error:
                return
        self._discover(chunk)

    def _discover(self, html_bytes: bytes) -> None:
        if not self.config.follow_images:
            return
        new_urls = self._scanner.feed(html_bytes)
        fresh = [u for u in new_urls if u not in self._expected]
        if not fresh:
            return
        for url in fresh:
            self._expect(url)
        self._dispatch()

    # ------------------------------------------------------------------
    # Retry / completion
    # ------------------------------------------------------------------
    def _note(self, kind: str, detail: str = "") -> None:
        self.result.recovery.note(self.sim.now, "client", kind, detail)

    def _arm_watchdog(self, state: _Connection) -> None:
        timeout = self.config.watchdog_timeout
        if timeout is None:
            return
        state.deadline = self.sim.now + timeout
        if state.watchdog_event is None:
            state.watchdog_event = self.sim.schedule(
                timeout, self._watchdog_fire, state)

    def _watchdog_fire(self, state: _Connection) -> None:
        state.watchdog_event = None
        if not state.open or self._finished():
            return
        if not state.outstanding:
            # Idle connection; the next send_request re-arms.
            return
        if self.sim.now < state.deadline:
            # Progress moved the deadline since we were scheduled:
            # chase it (the lazy-timer pattern).
            state.watchdog_event = self.sim.schedule_at(
                state.deadline, self._watchdog_fire, state)
            return
        self.result.errors.append(
            f"watchdog: no data for {self.config.watchdog_timeout:g}s "
            f"with {len(state.outstanding)} outstanding")
        self._note("watchdog",
                   f"{len(state.outstanding)} outstanding, popped "
                   f"{state.popped}")
        self._abort(state)

    def _abort(self, state: _Connection) -> None:
        """RST a connection the client gave up on (stalled, or talking
        garbage); what it still owed goes through the normal recovery."""
        state.shut()
        state.conn.abort()
        self._connection_gone(state)

    def _connection_gone(self, state: _Connection) -> None:
        state.cancel_watchdog()
        if state.conn.state == "CLOSED":
            state.retire()
        if self._finished():
            return
        if state.outstanding:
            # Server closed (or the watchdog killed) the connection with
            # unanswered requests: re-issue them on a fresh connection,
            # within a bounded budget.  Failure streaks are tracked per
            # origin (shard): eight origins stalling once each is eight
            # independent hiccups, not one dead server.
            self.result.retries += 1
            requeue = list(state.outstanding)
            state.outstanding.clear()
            origin = state.shard
            if state.popped:
                failures = self._consecutive_failures[origin] = 0
            else:
                failures = self._consecutive_failures[origin] = \
                    self._consecutive_failures.get(origin, 0) + 1
            self._note("retry",
                       f"requeue {len(requeue)} after connection loss")
            if self.result.retries > RETRY_BUDGET:
                self._fail(f"retry budget exhausted ({RETRY_BUDGET})")
                return
            if failures >= MAX_CONSECUTIVE_FAILURES:
                self._fail(f"{failures} consecutive "
                           f"connection failures without a response")
                return
            for url in reversed(requeue):
                self._pending.appendleft(url)
            self._maybe_downgrade()
            if failures:
                # Zero-progress failure: back off exponentially before
                # hammering the server again.
                delay = min(RETRY_BACKOFF_BASE * 2.0 ** (failures - 1),
                            RETRY_BACKOFF_MAX)
                self._note("backoff", f"{delay:g}s")
                self.sim.schedule(delay, self._advance)
                return
        self._advance()

    def _advance(self) -> None:
        """Dispatch what is pending, then see whether the page is done."""
        self._dispatch()
        self._check_complete()

    def _maybe_downgrade(self) -> None:
        """Step down pipelined → serialized → one-shot after repeated
        connection deaths with unanswered requests."""
        after = self.config.downgrade_after
        if after is None:
            return
        self._pipeline_kills += 1
        config = self.config
        persistent = (config.http_version >= HTTP11 or config.keep_alive)
        if (self._downgrade_level == 0 and config.pipeline and persistent
                and self._pipeline_kills >= after):
            self._downgrade_level = 1
            self._note("downgrade", "pipelined -> serialized")
        elif (self._downgrade_level <= 1 and persistent
                and self._pipeline_kills >= 2 * after):
            self._downgrade_level = 2
            self._note("downgrade", "serialized -> one-shot")

    def _fail(self, reason: str) -> None:
        if self._finished():
            return
        self.result.terminal_error = reason
        self.result.errors.append(f"terminal: {reason}")
        self._note("terminal", reason)
        for state in list(self._conns):
            state.conn.abort()
            state.retire()
        if self.on_complete is not None:
            self.on_complete(self.result)

    def _finished(self) -> bool:
        """The page completed, or the robot gave up on it."""
        result = self.result
        return (result.completed_at is not None
                or result.terminal_error is not None)

    def _check_complete(self) -> None:
        # Whatever is pending, queued or outstanding is unhandled, and
        # the HTML leaves ``_unhandled`` only as it completes.
        if self._unhandled or self._finished():
            return
        self.result.completed_at = self.sim.now
        for state in self._conns:
            state.cancel_watchdog()
        for state in list(self._live):
            state.buffer.flush()
            state.shut()
            state.conn.close()
        if self.on_complete is not None:
            self.on_complete(self.result)
