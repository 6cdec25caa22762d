"""Incremental HTTP message parsers.

Pipelining means messages arrive back-to-back in arbitrary TCP segment
chunks: a segment can end mid-header, a response can start in the middle
of a segment, several small 304 responses can share one segment (that is
the whole point of server-side response buffering).  Both parsers are
therefore fully incremental: :meth:`feed` accepts any byte slicing and
returns every message completed so far.

Body framing follows RFC 2068 §4.4: no body for HEAD / 204 / 304,
``Transfer-Encoding: chunked``, then ``Content-Length``, then (for
responses only) read-until-close, which HTTP/1.0 servers without
keep-alive still use.

Each distinct head is parsed once.  A request head is a pure function
of its bytes, and a robot population sends the same few hundred of them
over and over, so :class:`RequestParser` keeps ``head bytes → frozen
parsed head`` in ``_REQUEST_HEADS`` and runs :func:`_parse_request_head`
only on a miss; every request still gets its own mutable
:class:`Headers`.  A response head is *not* memoized whole — its
``Date`` line changes every simulated second — but its header lines are,
inside :meth:`Headers.from_lines`.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from ..memo import Memo
from .chunked import ChunkedDecoder
from .headers import Headers
from .messages import Request, Response, parse_version

__all__ = ["ParseError", "RequestParser", "ResponseParser"]

#: Upper bound on a header block; longer blocks indicate a framing bug.
MAX_HEADER_BLOCK = 65536


class ParseError(ValueError):
    """Raised on malformed HTTP input."""


def _find_header_end(buffer: bytearray) -> Tuple[int, int]:
    """Locate the end of the header block.

    Returns ``(end_of_headers, start_of_body)`` or ``(-1, -1)`` if the
    block is incomplete.  Accepts both CRLF and bare-LF line endings, as
    real 1997 servers had to.
    """
    crlf = buffer.find(b"\r\n\r\n")
    if crlf == -1:
        lf = buffer.find(b"\n\n")
        return (lf, lf + 2) if lf != -1 else (-1, -1)
    # A bare-LF terminator only matters if it ends *before* the CRLF
    # one, so the search stops there instead of walking every pipelined
    # message queued behind this head.
    lf = buffer.find(b"\n\n", 0, crlf)
    if lf != -1:
        return lf, lf + 2
    return crlf, crlf + 4


def _split_header_block(block: bytes) -> List[str]:
    """Split a raw header block into decoded lines."""
    text = block.decode("latin-1")
    return text.replace("\r\n", "\n").split("\n")


def _parse_fields(lines: List[str]) -> Headers:
    """:meth:`Headers.from_lines`, malformed lines as :class:`ParseError`."""
    try:
        return Headers.from_lines(lines)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _parse_version(text: str) -> Tuple[int, int]:
    """:func:`parse_version`, a bad token as :class:`ParseError`."""
    try:
        return parse_version(text)
    except ValueError:
        raise ParseError(f"bad HTTP version: {text!r}") from None


class _RequestHead(NamedTuple):
    """Everything a request head's bytes determine, immutably."""

    method: str
    target: str
    version: Tuple[int, int]
    fields: Tuple[Tuple[str, str], ...]
    lowered: Tuple[str, ...]
    chunked: bool
    content_length: Optional[int]


#: ``head-block bytes → _RequestHead``.  Malformed heads raise and are
#: never stored.
_REQUEST_HEADS = Memo("http.request-heads", 4096)


def _parse_request_head(block: bytes) -> _RequestHead:
    """Parse a request's head block (request line + header lines)."""
    lines = _split_header_block(block)
    request_line = lines[0]
    parts = request_line.split()
    if len(parts) == 2:
        # HTTP/0.9 simple request: "GET /path".
        method, target = parts
        version = (0, 9)
    elif len(parts) == 3:
        method, target, version_text = parts
        version = _parse_version(version_text)
    else:
        raise ParseError(f"malformed request line: {request_line!r}")
    headers = _parse_fields(lines[1:])
    return _RequestHead(
        method, target, version, tuple(headers), tuple(headers._lower),
        headers.contains_token("Transfer-Encoding", "chunked"),
        headers.get_int("Content-Length"))


class _BodyReader:
    """Tracks body framing for the message currently being read."""

    def __init__(self, mode: str, length: int = 0) -> None:
        self.mode = mode                   # none | length | chunked | close
        self.remaining = length
        self.chunks = bytearray()
        self.chunked = ChunkedDecoder() if mode == "chunked" else None
        #: Body bytes consumed by the most recent :meth:`feed` call
        #: (drives streaming observers, e.g. incremental HTML parsing).
        self.last_consumed: bytes = b""

    def feed(self, buffer: bytearray) -> Optional[bytes]:
        """Consume body bytes from ``buffer``.

        Returns the complete body once available, else None.  Consumed
        bytes are removed from ``buffer``.
        """
        if self.mode == "none":
            self.last_consumed = b""
            return bytes(self.chunks)
        if self.mode == "length":
            take = min(self.remaining, len(buffer))
            self.last_consumed = bytes(buffer[:take])
            self.chunks.extend(buffer[:take])
            del buffer[:take]
            self.remaining -= take
            if self.remaining == 0:
                return bytes(self.chunks)
            return None
        if self.mode == "chunked":
            assert self.chunked is not None
            before = len(self.chunked._payload)
            done = self.chunked.feed_buffer(buffer)
            self.last_consumed = bytes(self.chunked._payload[before:])
            if done:
                return self.chunked.payload()
            return None
        # close-delimited: consume everything; finished only at EOF.
        self.last_consumed = bytes(buffer)
        self.chunks.extend(buffer)
        del buffer[:]
        return None


class RequestParser:
    """Incremental parser for a stream of HTTP requests.

    >>> parser = RequestParser()
    >>> parser.feed(b"GET /a HTTP/1.1\\r\\nHost: h\\r\\n\\r\\nGE")
    ... # doctest: +ELLIPSIS
    [Request(method='GET', target='/a', ...)]
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._current: Optional[Request] = None
        self._body: Optional[_BodyReader] = None
        #: Total bytes fed (wire accounting for server statistics).
        self.bytes_fed = 0

    def feed(self, data: bytes) -> List[Request]:
        """Feed bytes; return all requests completed by this chunk."""
        self.bytes_fed += len(data)
        self._buffer.extend(data)
        completed: List[Request] = []
        while True:
            if self._current is None:
                if not self._parse_head():
                    break
            assert self._current is not None and self._body is not None
            body = self._body.feed(self._buffer)
            if body is None:
                break
            self._current.body = body
            completed.append(self._current)
            self._current = None
            self._body = None
        return completed

    def _parse_head(self) -> bool:
        end, body_start = _find_header_end(self._buffer)
        if end == -1:
            if len(self._buffer) > MAX_HEADER_BLOCK:
                raise ParseError("header block too large")
            # Skip stray leading CRLFs between pipelined requests.
            while self._buffer[:2] == b"\r\n":
                del self._buffer[:2]
            return False
        block = bytes(self._buffer[:end])
        del self._buffer[:body_start]
        head = _REQUEST_HEADS.get(block)
        if head is None:
            head = _REQUEST_HEADS.store(block, _parse_request_head(block))
        self._current = Request(
            head.method, head.target, head.version,
            Headers._from_parts(head.fields, head.lowered), head=block)
        if head.chunked:
            self._body = _BodyReader("chunked")
        elif head.content_length:
            self._body = _BodyReader("length", head.content_length)
        else:
            self._body = _BodyReader("none")
        return True


class ResponseParser:
    """Incremental parser for a stream of HTTP responses.

    A pipelined client must know the request method each response
    answers (a HEAD response has headers describing a body that never
    arrives).  Call :meth:`expect` once per request *in order*; the
    parser pops expectations as responses complete.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._expected_methods: List[str] = []
        self._current: Optional[Response] = None
        self._body: Optional[_BodyReader] = None
        self.bytes_fed = 0
        #: Total responses fully parsed (lets callers map streaming
        #: body callbacks to the right outstanding request even when
        #: several responses complete inside one ``feed`` call).
        self.messages_completed = 0
        #: Optional streaming observer called as ``(response, chunk)``
        #: for every body byte-run as it is consumed — the hook that
        #: lets a client parse HTML incrementally while it downloads.
        self.on_body_chunk = None

    def expect(self, method: str) -> None:
        """Register that the next unanswered request used ``method``."""
        self._expected_methods.append(method)

    @property
    def outstanding(self) -> int:
        """Number of expected responses not yet fully parsed."""
        return len(self._expected_methods) + (
            1 if self._current is not None else 0)

    def feed(self, data: bytes) -> List[Response]:
        """Feed bytes; return all responses completed by this chunk."""
        self.bytes_fed += len(data)
        self._buffer.extend(data)
        completed: List[Response] = []
        while True:
            if self._current is None:
                if not self._parse_head():
                    break
            assert self._current is not None and self._body is not None
            body = self._body.feed(self._buffer)
            if self.on_body_chunk is not None and self._body.last_consumed:
                self.on_body_chunk(self._current, self._body.last_consumed)
            if body is None:
                break
            self._current.body = body
            completed.append(self._current)
            self.messages_completed += 1
            self._current = None
            self._body = None
        return completed

    def eof(self) -> Optional[Response]:
        """Signal connection close; completes a close-delimited response."""
        if self._current is not None and self._body is not None \
                and self._body.mode == "close":
            self._current.body = bytes(self._body.chunks)
            response = self._current
            self._current = None
            self._body = None
            self.messages_completed += 1
            return response
        if self._current is not None:
            raise ParseError("connection closed mid-response")
        return None

    def _parse_head(self) -> bool:
        end, body_start = _find_header_end(self._buffer)
        if end == -1:
            if len(self._buffer) > MAX_HEADER_BLOCK:
                raise ParseError("header block too large")
            return False
        lines = _split_header_block(bytes(self._buffer[:end]))
        del self._buffer[:body_start]
        status_line = lines[0]
        parts = status_line.split(None, 2)
        if len(parts) < 2:
            raise ParseError(f"malformed status line: {status_line!r}")
        version = _parse_version(parts[0])
        try:
            status = int(parts[1])
        except ValueError:
            raise ParseError(
                f"malformed status line: {status_line!r}") from None
        reason = parts[2] if len(parts) > 2 else ""
        headers = _parse_fields(lines[1:])
        method = (self._expected_methods.pop(0)
                  if self._expected_methods else "GET")
        self._current = Response(status=status, version=version,
                                 headers=headers, reason=reason,
                                 request_method=method)
        self._body = self._choose_body(method, status, headers)
        return True

    @staticmethod
    def _choose_body(method: str, status: int,
                     headers: Headers) -> _BodyReader:
        if method == "HEAD" or status in (204, 304) or 100 <= status < 200:
            return _BodyReader("none")
        if headers.contains_token("Transfer-Encoding", "chunked"):
            return _BodyReader("chunked")
        length = headers.get_int("Content-Length")
        if length is not None:
            return _BodyReader("length", length)
        return _BodyReader("close")
