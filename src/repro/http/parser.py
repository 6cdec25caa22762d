"""Incremental HTTP message parsers.

Pipelining means messages arrive back-to-back in arbitrary TCP segment
chunks: a segment can end mid-header, a response can start in the middle
of a segment, several small 304 responses can share one segment (that is
the whole point of server-side response buffering).  Both parsers are
therefore fully incremental: :meth:`feed` accepts any byte slicing and
returns every message completed so far.

A message is framed one way.  Its head ends at the first CRLF CRLF, and
its lines are separated by CRLF, with no bare CR or LF and no folded
continuation lines.  A HEAD response, a 1xx, 204 or 304 has no body;
every other response carries exactly one ``Content-Length``, and a
request has the body its ``Content-Length`` gives (none without one).
Anything else — ``Transfer-Encoding``, a response that runs to close, a
``Content-Length`` that is not ASCII digits, an HTTP/0.9 request line —
is a :class:`ParseError`, never a guess.

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
from .headers import Headers
from .messages import Request, Response, parse_version

__all__ = ["ParseError", "RequestParser", "ResponseParser"]

#: Upper bound on a header block; longer blocks indicate a framing bug.
MAX_HEADER_BLOCK = 65536


class ParseError(ValueError):
    """Raised on malformed HTTP input."""


def _split_head(block: bytes) -> List[str]:
    """Split a head block into its CRLF-separated lines.

    A bare CR or LF anywhere in the block is a :class:`ParseError`.
    """
    lines = block.decode("latin-1").split("\r\n")
    breaks = len(lines) - 1
    if block.count(b"\r") != breaks or block.count(b"\n") != breaks:
        raise ParseError("bare CR or LF in a head")
    return lines


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


def _content_length(headers: Headers) -> Optional[int]:
    """The head's ``Content-Length``, or None if it has none.

    Every ``Content-Length`` field must be ASCII digits, and two fields
    must not disagree.  A head that carries ``Transfer-Encoding`` is
    refused: ``Content-Length`` is the only framing this layer reads.
    """
    lowered = headers._lower
    if "transfer-encoding" in lowered:
        raise ParseError("Transfer-Encoding is not supported")
    if "content-length" not in lowered:
        return None
    values = headers.get_all("Content-Length")
    for value in values:
        if not (value.isascii() and value.isdigit()):
            raise ParseError(f"bad Content-Length: {value!r}")
    if len(values) > 1 and len(set(map(int, values))) > 1:
        raise ParseError("conflicting Content-Length fields")
    return int(values[0])


class _RequestHead(NamedTuple):
    """Everything a request head's bytes determine, immutably."""

    method: str
    target: str
    version: Tuple[int, int]
    fields: Tuple[Tuple[str, str], ...]
    lowered: Tuple[str, ...]
    content_length: Optional[int]


#: ``head-block bytes → _RequestHead``.  Malformed heads raise and are
#: never stored.
_REQUEST_HEADS = Memo("http.request-heads", 4096)


def _parse_request_head(block: bytes) -> _RequestHead:
    """Parse a request's head block (request line + header lines)."""
    lines = _split_head(block)
    parts = lines[0].split()
    if len(parts) != 3:
        raise ParseError(f"malformed request line: {lines[0]!r}")
    method, target, version_text = parts
    version = _parse_version(version_text)
    headers = _parse_fields(lines[1:])
    return _RequestHead(
        method, target, version, tuple(headers), tuple(headers._lower),
        _content_length(headers))


class _BodyReader:
    """Reads the ``Content-Length`` bytes of the current message's body
    (a length of 0 for a bodyless message)."""

    def __init__(self, length: int) -> None:
        self.remaining = length
        self.chunks = bytearray()
        #: Body bytes consumed by the most recent :meth:`feed` call
        #: (drives streaming observers, e.g. incremental HTML parsing).
        self.last_consumed: bytes = b""

    def feed(self, buffer: bytearray) -> Optional[bytes]:
        """Consume body bytes from ``buffer``.

        Returns the complete body once available, else None.  Consumed
        bytes are removed from ``buffer``.
        """
        if self.remaining:
            take = min(self.remaining, len(buffer))
            self.last_consumed = bytes(buffer[:take])
            self.chunks += self.last_consumed
            del buffer[:take]
            self.remaining -= take
        if self.remaining:
            return None
        return bytes(self.chunks)


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
        end = self._buffer.find(b"\r\n\r\n")
        if end == -1:
            if len(self._buffer) > MAX_HEADER_BLOCK:
                raise ParseError("header block too large")
            # Skip stray leading CRLFs between pipelined requests.
            while self._buffer[:2] == b"\r\n":
                del self._buffer[:2]
            return False
        block = bytes(self._buffer[:end])
        del self._buffer[:end + 4]
        head = _REQUEST_HEADS.get(block)
        if head is None:
            head = _REQUEST_HEADS.store(block, _parse_request_head(block))
        self._current = Request(
            head.method, head.target, head.version,
            Headers._from_parts(head.fields, head.lowered), head=block)
        self._body = _BodyReader(head.content_length or 0)
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

    def eof(self) -> None:
        """Signal connection close: a response cut short is an error."""
        if self._current is not None:
            raise ParseError("connection closed mid-response")

    def _parse_head(self) -> bool:
        end = self._buffer.find(b"\r\n\r\n")
        if end == -1:
            if len(self._buffer) > MAX_HEADER_BLOCK:
                raise ParseError("header block too large")
            return False
        lines = _split_head(bytes(self._buffer[:end]))
        del self._buffer[:end + 4]
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
        length = _content_length(headers)
        method = (self._expected_methods.pop(0)
                  if self._expected_methods else "GET")
        if method == "HEAD" or status in (204, 304) or 100 <= status < 200:
            length = 0
        elif length is None:
            raise ParseError(f"no Content-Length: {status_line!r}")
        self._current = Response(status=status, version=version,
                                 headers=headers, reason=reason,
                                 request_method=method)
        self._body = _BodyReader(length)
        return True
