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

Each distinct head is parsed once.  A head is a pure function of its
bytes, and a robot population exchanges the same heads over and over,
so each parser keeps ``head bytes → frozen parsed head`` in a memo
(``_REQUEST_HEADS``, ``_RESPONSE_HEADS``) and runs the real parse only
on a miss; every message gets a :class:`Headers` that shares the memo's
frozen tuples until its first edit.
A response's ``Date`` line moves every simulated second, so a response
head is keyed without it: ``_cut_date`` holds the one leading-``Date``
rule (a first field named exactly ``Date`` is cut), the memo keeps the
fields after it, and each message gets its own ``Date`` spliced back
in (the ``Date: `` line the server writes is matched on the bytes
first).  Per pass that leaves 84 distinct keys in ``fleet_wan`` and in
``fleet_reval_contended`` (each object's answer in HTTP/1.0 and in
HTTP/1.1) and 618 in ``paper_grid``.  What depends on
the request method (the zero length of a HEAD, 1xx, 204 or 304 answer;
the missing-``Content-Length`` error) runs after the lookup for every
response, and a head is stored only once it has framed one.

Framing reads each fed segment by offset.  A head is one slice of the
segment, a body run is one slice (the segment itself when the run is
all of it), a body is one ``b"".join`` of its runs, and only a head
whose end has not arrived is carried to the next :meth:`feed`.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Optional, Tuple

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


class _ResponseHead(NamedTuple):
    """Everything a response head's bytes determine, immutably."""

    version: Tuple[int, int]
    status: int
    reason: str
    fields: Tuple[Tuple[str, str], ...]
    lowered: Tuple[str, ...]
    content_length: Optional[int]


#: ``head-block bytes less a leading Date line → _ResponseHead`` of
#: those bytes.  A head is stored once it has framed a response:
#: malformed heads, and heads refused for the method they answer, never
#: are.
_RESPONSE_HEADS = Memo("http.response-heads", 4096)


def _cut_date(block: bytes) -> Tuple[bytes, Optional[str]]:
    """Split a response head block's leading ``Date`` line off.

    This is the one leading-``Date`` rule the response-head memo keys
    by: a first field named exactly ``Date`` is cut.  The first line is
    read as :meth:`Headers.from_lines` reads it, so ``Date:x`` and
    ``Date :x`` are cut and ``date:`` and ``DATE:`` are not.  Returns
    the block without that line and its value, or the whole block and
    None; either way the first element is the memo key, and what it
    parses to is the head's fields after a leading ``Date``.  A
    malformed first line, or one with a bare CR or LF, is not cut, so
    the parse of the whole block refuses it.  (The server's templates
    have no ``Date``: it writes each response's own line itself.)

    The line the server writes, ``Date: `` followed by the value and
    CRLF, is matched on the bytes; the rule above decides every other
    first line (:func:`_cut_date_by_rule`).
    """
    status_end = block.find(b"\r\n")
    if block.startswith(b"\r\nDate: ", status_end):
        start = status_end + 8
        end = block.find(b"\r\n", start)
        if end != -1 and block.find(b"\r", start, end) == -1 \
                and block.find(b"\n", start, end) == -1:
            return (block[:status_end] + block[end:],
                    block[start:end].decode("latin-1").strip())
    return _cut_date_by_rule(block)


def _cut_date_by_rule(block: bytes) -> Tuple[bytes, Optional[str]]:
    """:func:`_cut_date` by its rule alone, on the decoded first line."""
    status_line, _, fields = block.partition(b"\r\n")
    line, crlf, rest = fields.partition(b"\r\n")
    name, colon, value = line.decode("latin-1").partition(":")
    if colon and name[:1] not in " \t" and b"\r" not in line \
            and b"\n" not in line and name.strip() == "Date":
        return status_line + crlf + rest, value.strip()
    return block, None


def _parse_response_head(block: bytes) -> _ResponseHead:
    """Parse a response's head block (status line + header lines)."""
    lines = _split_head(block)
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
    return _ResponseHead(
        version, status, reason, tuple(headers), tuple(headers._lower),
        _content_length(headers))


class _MessageParser:
    """The framing both parsers share.

    :meth:`feed` finds each head (up to its first CRLF CRLF), asks
    :meth:`_message` for the message and its body length, and reads that
    many body bytes; a bodyless message completes at its head.
    """

    #: Skip stray CRLFs ahead of each head (requests only: RFC 2068
    #: §4.1 has a server ignore empty lines where a request is due).
    _SKIP_LEADING_CRLFS = False

    def __init__(self) -> None:
        #: A head whose end has not arrived yet (nothing else is
        #: carried from one :meth:`feed` to the next).
        self._buffer = b""
        #: The message whose body is being read, its runs so far and
        #: the count of bytes still to come.
        self._current = None
        self._runs: List[bytes] = []
        self._remaining = 0
        #: Total messages fully parsed (lets callers map streaming
        #: body callbacks to the right outstanding request even when
        #: several messages complete inside one ``feed`` call).
        self.messages_completed = 0
        #: Optional streaming observer called as ``(message, chunk)``
        #: for every body byte-run as it is consumed — the hook that
        #: lets a client parse HTML incrementally while it downloads.
        self.on_body_chunk = None

    def feed(self, data: bytes) -> List[Any]:
        """Feed bytes; return all messages completed by this chunk.

        ``data`` is read by offset: a head is one slice of it, a body
        run one slice (``data`` itself when the run is all of it), and
        only a head whose end has not arrived is kept for the next feed.
        Any other bytes-like ``data`` is copied to ``bytes`` first, so
        nothing kept refers to the caller's buffer.
        """
        if self._buffer:
            data = self._buffer + data
            self._buffer = b""
        elif type(data) is not bytes:
            data = bytes(data)
        completed = []
        pos = 0
        message = self._current
        while True:
            if message is None:
                if self._SKIP_LEADING_CRLFS:
                    while data.startswith(b"\r\n", pos):
                        pos += 2
                end = data.find(b"\r\n\r\n", pos)
                if end == -1:
                    break
                message, length = self._message(data[pos:end])
                pos = end + 4
                if not length:
                    completed.append(message)
                    self.messages_completed += 1
                    message = None
                    continue
                self._current, self._remaining, self._runs = \
                    message, length, []
            remaining = self._remaining
            take = len(data) - pos
            if take:
                if take > remaining:
                    take = remaining
                chunk = data if take == len(data) else data[pos:pos + take]
                pos += take
                remaining -= take
                self._remaining = remaining
                self._runs.append(chunk)
                if self.on_body_chunk is not None:
                    self.on_body_chunk(message, chunk)
            if remaining:
                return completed
            message.body = b"".join(self._runs)
            self._current = None
            completed.append(message)
            self.messages_completed += 1
            message = None
        # What is left starts a head whose end has not arrived.
        if pos < len(data):
            if len(data) - pos > MAX_HEADER_BLOCK:
                raise ParseError("header block too large")
            self._buffer = data[pos:]
        return completed

    def _message(self, block: bytes) -> Tuple[Any, int]:
        """The message a head block starts, and its body length."""
        raise NotImplementedError


class RequestParser(_MessageParser):
    """Incremental parser for a stream of HTTP requests.

    >>> parser = RequestParser()
    >>> parser.feed(b"GET /a HTTP/1.1\\r\\nHost: h\\r\\n\\r\\nGE")
    ... # doctest: +ELLIPSIS
    [Request(method='GET', target='/a', ...)]
    """

    _SKIP_LEADING_CRLFS = True

    def _message(self, block: bytes) -> Tuple[Request, int]:
        head = _REQUEST_HEADS.get(block)
        if head is None:
            head = _REQUEST_HEADS.store(block, _parse_request_head(block))
        method, target, version, fields, lowered, length = head
        return Request(method, target, version,
                       Headers._from_parts(fields, lowered), b"",
                       block), length or 0


class ResponseParser(_MessageParser):
    """Incremental parser for a stream of HTTP responses.

    A pipelined client must know the request method each response
    answers (a HEAD response has headers describing a body that never
    arrives).  Call :meth:`expect` once per request *in order*; the
    parser pops expectations as responses complete.
    """

    def __init__(self) -> None:
        super().__init__()
        self._expected_methods: List[str] = []

    def expect(self, method: str) -> None:
        """Register that the next unanswered request used ``method``."""
        self._expected_methods.append(method)

    @property
    def outstanding(self) -> int:
        """Number of expected responses not yet fully parsed."""
        return len(self._expected_methods) + (
            1 if self._current is not None else 0)

    def eof(self) -> None:
        """Signal connection close: a response cut short is an error."""
        if self._current is not None:
            raise ParseError("connection closed mid-response")

    def _message(self, block: bytes) -> Tuple[Response, int]:
        key, date = _cut_date(block)
        cached = _RESPONSE_HEADS.get(key)
        head = cached or _parse_response_head(key)
        # What the request method decides runs for every response, and
        # a head is kept only once it has framed one.
        version, status, reason, fields, lowered, length = head
        expected = self._expected_methods
        method = expected.pop(0) if expected else "GET"
        if method == "HEAD" or status in (204, 304) or 100 <= status < 200:
            length = 0
        elif length is None:
            status_line = block.split(b"\r\n", 1)[0].decode("latin-1")
            raise ParseError(f"no Content-Length: {status_line!r}")
        if cached is None:
            _RESPONSE_HEADS.store(key, head)
        if date is not None:
            fields = (("Date", date),) + fields
            lowered = ("date",) + lowered
        return Response(status, version, Headers._from_parts(fields, lowered),
                        b"", reason, method), length
