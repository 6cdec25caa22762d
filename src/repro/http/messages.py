"""HTTP request and response message objects.

Both HTTP/1.0 (RFC 1945) and HTTP/1.1 (RFC 2068) messages are modelled.
Serialization is byte-exact — the paper's Bytes column and its
observation that the libwww robot's requests average ~190 bytes both
depend on real wire sizes, so nothing here is approximated.

A request head is serialized by one function, :func:`request_head`,
once per distinct ``(method, target, version, fields)`` (the
``http.wire-heads`` memo).  :meth:`Request.to_bytes` calls it, and so
does the robot, which keeps a request as ``(method, wire bytes)`` and
builds no :class:`Request` or :class:`Headers` to send one.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from ..memo import Memo
from .headers import Headers

__all__ = ["Request", "Response", "HTTP10", "HTTP11", "version_string",
           "request_head", "STATUS_REASONS"]

#: Protocol version constants.
HTTP10: Tuple[int, int] = (1, 0)
HTTP11: Tuple[int, int] = (1, 1)

#: Reason phrases for the status codes this reproduction uses.
STATUS_REASONS = {
    200: "OK",
    204: "No Content",
    206: "Partial Content",
    226: "IM Used",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    412: "Precondition Failed",
    416: "Requested Range Not Satisfiable",
    500: "Internal Server Error",
    505: "HTTP Version Not Supported",
}


#: Serialized request heads: ``(method, target, version, fields)`` →
#: the head bytes.
_WIRE_HEADS = Memo("http.wire-heads", 4096)


def version_string(version: Tuple[int, int]) -> str:
    """Format a version tuple as e.g. ``HTTP/1.1``."""
    return f"HTTP/{version[0]}.{version[1]}"


def request_head(method: str, target: str, version: Tuple[int, int],
                 fields: Tuple[Tuple[str, str], ...]) -> bytes:
    """The wire bytes of a request's head: request line, ``fields`` as
    ``Name: value`` lines, and the blank line (values must be ``str``)."""
    key = (method, target, version, fields)
    head = _WIRE_HEADS.get(key)
    if head is None:
        head = _WIRE_HEADS.store(key, "".join([
            f"{method} {target} {version_string(version)}\r\n",
            *[f"{name}: {value}\r\n" for name, value in fields],
            "\r\n"]).encode("latin-1"))
    return head


def parse_version(text: str) -> Tuple[int, int]:
    """Parse ``HTTP/x.y`` into a version tuple."""
    if not text.startswith("HTTP/"):
        raise ValueError(f"bad HTTP version: {text!r}")
    major, sep, minor = text[5:].partition(".")
    if not sep:
        raise ValueError(f"bad HTTP version: {text!r}")
    return int(major), int(minor)


@dataclasses.dataclass
class Request:
    """An HTTP request.

    ``target`` is the request-URI path (this study always talks to a
    single origin server, so absolute URIs are not needed).

    ``head`` is set only by :class:`~repro.http.parser.RequestParser`:
    the exact head-block bytes this request was parsed from, which
    determine everything but the body — the key a server memoizes its
    response head under.  Hand-built requests leave it ``None``.
    """

    method: str
    target: str
    version: Tuple[int, int] = HTTP11
    headers: Headers = dataclasses.field(default_factory=Headers)
    body: bytes = b""
    head: Optional[bytes] = dataclasses.field(default=None, repr=False,
                                              compare=False)

    def to_bytes(self) -> bytes:
        """Exact wire serialization."""
        return request_head(self.method, self.target, self.version,
                            tuple(self.headers._items)) + self.body


@dataclasses.dataclass
class Response:
    """An HTTP response.

    ``request_method`` records the method of the request being answered,
    which determines whether the response carries a body on the wire
    (HEAD and 304/204 responses never do).
    """

    status: int
    version: Tuple[int, int] = HTTP11
    headers: Headers = dataclasses.field(default_factory=Headers)
    body: bytes = b""
    reason: Optional[str] = None
    request_method: str = "GET"

    @property
    def reason_phrase(self) -> str:
        """The reason phrase, defaulting from the status code."""
        if self.reason is not None:
            return self.reason
        return STATUS_REASONS.get(self.status, "Unknown")

    def body_on_wire(self) -> bytes:
        """The entity bytes actually transmitted."""
        if self.request_method == "HEAD" or self.status in (204, 304):
            return b""
        return self.body

    def to_bytes(self) -> bytes:
        """Exact wire serialization."""
        status_line = (f"{version_string(self.version)} {self.status} "
                       f"{self.reason_phrase}\r\n")
        return (status_line.encode("latin-1") + self.headers.to_bytes()
                + b"\r\n" + self.body_on_wire())

    def allows_keep_alive(self) -> bool:
        """Whether the connection may carry further requests."""
        if self.version >= HTTP11:
            return not self.headers.contains_token("Connection", "close")
        return self.headers.contains_token("Connection", "keep-alive")
