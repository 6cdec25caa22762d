"""Byte-range requests and ``If-Range`` (RFC 2068 §14.36, §14.27).

The paper argues that HTTP/1.1 clients should combine cache validation
with ranged requests — fetch just the first bytes of each embedded
image (enough for the metadata that page layout needs) over a single
connection, a style it names **"poor man's multiplexing"**.  This module
implements the server and client sides of that idiom; the
``examples/range_multiplexing.py`` script demonstrates it end to end.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from .headers import Headers

__all__ = ["ByteRange", "parse_range_header", "content_range",
           "apply_range", "if_range_matches",
           "encode_multipart_byteranges", "MULTIPART_BOUNDARY"]

#: Fixed multipart boundary (1997 servers used constants like this one).
MULTIPART_BOUNDARY = "THIS_STRING_SEPARATES"


@dataclasses.dataclass(frozen=True)
class ByteRange:
    """A resolved byte range: inclusive ``start``..``end`` offsets."""

    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    def slice(self, body: bytes) -> bytes:
        """Extract the ranged bytes from ``body``."""
        return body[self.start:self.end + 1]


def parse_range_header(value: str, entity_length: int) -> List[ByteRange]:
    """Resolve a ``Range: bytes=...`` header against an entity length.

    Returns the satisfiable ranges in request order; an empty list means
    the whole header is unsatisfiable (⇒ 416).  Raises ``ValueError``
    for syntactically invalid headers (⇒ ignore the header per RFC).
    """
    value = value.strip()
    if not value.lower().startswith("bytes="):
        raise ValueError(f"unsupported range unit: {value!r}")
    ranges: List[ByteRange] = []
    for spec in value[len("bytes="):].split(","):
        spec = spec.strip()
        if not spec:
            continue
        first, dash, last = spec.partition("-")
        if not dash:
            raise ValueError(f"malformed range spec: {spec!r}")
        if first == "":
            # Suffix range: final N bytes.
            suffix = int(last)
            if suffix <= 0:
                continue
            start = max(0, entity_length - suffix)
            end = entity_length - 1
        else:
            start = int(first)
            end = int(last) if last else entity_length - 1
            if end >= entity_length:
                end = entity_length - 1
        if start > end or start >= entity_length:
            continue
        ranges.append(ByteRange(start, end))
    return ranges


def content_range(byte_range: ByteRange, entity_length: int) -> str:
    """Format a ``Content-Range`` header value."""
    return f"bytes {byte_range.start}-{byte_range.end}/{entity_length}"


def apply_range(body: bytes, headers: Headers,
                byte_range: ByteRange) -> bytes:
    """Slice ``body`` and set ``Content-Range``/``Content-Length``."""
    partial = byte_range.slice(body)
    headers.set("Content-Range", content_range(byte_range, len(body)))
    headers.set("Content-Length", str(len(partial)))
    return partial


def encode_multipart_byteranges(body: bytes, ranges: List[ByteRange],
                                content_type: str,
                                boundary: str = MULTIPART_BOUNDARY
                                ) -> bytes:
    """Serialize a multi-range 206 body (RFC 2068 §19.2).

    Each part carries its own ``Content-Type`` and ``Content-Range``;
    the response's outer type must be
    ``multipart/byteranges; boundary=...``.
    """
    out = bytearray()
    for byte_range in ranges:
        out.extend(f"--{boundary}\r\n".encode("ascii"))
        out.extend(f"Content-Type: {content_type}\r\n".encode("latin-1"))
        out.extend(f"Content-Range: "
                   f"{content_range(byte_range, len(body))}\r\n\r\n"
                   .encode("ascii"))
        out.extend(byte_range.slice(body))
        out.extend(b"\r\n")
    out.extend(f"--{boundary}--\r\n".encode("ascii"))
    return bytes(out)


def if_range_matches(if_range_value: Optional[str], etag: Optional[str],
                     last_modified: Optional[str]) -> bool:
    """Evaluate ``If-Range``: may the server honour the Range header?

    ``If-Range`` carries either an entity tag or a date; it matches when
    the client's validator still describes the current entity.  If there
    is no ``If-Range`` header the range is honoured unconditionally.
    """
    if if_range_value is None:
        return True
    value = if_range_value.strip()
    if value.startswith('"') or value.startswith('W/'):
        return etag is not None and value == etag
    return last_modified is not None and value == last_modified
