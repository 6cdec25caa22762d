"""Byte-range requests and ``If-Range`` (RFC 2068 §14.36, §14.27).

The paper argues that HTTP/1.1 clients should combine cache validation
with ranged requests — fetch just the first bytes of each embedded
image (enough for the metadata that page layout needs) over a single
connection, a style it names **"poor man's multiplexing"**.  This module
implements the server side of that idiom; the robot sends the ranged
prefix requests (``ClientConfig.range_prefix_bytes``), and
:mod:`repro.core.render` measures the idiom end to end (the
``render-multiplexing`` claim of ``python -m repro claims``).

A ``Range`` is one ``bytes=A-B`` (A ≤ B) or one ``bytes=A-``: the two
forms the robot sends.  Every other form is ignored, so the server
answers with the full entity, as RFC 2068 allows.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Optional

from .headers import Headers

__all__ = ["ByteRange", "parse_range_header", "content_range",
           "apply_range", "if_range_matches"]

#: The one range form read: ``bytes=A-B`` or ``bytes=A-``.
_BYTE_RANGE = re.compile(r"bytes=(\d+)-(\d*)", re.ASCII)


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


def parse_range_header(value: str,
                       entity_length: int) -> Optional[ByteRange]:
    """Resolve a ``Range`` header against an entity length.

    Returns the one range asked for, its end clamped to the entity, or
    None when the header is to be ignored: any form but ``bytes=A-B``
    and ``bytes=A-``, and a reversed spec (B < A), which RFC 2068
    §14.36.1 says the recipient "must ignore".  A returned range whose
    ``start`` is at or past ``entity_length`` is unsatisfiable (⇒ 416).
    """
    match = _BYTE_RANGE.fullmatch(value.strip())
    if match is None:
        return None
    start = int(match[1])
    end = int(match[2]) if match[2] else entity_length - 1
    if end < start and match[2]:
        return None
    return ByteRange(start, min(end, entity_length - 1))


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
