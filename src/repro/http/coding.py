"""The deflate content coding (RFC 2068 §3.5).

The paper's transport-compression experiment uses the ``deflate``
content coding — the zlib format of RFC 1950 wrapping DEFLATE (RFC 1951),
produced by zlib 1.04 with default settings.  Python's :mod:`zlib` is
the same code base, so the ~3× compression the paper reports on the
Microscape HTML reproduces exactly.

Negotiation is one helper: the client sends ``Accept-Encoding:
deflate``, the server reads it with :func:`accepted_codings` and labels
the body with ``Content-Encoding``.
"""

from __future__ import annotations

import zlib
from typing import List

from .headers import Headers

__all__ = ["deflate_encode", "deflate_decode", "accepted_codings",
           "compression_ratio"]


def deflate_encode(data: bytes) -> bytes:
    """Compress with the ``deflate`` coding (zlib-wrapped, RFC 1950) at
    zlib's default level, the setting the paper used ("we used the
    default values for both deflating and inflating")."""
    return zlib.compress(data)


def deflate_decode(data: bytes) -> bytes:
    """Decompress a zlib-wrapped ``deflate`` body (raw DEFLATE raises)."""
    return zlib.decompress(data)


def accepted_codings(headers: Headers) -> List[str]:
    """Codings listed in a request's ``Accept-Encoding`` header, in order."""
    codings: List[str] = []
    for value in headers.get_all("Accept-Encoding"):
        for part in value.split(","):
            token = part.strip().split(";", 1)[0].strip().lower()
            if token:
                codings.append(token)
    return codings


def compression_ratio(data: bytes) -> float:
    """Deflated size divided by original size (lower is better).

    The paper reports ~0.27 for lowercase-tag HTML and ~0.35 for
    mixed-case HTML.
    """
    if not data:
        return 1.0
    return len(deflate_encode(data)) / len(data)
