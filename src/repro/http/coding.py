"""Content codings: identity and deflate (RFC 2068 §3.5).

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
from typing import Callable, Dict, List

from .headers import Headers

__all__ = [
    "deflate_encode", "deflate_decode", "encode_body", "accepted_codings",
    "SUPPORTED_CODINGS", "compression_ratio",
]


def deflate_encode(data: bytes, level: int = -1) -> bytes:
    """Compress with the ``deflate`` coding (zlib-wrapped, RFC 1950).

    ``level=-1`` is zlib's default, the setting the paper used ("we used
    the default values for both deflating and inflating").
    """
    return zlib.compress(data, level)


def deflate_decode(data: bytes) -> bytes:
    """Decompress a ``deflate``-coded body.

    Accepts both the correct zlib-wrapped form and the raw-DEFLATE form
    that some 1990s implementations emitted (a famous interoperability
    wart of this coding).
    """
    try:
        return zlib.decompress(data)
    except zlib.error:
        return zlib.decompress(data, -zlib.MAX_WBITS)


def _identity(data: bytes) -> bytes:
    return data


#: coding name -> encoder
SUPPORTED_CODINGS: Dict[str, Callable[[bytes], bytes]] = {
    "identity": _identity,
    "deflate": deflate_encode,
}


def encode_body(data: bytes, coding: str) -> bytes:
    """Apply a content coding by name."""
    try:
        encoder = SUPPORTED_CODINGS[coding]
    except KeyError:
        raise ValueError(f"unsupported content coding: {coding}") from None
    return encoder(data)


def accepted_codings(headers: Headers) -> List[str]:
    """Codings listed in a request's ``Accept-Encoding`` header, in order."""
    codings: List[str] = []
    for value in headers.get_all("Accept-Encoding"):
        for part in value.split(","):
            token = part.strip().split(";", 1)[0].strip().lower()
            if token:
                codings.append(token)
    return codings


def compression_ratio(data: bytes, coding: str = "deflate") -> float:
    """Compressed size divided by original size (lower is better).

    The paper reports ~0.27 for lowercase-tag HTML and ~0.35 for
    mixed-case HTML.
    """
    if not data:
        return 1.0
    return len(encode_body(data, coding)) / len(data)
