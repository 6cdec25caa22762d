"""Delta encoding of changed resources (paper reference [26]).

The paper cites Mogul, Douglis, Feldmann & Krishnamurthy, "Potential
benefits of delta-encoding and data compression for HTTP" (SIGCOMM
'97), as the companion direction to its transport-compression work:
when a cached page *changed*, don't send the new version — send the
difference against the version the client already holds.

This module implements the idiom end to end (the mechanism later
standardized as RFC 3229):

* the client revalidates with ``If-None-Match`` plus ``A-IM:
  repro-delta``, naming the instance it holds;
* an unchanged resource still yields 304;
* a changed resource whose old instance the server retains yields
  **226 IM Used** with ``IM: repro-delta`` and ``Delta-Base`` naming
  the base entity tag, carrying a copy/insert delta
  (:mod:`repro.http.compact`'s opcode stream) instead of the body;
* anything else falls back to a full 200.

:func:`encode_delta` / :func:`apply_delta` are the codec;
server-side negotiation lives in :mod:`repro.server.static`.
"""

from __future__ import annotations

from .compact import DeltaStreamDecoder, DeltaStreamEncoder

__all__ = ["DELTA_IM_TOKEN", "encode_delta", "apply_delta",
           "wants_delta"]

#: The instance-manipulation token this implementation negotiates.
DELTA_IM_TOKEN = "repro-delta"


def encode_delta(old: bytes, new: bytes) -> bytes:
    """Encode ``new`` as a delta against ``old``."""
    encoder = DeltaStreamEncoder()
    encoder._previous = old
    return encoder.encode(new)


def apply_delta(old: bytes, delta: bytes) -> bytes:
    """Reconstruct the new instance from ``old`` plus ``delta``."""
    decoder = DeltaStreamDecoder()
    decoder._previous = old
    messages = decoder.feed(delta)
    if len(messages) != 1:
        raise ValueError("delta did not decode to exactly one instance")
    return messages[0]


def wants_delta(headers) -> bool:
    """Did the request advertise delta support (``A-IM`` header)?"""
    return any(DELTA_IM_TOKEN in value
               for value in headers.get_all("A-IM"))

