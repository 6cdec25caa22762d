"""MUX framing: the multiplexed-streams experiment's wire format.

The paper's pipelining results left an open question the ROADMAP
phrases as "would HTTP/2 have beaten pipelining on the 1997 Microscape
site?".  The ``HTTP/MUX`` modes answer it with an HTTP/2-shaped framing
layer small enough to reason about packet-by-packet:

* a fixed 9-byte frame header (like HTTP/2's): 1-byte type, 4-byte
  stream identifier, 4-byte payload length;
* client-initiated streams carry **odd** identifiers, server-pushed
  streams **even** ones (both strictly increasing);
* ``HEADERS`` payloads are ordinary serialized HTTP/1.1 message heads,
  so the byte-exact parsers in :mod:`repro.http.parser` are reused
  verbatim on both sides;
* ``DATA`` frames are flow-controlled per stream by a credit window
  (:data:`INITIAL_STREAM_WINDOW`), replenished with ``WINDOW_UPDATE``;
* ``PUSH_PROMISE`` announces a speculative response (payload = the
  promised URL), which the client may refuse with ``CANCEL``.

Everything here is pure bytes-in/frames-out with no simulator
dependencies; the MUX client (:mod:`repro.client.mux`) and server
(:mod:`repro.server.base`) own the timing.

This module is on the simulated hot path (one ``FrameReader.feed`` per
TCP delivery): keep classes slotted and allocation-light.
"""

from __future__ import annotations

import struct
from typing import List

__all__ = [
    "F_DATA", "F_HEADERS", "F_CANCEL", "F_END_STREAM", "F_PUSH_PROMISE",
    "F_WINDOW_UPDATE", "FRAME_HEADER_SIZE", "FRAME_TYPE_NAMES",
    "INITIAL_STREAM_WINDOW", "MAX_DATA_PAYLOAD",
    "Frame", "FrameReader", "FramingError",
    "encode_frame", "encode_window_update", "window_increment",
]

#: Frame types.  Values are stable wire constants, not Python enums, so
#: the reader can dispatch on a plain int without attribute lookups.
F_DATA = 0x00            #: response body bytes (flow-controlled)
F_HEADERS = 0x01         #: serialized HTTP request / response head
F_CANCEL = 0x03          #: receiver refuses the rest of this stream
F_END_STREAM = 0x04      #: sender is done with this stream
F_PUSH_PROMISE = 0x05    #: server will push; payload = promised URL
F_WINDOW_UPDATE = 0x08   #: payload = 4-byte credit increment

FRAME_TYPE_NAMES = {
    F_DATA: "DATA", F_HEADERS: "HEADERS", F_CANCEL: "CANCEL",
    F_END_STREAM: "END_STREAM", F_PUSH_PROMISE: "PUSH_PROMISE",
    F_WINDOW_UPDATE: "WINDOW_UPDATE",
}

_HEADER = struct.Struct("!BII")

#: Bytes of framing overhead per frame.
FRAME_HEADER_SIZE = _HEADER.size

#: Initial per-stream flow-control credit, in bytes.  Deliberately
#: smaller than HTTP/2's 65535 default: the Microscape HTML is ~42 KB,
#: so a 16 KB window makes the credit loop actually engage on the WAN
#: instead of being dead code.
INITIAL_STREAM_WINDOW = 16384

#: Largest DATA payload a sender emits in one frame.  Bounding the
#: frame size is what creates interleaving: a 42 KB HTML body becomes
#: eleven DATA frames with room between them for GIF frames.
MAX_DATA_PAYLOAD = 4096

_WINDOW_PAYLOAD = struct.Struct("!I")


class FramingError(Exception):
    """A byte stream that is not a legal sequence of MUX frames."""


class Frame:
    """One decoded frame."""

    __slots__ = ("type", "stream", "payload")

    def __init__(self, type: int, stream: int, payload: bytes) -> None:
        self.type = type
        self.stream = stream
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = FRAME_TYPE_NAMES.get(self.type, hex(self.type))
        return (f"Frame({name}, stream={self.stream}, "
                f"len={len(self.payload)})")

    @property
    def wire_size(self) -> int:
        return FRAME_HEADER_SIZE + len(self.payload)


def encode_frame(type: int, stream: int, payload: bytes = b"") -> bytes:
    """Serialize one frame (header + payload)."""
    return _HEADER.pack(type, stream, len(payload)) + payload


def encode_window_update(stream: int, increment: int) -> bytes:
    """Serialize a WINDOW_UPDATE granting ``increment`` bytes."""
    return encode_frame(F_WINDOW_UPDATE, stream,
                        _WINDOW_PAYLOAD.pack(increment))


def window_increment(frame: Frame) -> int:
    """Decode the credit carried by a WINDOW_UPDATE frame."""
    if len(frame.payload) != _WINDOW_PAYLOAD.size:
        raise FramingError(
            f"WINDOW_UPDATE payload must be {_WINDOW_PAYLOAD.size} "
            f"bytes, got {len(frame.payload)}")
    return _WINDOW_PAYLOAD.unpack(frame.payload)[0]


class FrameReader:
    """Incremental frame decoder.

    TCP delivers arbitrary byte runs; ``feed`` buffers partial frames
    across calls and returns each frame exactly once, in order.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Frame]:
        self._buffer.extend(data)
        frames: List[Frame] = []
        buffer = self._buffer
        while True:
            if len(buffer) < FRAME_HEADER_SIZE:
                break
            ftype, stream, length = _HEADER.unpack_from(buffer)
            if ftype not in FRAME_TYPE_NAMES:
                raise FramingError(f"unknown frame type 0x{ftype:02x}")
            end = FRAME_HEADER_SIZE + length
            if len(buffer) < end:
                break
            payload = bytes(buffer[FRAME_HEADER_SIZE:end])
            del buffer[:end]
            frames.append(Frame(ftype, stream, payload))
        return frames

    @property
    def buffered(self) -> int:
        """Bytes of a partial frame waiting for the rest."""
        return len(self._buffer)
