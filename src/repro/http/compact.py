"""A compact wire representation for HTTP messages (paper future work).

The paper observes: "HTTP requests are usually highly redundant and the
actual number of bytes that changes between requests can be as small as
10%.  Therefore, a more compact wire representation for HTTP could
increase pipelining's benefit for cache revalidation further up to an
additional factor of five or ten, from back of the envelope
calculations based on the number of bytes changing from one request to
the next."  (Sixteen years later this became HPACK; here is the 1997
back-of-the-envelope, made runnable.)

The scheme is deliberately simple — exactly the redundancy the paper
points at, nothing more:

* each message on a stream is encoded **relative to the previous
  one** as a sequence of *copy* (offset+length into the previous
  message) and *insert* (literal bytes) operations — only the URL and
  the entity tag of a pipelined revalidation request are novel, so only
  they travel as literals,
* lengths are varints and frames are self-delimiting,
* the first message is (almost) verbatim: one big insert.

Both directions round-trip losslessly and the decoder is incremental
(frames may arrive split across arbitrary TCP segments), so the codec
could sit under a pipelined connection unchanged.
"""

from __future__ import annotations

import difflib
from typing import List, Optional, Tuple

__all__ = ["encode_varint", "decode_varint", "DeltaStreamEncoder",
           "DeltaStreamDecoder"]

#: Frame opcodes.
OP_END = 0x00
OP_COPY = 0x01
OP_INSERT = 0x02
#: Copies shorter than this cost more than they save.
MIN_COPY = 6
#: Messages larger than this use the O(n) block matcher instead of
#: difflib's precise (but quadratic) matcher.
DIFFLIB_LIMIT = 4096
#: Anchor size for the block matcher.
BLOCK = 32


def encode_varint(value: int) -> bytes:
    """LEB128 unsigned varint."""
    if value < 0:
        raise ValueError("varints are unsigned")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, pos: int = 0) -> Tuple[Optional[int], int]:
    """Decode a varint at ``pos``; returns (value, new_pos).

    Returns ``(None, pos)`` when the buffer ends mid-varint.
    """
    value = 0
    shift = 0
    index = pos
    while index < len(data):
        byte = data[index]
        index += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, index
        shift += 7
        if shift > 63:
            raise ValueError("varint too long")
    return None, pos


def _matching_blocks(previous: bytes, message: bytes):
    """Monotone (a_start, b_start, size) matches of message vs previous.

    Small inputs use difflib's precise matcher; large ones (a changed
    43 KB page, say) use an O(n) rsync-style anchor matcher: index
    ``previous`` at every offset by its 32-byte block, then greedily
    extend hits both ways.
    """
    if len(previous) + len(message) <= DIFFLIB_LIMIT:
        matcher = difflib.SequenceMatcher(None, previous, message,
                                          autojunk=False)
        return [tuple(block) for block in matcher.get_matching_blocks()]
    index = {}
    for offset in range(0, max(0, len(previous) - BLOCK) + 1):
        index.setdefault(previous[offset:offset + BLOCK], offset)
    matches = []
    position = 0
    limit = len(message) - BLOCK
    while position <= limit:
        anchor = index.get(message[position:position + BLOCK])
        if anchor is None:
            position += 1
            continue
        start_a, start_b = anchor, position
        # Extend backwards over any unclaimed insert bytes (copies may
        # reference any absolute offset, so only b must stay monotone).
        last_b = matches[-1][1] + matches[-1][2] if matches else 0
        while start_a > 0 and start_b > last_b \
                and previous[start_a - 1] == message[start_b - 1]:
            start_a -= 1
            start_b -= 1
        # Extend forwards.
        size = 0
        while start_a + size < len(previous) \
                and start_b + size < len(message) \
                and previous[start_a + size] == message[start_b + size]:
            size += 1
        matches.append((start_a, start_b, size))
        position = start_b + size
    matches.append((len(previous), len(message), 0))
    return matches


class DeltaStreamEncoder:
    """Encode a stream of messages as deltas against their predecessor."""

    def __init__(self) -> None:
        self._previous = b""
        #: Raw and encoded byte totals, for the savings arithmetic.
        self.raw_bytes = 0
        self.encoded_bytes = 0

    def encode(self, message: bytes) -> bytes:
        """One message → one self-delimiting frame of copy/insert ops."""
        frame = bytearray()
        pending_insert = bytearray()

        def flush_insert() -> None:
            if pending_insert:
                frame.append(OP_INSERT)
                frame.extend(encode_varint(len(pending_insert)))
                frame.extend(pending_insert)
                pending_insert.clear()

        position = 0
        for a_start, b_start, size in _matching_blocks(self._previous,
                                                       message):
            if size == 0:
                continue
            if b_start > position:
                pending_insert.extend(message[position:b_start])
                position = b_start
            if size >= MIN_COPY:
                flush_insert()
                frame.append(OP_COPY)
                frame.extend(encode_varint(a_start))
                frame.extend(encode_varint(size))
            else:
                pending_insert.extend(message[b_start:b_start + size])
            position = b_start + size
        if position < len(message):
            pending_insert.extend(message[position:])
        flush_insert()
        frame.append(OP_END)
        self._previous = message
        self.raw_bytes += len(message)
        self.encoded_bytes += len(frame)
        return bytes(frame)

    @property
    def ratio(self) -> float:
        """raw / encoded — the paper's 'factor of five or ten'."""
        if not self.encoded_bytes:
            return 1.0
        return self.raw_bytes / self.encoded_bytes


class DeltaStreamDecoder:
    """Incrementally decode :class:`DeltaStreamEncoder` output."""

    def __init__(self) -> None:
        self._previous = b""
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[bytes]:
        """Feed frame bytes (any slicing); return completed messages."""
        self._buffer.extend(data)
        out: List[bytes] = []
        while True:
            message = self._try_decode_one()
            if message is None:
                return out
            out.append(message)

    def _try_decode_one(self) -> Optional[bytes]:
        view = bytes(self._buffer)
        message = bytearray()
        pos = 0
        while True:
            if pos >= len(view):
                return None                      # frame incomplete
            op = view[pos]
            pos += 1
            if op == OP_END:
                del self._buffer[:pos]
                result = bytes(message)
                self._previous = result
                return result
            if op == OP_COPY:
                offset, pos = decode_varint(view, pos)
                if offset is None:
                    return None
                length, pos = decode_varint(view, pos)
                if length is None:
                    return None
                if offset + length > len(self._previous):
                    raise ValueError(
                        "delta frame references unknown context")
                message.extend(self._previous[offset:offset + length])
            elif op == OP_INSERT:
                length, pos = decode_varint(view, pos)
                if length is None:
                    return None
                if len(view) - pos < length:
                    return None
                message.extend(view[pos:pos + length])
                pos += length
            else:
                raise ValueError(f"unknown delta opcode {op}")

