"""Chunked transfer coding (RFC 2068 §3.6).

HTTP/1.1 introduced chunked transfer so dynamically generated responses
can use persistent connections without knowing their length in advance.
The chunk iterator and incremental decoder here are used by the
servers for dynamic content and by the message parsers.
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = ["iter_chunks", "ChunkedDecoder"]


def iter_chunks(body: bytes, chunk_size: int = 4096) -> Iterable[bytes]:
    """Split ``body`` into encoded chunks plus the final 0-chunk."""
    for offset in range(0, len(body), chunk_size):
        piece = body[offset:offset + chunk_size]
        yield f"{len(piece):x}\r\n".encode("ascii") + piece + b"\r\n"
    yield b"0\r\n\r\n"


class ChunkedDecoder:
    """Incremental decoder for a chunked message body.

    Feed it the connection buffer via :meth:`feed_buffer`; it consumes
    exactly the bytes belonging to the chunked body (leaving pipelined
    data for the next message untouched) and reports completion.
    """

    def __init__(self) -> None:
        self._payload = bytearray()
        self._state = "size"          # size | data | data_crlf | trailer
        self._remaining = 0
        self._done = False

    def feed_buffer(self, buffer: bytearray) -> bool:
        """Consume body bytes from ``buffer``; True once the body is done."""
        while not self._done:
            if self._state == "size":
                line = self._take_line(buffer)
                if line is None:
                    return False
                size_text = line.split(b";", 1)[0].strip()
                if not size_text:
                    raise ValueError("empty chunk-size line")
                self._remaining = int(size_text, 16)
                self._state = "trailer" if self._remaining == 0 else "data"
            elif self._state == "data":
                take = min(self._remaining, len(buffer))
                self._payload.extend(buffer[:take])
                del buffer[:take]
                self._remaining -= take
                if self._remaining:
                    return False
                self._state = "data_crlf"
            elif self._state == "data_crlf":
                line = self._take_line(buffer)
                if line is None:
                    return False
                if line:
                    raise ValueError("missing CRLF after chunk data")
                self._state = "size"
            elif self._state == "trailer":
                line = self._take_line(buffer)
                if line is None:
                    return False
                if not line:
                    self._done = True
                # Non-empty trailer header lines are consumed and ignored.
        return True

    def payload(self) -> bytes:
        """The decoded body (valid once :meth:`feed_buffer` returned True)."""
        return bytes(self._payload)

    @staticmethod
    def _take_line(buffer: bytearray) -> Optional[bytes]:
        index = buffer.find(b"\n")
        if index == -1:
            return None
        line = bytes(buffer[:index])
        del buffer[:index + 1]
        return line.rstrip(b"\r")
