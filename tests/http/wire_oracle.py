"""The chunked encoder and multipart/byteranges parser the HTTP tests use.

The reproduction's servers stream chunked bodies through
:func:`repro.http.chunked.iter_chunks` and never parse a multi-range
body, so the whole-message encoder and the multipart parser live here,
beside the tests that use them to build wire input and to read back
what a server sent.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.http.chunked import iter_chunks
from repro.http.ranges import ByteRange


def encode_chunked(body: bytes, chunk_size: int = 4096) -> bytes:
    """Encode ``body`` with the chunked transfer coding."""
    return b"".join(iter_chunks(body, chunk_size))


def parse_multipart_byteranges(body: bytes, content_type_header: str
                               ) -> List[Tuple[ByteRange, bytes]]:
    """Parse a multipart/byteranges body into (range, bytes) parts."""
    marker = "boundary="
    index = content_type_header.find(marker)
    if index == -1:
        raise ValueError("multipart content-type without boundary")
    boundary = content_type_header[index + len(marker):].strip().strip('"')
    delimiter = f"--{boundary}".encode("ascii")
    parts: List[Tuple[ByteRange, bytes]] = []
    sections = body.split(delimiter)
    for section in sections[1:]:
        section = section.lstrip(b"\r\n")
        if section.startswith(b"--"):
            break                                   # closing delimiter
        header_block, sep, payload = section.partition(b"\r\n\r\n")
        if not sep:
            raise ValueError("malformed multipart part")
        # Exactly one CRLF separates the payload from the delimiter;
        # binary payloads may themselves end in CR/LF bytes, so strip
        # precisely two characters, never more.
        if payload.endswith(b"\r\n"):
            payload = payload[:-2]
        range_line = next(
            (line for line in header_block.decode("latin-1").split("\r\n")
             if line.lower().startswith("content-range:")), None)
        if range_line is None:
            raise ValueError("part without Content-Range")
        spec = range_line.split(":", 1)[1].strip()
        span = spec.split()[1].split("/")[0]
        start_text, _, end_text = span.partition("-")
        parts.append((ByteRange(int(start_text), int(end_text)), payload))
    return parts
