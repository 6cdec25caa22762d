"""MNG-style animation container (delta-encoded PNG frames).

The paper converted its two GIF animations to MNG (the Multiple-image
Network Graphics draft of 1997-04-27) and measured 24,988 → 16,329
bytes.  MNG's advantage over animated GIF comes from two mechanisms,
both implemented here:

1. shared structure — one signature/header/palette for the whole
   animation rather than per-frame color tables, and
2. **delta frames** — later frames are stored as differences against
   the previous frame and deflate-compressed, so the mostly-unchanged
   pixels cost almost nothing, where animated GIF must LZW-encode every
   frame from scratch.

The container implemented here is a documented *simplification* of the
MNG draft: real MNG chunk names (MHDR / FRAM / DHDR / IDAT / MEND) with
CRC framing, but the delta encoding is a plain byte-wise difference of
palette indices rather than the draft's full delta-PNG machinery.  The
size behaviour — which is what the experiment measures — is preserved.
"""

from __future__ import annotations

import struct
import zlib
from typing import Sequence

from .images import IndexedImage
from .png import _chunk

__all__ = ["encode_mng", "MNG_SIGNATURE"]

MNG_SIGNATURE = b"\x8aMNG\r\n\x1a\n"


def encode_mng(frames: Sequence[IndexedImage], *, ticks_per_second: int = 10,
               compress_level: int = -1) -> bytes:
    """Encode an animation as a delta-frame MNG stream.

    All frames must share dimensions and palette (as our animated GIFs
    do — they use one global color table).
    """
    if not frames:
        raise ValueError("animation needs at least one frame")
    first = frames[0]
    for frame in frames:
        if (frame.width, frame.height) != (first.width, first.height):
            raise ValueError("all frames must share dimensions")
    out = bytearray(MNG_SIGNATURE)
    mhdr = struct.pack(">IIIIIII", first.width, first.height,
                       ticks_per_second, 0, len(frames), 0, 1)
    out.extend(_chunk(b"MHDR", mhdr))
    plte = b"".join(bytes(color) for color in first.palette)
    out.extend(_chunk(b"PLTE", plte))
    # gAMA once for the whole animation (PNG pays it per image).
    out.extend(_chunk(b"gAMA", struct.pack(">I", 45455)))
    previous = None
    for index, frame in enumerate(frames):
        out.extend(_chunk(b"FRAM", struct.pack(">B", 1)))
        if previous is None:
            ihdr = struct.pack(">IIBBBBB", frame.width, frame.height,
                               8, 3, 0, 0, 0)
            out.extend(_chunk(b"IHDR", ihdr))
            idat = zlib.compress(frame.pixels, compress_level)
            out.extend(_chunk(b"IDAT", idat))
        else:
            delta = bytes((a - b) & 0xFF
                          for a, b in zip(frame.pixels, previous.pixels))
            out.extend(_chunk(b"DHDR", struct.pack(">IB", index, 0)))
            out.extend(_chunk(b"IDAT", zlib.compress(delta,
                                                     compress_level)))
        previous = frame
    out.extend(_chunk(b"MEND", b""))
    return bytes(out)

