"""GIF encoder (GIF87a / GIF89a, real LZW).

A complete, self-contained GIF writer: logical screen descriptor, global
color table, graphic-control extensions (transparency, frame delays),
the Netscape looping application extension for animations, and genuine
variable-code-width LZW with dictionary reset — the compression whose
limits the paper's PNG comparison exposes.

The GIF→PNG experiment needs *actual* encoded sizes on both sides, so
nothing here is stubbed.  :func:`lzw_decode` serves the progressive-
rendering analysis (how much of a partial download paints); the full
decoder the round-trip tests use lives beside them.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

from .images import IndexedImage

__all__ = ["encode_gif", "encode_animated_gif", "GifError"]

MAX_CODE_WIDTH = 12
MAX_CODES = 1 << MAX_CODE_WIDTH


class GifError(ValueError):
    """Raised for malformed GIF data."""


# ----------------------------------------------------------------------
# LZW with GIF's variable code width and sub-block framing
# ----------------------------------------------------------------------
class _BitReader:
    """Reads variable-width codes LSB-first."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self._pos = 0
        self._acc = 0
        self._nbits = 0

    def read(self, width: int) -> Optional[int]:
        while self._nbits < width:
            if self._pos >= len(self.data):
                return None
            self._acc |= self.data[self._pos] << self._nbits
            self._pos += 1
            self._nbits += 8
        code = self._acc & ((1 << width) - 1)
        self._acc >>= width
        self._nbits -= width
        return code


def lzw_encode(data: bytes, min_code_size: int) -> bytes:
    """GIF-flavour LZW: clear/end codes, 12-bit cap, dictionary reset.

    Every cold site build runs this once per pixel of every calibration
    probe, so it is one loop on locals.  The dictionary maps the int
    ``(prefix_code << 8) | symbol`` to a code, as
    :class:`~repro.simnet.modem.LzwEncoder` does: each multi-symbol
    string enters exactly once, as its prefix's code plus one symbol,
    and codes below ``clear`` are the implicit one-symbol strings.
    Codes are packed LSB-first into ``acc`` and written out 32 bits at
    a time.
    """
    clear = 1 << min_code_size
    end = clear + 1
    top = max(data, default=0)
    if top >= clear:
        raise GifError(f"LZW symbol {top} does not fit code size "
                       f"{min_code_size}")
    out = bytearray()
    width = min_code_size + 1
    grow_at = (1 << width) + 1
    acc = clear                 # the stream opens with CLEAR
    nbits = width
    table: dict = {}
    get = table.get
    next_code = end + 1
    symbols = iter(data)
    prefix = next(symbols, None)
    for symbol in symbols:
        key = (prefix << 8) | symbol
        hit = get(key)
        if hit is not None:
            prefix = hit
            continue
        if next_code < MAX_CODES:
            acc |= prefix << nbits
            nbits += width
            table[key] = next_code
            next_code += 1
            # GIF's early change: widen once the code after next
            # would not fit.
            if next_code == grow_at and width < MAX_CODE_WIDTH:
                width += 1
                grow_at = (1 << width) + 1
        else:                   # table full: the prefix, then CLEAR
            acc |= (prefix | clear << width) << nbits
            nbits += 2 * width
            table = {}
            get = table.get
            next_code = end + 1
            width = min_code_size + 1
            grow_at = (1 << width) + 1
        if nbits >= 32:         # at most 31 + 24 bits: one word out
            out += (acc & 0xFFFFFFFF).to_bytes(4, "little")
            acc >>= 32
            nbits -= 32
        prefix = symbol
    if prefix is not None:
        acc |= prefix << nbits
        nbits += width
    acc |= end << nbits
    nbits += width
    out += acc.to_bytes((nbits + 7) // 8, "little")
    return bytes(out)


def lzw_decode(data: bytes, min_code_size: int,
               strict: bool = True) -> bytes:
    """Inverse of :func:`lzw_encode`.

    ``strict=False`` decodes a *truncated* stream as far as it goes —
    what a progressive renderer does with a partially downloaded GIF.
    """
    clear = 1 << min_code_size
    end = clear + 1
    reader = _BitReader(data)
    out = bytearray()

    def fresh_entries() -> dict:
        return {i: bytes([i]) for i in range(clear)}

    entries = fresh_entries()
    next_code = end + 1
    width = min_code_size + 1
    previous: Optional[bytes] = None
    while True:
        code = reader.read(width)
        if code is None or code == end:
            break
        if code == clear:
            entries = fresh_entries()
            next_code = end + 1
            width = min_code_size + 1
            previous = None
            continue
        if code in entries:
            entry = entries[code]
        elif code == next_code and previous is not None:
            entry = previous + previous[:1]
        else:
            if strict:
                raise GifError(f"corrupt LZW stream: code {code}")
            break
        out.extend(entry)
        if previous is not None and next_code < MAX_CODES:
            entries[next_code] = previous + entry[:1]
            next_code += 1
            if next_code == (1 << width) and width < MAX_CODE_WIDTH:
                width += 1
        previous = entry
    return bytes(out)


def _sub_blocks(data: bytes) -> bytes:
    """Frame ``data`` into GIF sub-blocks (≤255 bytes + length prefix)."""
    out = bytearray()
    for offset in range(0, len(data), 255):
        piece = data[offset:offset + 255]
        out.append(len(piece))
        out.extend(piece)
    out.append(0)
    return bytes(out)


# ----------------------------------------------------------------------
# Container
# ----------------------------------------------------------------------
def _color_table(palette: Sequence[Tuple[int, int, int]]) -> Tuple[bytes, int]:
    """Pad the palette to a power of two; return (table bytes, size field)."""
    size_field = 0
    while (2 << size_field) < len(palette):
        size_field += 1
    entries = 2 << size_field
    table = bytearray()
    for i in range(entries):
        r, g, b = palette[i] if i < len(palette) else (0, 0, 0)
        table.extend((r, g, b))
    return bytes(table), size_field


def _graphic_control(transparent: Optional[int],
                     delay_cs: int = 0) -> bytes:
    packed = 0x01 if transparent is not None else 0x00
    return struct.pack("<BBBBHBB", 0x21, 0xF9, 4, packed, delay_cs,
                       transparent or 0, 0)


#: GIF's four interlace passes: (first row, row step).
GIF_INTERLACE_PASSES = ((0, 8), (4, 8), (2, 4), (1, 2))


def _interlace_row_order(height: int) -> List[int]:
    """Storage order of rows in an interlaced GIF."""
    order = []
    for start, step in GIF_INTERLACE_PASSES:
        order.extend(range(start, height, step))
    return order


def encode_gif(image: IndexedImage, *, interlace: bool = False) -> bytes:
    """Encode a single-frame GIF (89a when transparency is used).

    ``interlace=True`` stores rows in GIF's four-pass order so a
    browser can paint a coarse image from the first quarter of the
    data — the era's progressive-rendering trick.
    """
    version = b"GIF89a" if image.transparent is not None else b"GIF87a"
    table, size_field = _color_table(image.palette)
    out = bytearray()
    out.extend(version)
    packed = 0x80 | (7 << 4) | size_field   # global table, 8-bit resolution
    out.extend(struct.pack("<HHBBB", image.width, image.height, packed,
                           0, 0))
    out.extend(table)
    if image.transparent is not None:
        out.extend(_graphic_control(image.transparent))
    out.extend(_image_block(image, include_local_table=False,
                            interlace=interlace))
    out.append(0x3B)
    return bytes(out)


def _image_block(image: IndexedImage, include_local_table: bool,
                 interlace: bool = False) -> bytes:
    out = bytearray()
    packed = 0x40 if interlace else 0
    table = b""
    if include_local_table:
        table, size_field = _color_table(image.palette)
        packed |= 0x80 | size_field
    out.extend(struct.pack("<BHHHHB", 0x2C, 0, 0, image.width,
                           image.height, packed))
    out.extend(table)
    min_code_size = max(2, image.bit_depth)
    out.append(min_code_size)
    pixels = image.pixels
    if interlace:
        reordered = bytearray()
        for y in _interlace_row_order(image.height):
            reordered.extend(image.row(y))
        pixels = bytes(reordered)
    out.extend(_sub_blocks(lzw_encode(pixels, min_code_size)))
    return bytes(out)


NETSCAPE_LOOP = (b"\x21\xFF\x0BNETSCAPE2.0\x03\x01\x00\x00\x00")


def encode_animated_gif(frames: Sequence[IndexedImage],
                        delay_cs: int = 10) -> bytes:
    """Encode an animated GIF89a with the Netscape loop extension.

    All frames share the first frame's palette as the global color
    table (the common authoring-tool output the paper's animations used).
    """
    if not frames:
        raise ValueError("animation needs at least one frame")
    first = frames[0]
    table, size_field = _color_table(first.palette)
    out = bytearray()
    out.extend(b"GIF89a")
    packed = 0x80 | (7 << 4) | size_field
    out.extend(struct.pack("<HHBBB", first.width, first.height, packed,
                           0, 0))
    out.extend(table)
    out.extend(NETSCAPE_LOOP)
    for frame in frames:
        out.extend(_graphic_control(frame.transparent, delay_cs))
        out.extend(_image_block(frame, include_local_table=False))
    out.append(0x3B)
    return bytes(out)

