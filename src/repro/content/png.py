"""PNG encoder (RFC 2083 subset: palette images).

Implements the format the paper's image-conversion experiment targets:
8/4/2/1-bit palette PNGs with

* CRC-checked chunk framing (IHDR / PLTE / tRNS / gAMA / IDAT / IEND),
* zlib (deflate) compression of filtered scanlines — the same code base
  as the HTTP ``deflate`` coding and libpng, as the paper points out,
* all five scanline filters with a minimum-sum-of-absolute-differences
  selection heuristic,
* the gAMA chunk the paper calls out: "the converted PNG ... files
  contain gamma information, so that they display the same on all
  platforms; this adds 16 bytes per image".

The per-image fixed costs (signature, IHDR, checksums, gamma) are what
make tiny PNGs *larger* than their GIF counterparts while deflate beats
LZW on everything bigger — both effects the paper reports, and both
emerge here from the real formats rather than from modelling.
"""

from __future__ import annotations

import struct
import zlib
from typing import Tuple

from .images import IndexedImage

__all__ = ["encode_png", "PNG_SIGNATURE"]

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"

#: sRGB-ish gamma stored in the gAMA chunk (1/2.2, scaled by 100000).
DEFAULT_GAMMA = 45455


# ----------------------------------------------------------------------
# Chunk framing
# ----------------------------------------------------------------------
def _chunk(chunk_type: bytes, data: bytes) -> bytes:
    crc = zlib.crc32(chunk_type + data) & 0xFFFFFFFF
    return struct.pack(">I", len(data)) + chunk_type + data + struct.pack(
        ">I", crc)


# ----------------------------------------------------------------------
# Scanline packing and filters
# ----------------------------------------------------------------------
def _pack_row(row: bytes, bit_depth: int) -> bytes:
    """Pack palette indices into ``bit_depth``-bit samples (big-endian).

    Sample ``i`` of every output byte is the strided slice
    ``row[i::per_byte]``.  Read as one big integer and shifted into its
    bit position, each sample stays inside its own byte (an
    :class:`IndexedImage` index fits the bit depth), so the slices OR
    together without a per-pixel loop.
    """
    if bit_depth == 8:
        return row
    per_byte = 8 // bit_depth
    row += bytes(-len(row) % per_byte)
    value = 0
    for i in range(per_byte):
        value |= (int.from_bytes(row[i::per_byte], "big")
                  << (8 - (i + 1) * bit_depth))
    return value.to_bytes(len(row) // per_byte, "big")


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def _filter_row(filter_type: int, row: bytes, prior: bytes,
                bpp: int) -> bytes:
    if filter_type == 0:
        return row
    left = bytes(bpp) + row
    up = prior or bytes(len(row))
    if filter_type == 1:
        return bytes((x - a) & 0xFF for x, a in zip(row, left))
    if filter_type == 2:
        return bytes((x - b) & 0xFF for x, b in zip(row, up))
    if filter_type == 3:
        return bytes((x - ((a + b) >> 1)) & 0xFF
                     for x, a, b in zip(row, left, up))
    return bytes((x - _paeth(a, b, c)) & 0xFF
                 for x, a, b, c in zip(row, left, up, bytes(bpp) + up))


#: A filtered byte's magnitude read as a signed residual.
_ABS_RESIDUAL = bytes(min(b, 256 - b) for b in range(256))


def _choose_filter(row: bytes, prior: bytes, bpp: int) -> Tuple[int, bytes]:
    """Minimum-sum-of-absolute-differences filter heuristic (libpng's)."""
    best_type = 0
    best_data = row
    best_score = sum(row.translate(_ABS_RESIDUAL))
    for filter_type in (1, 2, 3, 4):
        candidate = _filter_row(filter_type, row, prior, bpp)
        score = sum(candidate.translate(_ABS_RESIDUAL))
        if score < best_score:
            best_type, best_data, best_score = (filter_type, candidate,
                                                score)
    return best_type, best_data


# ----------------------------------------------------------------------
# Public encoder
# ----------------------------------------------------------------------
#: Adam7 interlace passes: (x_start, y_start, x_step, y_step).
ADAM7_PASSES = (
    (0, 0, 8, 8), (4, 0, 8, 8), (0, 4, 4, 8), (2, 0, 4, 4),
    (0, 2, 2, 4), (1, 0, 2, 2), (0, 1, 1, 2),
)


def _adam7_pass_pixels(image: IndexedImage, pass_spec) -> list:
    """Rows of an Adam7 pass as lists of palette indices."""
    x0, y0, dx, dy = pass_spec
    rows = []
    for y in range(y0, image.height, dy):
        row = image.pixels[y * image.width + x0:
                           (y + 1) * image.width:dx]
        if row:
            rows.append(row)
    return rows


def _filtered_scanlines(rows, bit_depth: int) -> bytes:
    """Pack and filter a sequence of scanlines (one pass or the image)."""
    raw = bytearray()
    prior = b""
    for row in rows:
        packed = _pack_row(bytes(row), bit_depth)
        filter_type, filtered = _choose_filter(packed, prior, 1)
        raw.append(filter_type)
        raw.extend(filtered)
        prior = packed
    return bytes(raw)


def encode_png(image: IndexedImage, *, include_gamma: bool = True,
               interlace: bool = False,
               compress_level: int = -1) -> bytes:
    """Encode a palette PNG (color type 3).

    ``interlace=True`` writes Adam7 interlacing — the progressive
    format the paper's "poor man's multiplexing" discussion relies on:
    the first ~1/64 of the data already covers the whole image area.
    """
    bit_depth = image.bit_depth
    ihdr = struct.pack(">IIBBBBB", image.width, image.height, bit_depth,
                       3, 0, 0, 1 if interlace else 0)
    plte = b"".join(bytes(color) for color in image.palette)
    if interlace:
        raw = bytearray()
        for pass_spec in ADAM7_PASSES:
            raw.extend(_filtered_scanlines(
                _adam7_pass_pixels(image, pass_spec), bit_depth))
        raw = bytes(raw)
    else:
        raw = _filtered_scanlines(image.rows(), bit_depth)
    idat = zlib.compress(raw, compress_level)
    out = bytearray(PNG_SIGNATURE)
    out.extend(_chunk(b"IHDR", ihdr))
    if include_gamma:
        out.extend(_chunk(b"gAMA", struct.pack(">I", DEFAULT_GAMMA)))
    out.extend(_chunk(b"PLTE", plte))
    if image.transparent is not None:
        alphas = bytes(0 if i == image.transparent else 255
                       for i in range(image.transparent + 1))
        out.extend(_chunk(b"tRNS", alphas))
    out.extend(_chunk(b"IDAT", idat))
    out.extend(_chunk(b"IEND", b""))
    return bytes(out)

