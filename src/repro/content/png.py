"""PNG encoder and decoder (RFC 2083 subset: palette images).

Implements the format the paper's image-conversion experiment targets:
8/4/2/1-bit palette PNGs with

* CRC-checked chunk framing (IHDR / PLTE / tRNS / gAMA / IDAT / IEND),
* zlib (deflate) compression of filtered scanlines — the same code base
  as the HTTP ``deflate`` coding and libpng, as the paper points out,
* all five scanline filters with a minimum-sum-of-absolute-differences
  selection heuristic on the encoder side,
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
from typing import List, Optional, Tuple

from .images import IndexedImage

__all__ = ["encode_png", "decode_png", "PngError", "PNG_SIGNATURE"]

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"

#: sRGB-ish gamma stored in the gAMA chunk (1/2.2, scaled by 100000).
DEFAULT_GAMMA = 45455


class PngError(ValueError):
    """Raised for malformed PNG data."""


# ----------------------------------------------------------------------
# Chunk framing
# ----------------------------------------------------------------------
def _chunk(chunk_type: bytes, data: bytes) -> bytes:
    crc = zlib.crc32(chunk_type + data) & 0xFFFFFFFF
    return struct.pack(">I", len(data)) + chunk_type + data + struct.pack(
        ">I", crc)


def _iter_chunks(data: bytes):
    pos = len(PNG_SIGNATURE)
    while pos < len(data):
        if pos + 8 > len(data):
            raise PngError("truncated chunk header")
        (length,) = struct.unpack_from(">I", data, pos)
        chunk_type = data[pos + 4:pos + 8]
        body = data[pos + 8:pos + 8 + length]
        if len(body) != length:
            raise PngError("truncated chunk body")
        (crc,) = struct.unpack_from(">I", data, pos + 8 + length)
        if crc != (zlib.crc32(chunk_type + body) & 0xFFFFFFFF):
            raise PngError(f"bad CRC in {chunk_type!r} chunk")
        yield chunk_type, body
        pos += 12 + length


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


def _unpack_row(packed: bytes, bit_depth: int, width: int) -> bytes:
    if bit_depth == 8:
        return packed[:width]
    per_byte = 8 // bit_depth
    mask = (1 << bit_depth) - 1
    out = bytearray()
    for byte in packed:
        for i in range(per_byte):
            out.append((byte >> (8 - (i + 1) * bit_depth)) & mask)
            if len(out) == width:
                return bytes(out)
    if len(out) < width:
        raise PngError("scanline too short")
    return bytes(out)


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


def _unfilter_row(filter_type: int, filtered: bytes, prior: bytes,
                  bpp: int) -> bytes:
    out = bytearray(len(filtered))
    for i in range(len(filtered)):
        left = out[i - bpp] if i >= bpp else 0
        up = prior[i] if prior else 0
        up_left = prior[i - bpp] if (prior and i >= bpp) else 0
        if filter_type == 0:
            out[i] = filtered[i]
        elif filter_type == 1:
            out[i] = (filtered[i] + left) & 0xFF
        elif filter_type == 2:
            out[i] = (filtered[i] + up) & 0xFF
        elif filter_type == 3:
            out[i] = (filtered[i] + (left + up) // 2) & 0xFF
        elif filter_type == 4:
            out[i] = (filtered[i] + _paeth(left, up, up_left)) & 0xFF
        else:
            raise PngError(f"unknown filter type {filter_type}")
    return bytes(out)


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
# Public codec
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


def decode_png(data: bytes) -> IndexedImage:
    """Decode a palette PNG produced by :func:`encode_png`."""
    if data[:8] != PNG_SIGNATURE:
        raise PngError("bad PNG signature")
    width = height = bit_depth = None
    interlaced = False
    palette: List[Tuple[int, int, int]] = []
    transparent: Optional[int] = None
    idat = bytearray()
    for chunk_type, body in _iter_chunks(data):
        if chunk_type == b"IHDR":
            width, height, bit_depth, color_type, _c, _f, interlace = \
                struct.unpack(">IIBBBBB", body)
            if color_type != 3:
                raise PngError("only palette PNGs are supported")
            if interlace not in (0, 1):
                raise PngError(f"unknown interlace method {interlace}")
            interlaced = interlace == 1
        elif chunk_type == b"PLTE":
            palette = [(body[i], body[i + 1], body[i + 2])
                       for i in range(0, len(body), 3)]
        elif chunk_type == b"tRNS":
            for index, alpha in enumerate(body):
                if alpha == 0:
                    transparent = index
                    break
        elif chunk_type == b"IDAT":
            idat.extend(body)
        elif chunk_type == b"IEND":
            break
    if width is None or not palette:
        raise PngError("missing IHDR or PLTE")
    raw = zlib.decompress(bytes(idat))
    if interlaced:
        pixels = _decode_adam7(raw, width, height, bit_depth)
    else:
        pixels = bytearray()
        prior = b""
        pos = 0
        bytes_per_row = (width * bit_depth + 7) // 8
        for _y in range(height):
            filter_type = raw[pos]
            pos += 1
            filtered = raw[pos:pos + bytes_per_row]
            pos += bytes_per_row
            packed = _unfilter_row(filter_type, filtered, prior, 1)
            pixels.extend(_unpack_row(packed, bit_depth, width))
            prior = packed
    return IndexedImage(width, height, palette, bytes(pixels),
                        transparent=transparent)


def _decode_adam7(raw: bytes, width: int, height: int,
                  bit_depth: int) -> bytearray:
    """Reassemble Adam7 passes into the full pixel grid."""
    pixels = bytearray(width * height)
    pos = 0
    for x0, y0, dx, dy in ADAM7_PASSES:
        pass_width = (width - x0 + dx - 1) // dx
        pass_rows = (height - y0 + dy - 1) // dy
        if pass_width <= 0 or pass_rows <= 0:
            continue
        bytes_per_row = (pass_width * bit_depth + 7) // 8
        prior = b""
        for row_index in range(pass_rows):
            filter_type = raw[pos]
            pos += 1
            filtered = raw[pos:pos + bytes_per_row]
            pos += bytes_per_row
            packed = _unfilter_row(filter_type, filtered, prior, 1)
            samples = _unpack_row(packed, bit_depth, pass_width)
            y = y0 + row_index * dy
            for index, sample in enumerate(samples):
                pixels[y * width + x0 + index * dx] = sample
            prior = packed
    return pixels
