"""Decoders for the GIF, PNG and MNG encoders in ``repro.content``.

The reproduction only ever *encodes* images (the experiments measure
encoded sizes), so the decoders live here, beside the tests that use
them to prove each encoder's output is self-consistent: a round trip
through the matching decoder gives back the pixels, palette and
transparency that went in.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Optional, Tuple

from repro.content.gif import GifError, _interlace_row_order, lzw_decode
from repro.content.images import IndexedImage
from repro.content.mng import MNG_SIGNATURE
from repro.content.png import ADAM7_PASSES, PNG_SIGNATURE, _paeth


class PngError(ValueError):
    """Raised for malformed PNG data."""


class MngError(ValueError):
    """Raised for malformed MNG data."""


# ----------------------------------------------------------------------
# GIF
# ----------------------------------------------------------------------
def _read_sub_blocks(data: bytes, pos: int) -> Tuple[bytes, int]:
    out = bytearray()
    while True:
        if pos >= len(data):
            raise GifError("truncated sub-blocks")
        length = data[pos]
        pos += 1
        if length == 0:
            return bytes(out), pos
        out.extend(data[pos:pos + length])
        pos += length


def decode_gif(data: bytes) -> IndexedImage:
    """Decode a single-frame GIF produced by ``encode_gif``."""
    frames = decode_animated_gif(data)
    if len(frames) != 1:
        raise GifError(f"expected 1 frame, found {len(frames)}")
    return frames[0]


def decode_animated_gif(data: bytes) -> List[IndexedImage]:
    """Decode all frames of a GIF."""
    if data[:6] not in (b"GIF87a", b"GIF89a"):
        raise GifError("bad GIF signature")
    width, height, packed, _bg, _aspect = struct.unpack_from("<HHBBB",
                                                             data, 6)
    pos = 13
    global_palette: List[Tuple[int, int, int]] = []
    if packed & 0x80:
        entries = 2 << (packed & 0x07)
        for _ in range(entries):
            global_palette.append((data[pos], data[pos + 1], data[pos + 2]))
            pos += 3
    frames: List[IndexedImage] = []
    transparent: Optional[int] = None
    while pos < len(data):
        marker = data[pos]
        pos += 1
        if marker == 0x3B:                      # trailer
            break
        if marker == 0x21:                      # extension
            label = data[pos]
            pos += 1
            if label == 0xF9:                   # graphic control
                block, pos = _read_sub_blocks(data, pos)
                if len(block) >= 4 and block[0] & 0x01:
                    transparent = block[3]
                else:
                    transparent = None
            else:                               # skip other extensions
                _block, pos = _read_sub_blocks(data, pos)
            continue
        if marker == 0x2C:                      # image descriptor
            (_left, _top, img_w, img_h,
             img_packed) = struct.unpack_from("<HHHHB", data, pos)
            pos += 9
            palette = global_palette
            if img_packed & 0x80:
                entries = 2 << (img_packed & 0x07)
                palette = []
                for _ in range(entries):
                    palette.append((data[pos], data[pos + 1],
                                    data[pos + 2]))
                    pos += 3
            min_code_size = data[pos]
            pos += 1
            compressed, pos = _read_sub_blocks(data, pos)
            pixels = lzw_decode(compressed, min_code_size)
            if len(pixels) != img_w * img_h:
                raise GifError("LZW data does not match image size")
            if img_packed & 0x40:               # interlaced
                straight = bytearray(len(pixels))
                for stored, y in enumerate(_interlace_row_order(img_h)):
                    straight[y * img_w:(y + 1) * img_w] = \
                        pixels[stored * img_w:(stored + 1) * img_w]
                pixels = bytes(straight)
            frames.append(IndexedImage(img_w, img_h, list(palette), pixels,
                                       transparent=transparent))
            transparent = None
            continue
        raise GifError(f"unknown block marker 0x{marker:02x}")
    if not frames:
        raise GifError("no image data")
    return frames


# ----------------------------------------------------------------------
# PNG
# ----------------------------------------------------------------------
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


def decode_png(data: bytes) -> IndexedImage:
    """Decode a palette PNG produced by ``encode_png``."""
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


# ----------------------------------------------------------------------
# MNG
# ----------------------------------------------------------------------
def decode_mng(data: bytes) -> List[IndexedImage]:
    """Decode an animation encoded by ``encode_mng``."""
    if data[:8] != MNG_SIGNATURE:
        raise MngError("bad MNG signature")
    width = height = None
    palette = []
    frames: List[IndexedImage] = []
    try:
        chunks = list(_iter_chunks(data))
    except PngError as exc:
        raise MngError(str(exc)) from exc
    pending_delta = False
    for chunk_type, body in chunks:
        if chunk_type == b"MHDR":
            width, height = struct.unpack_from(">II", body)
        elif chunk_type == b"PLTE":
            palette = [(body[i], body[i + 1], body[i + 2])
                       for i in range(0, len(body), 3)]
        elif chunk_type == b"DHDR":
            pending_delta = True
        elif chunk_type == b"IDAT":
            if width is None or not palette:
                raise MngError("IDAT before MHDR/PLTE")
            raw = zlib.decompress(body)
            if len(raw) != width * height:
                raise MngError("frame size mismatch")
            if pending_delta:
                if not frames:
                    raise MngError("delta frame without base frame")
                base = frames[-1].pixels
                raw = bytes((d + b) & 0xFF for d, b in zip(raw, base))
                pending_delta = False
            frames.append(IndexedImage(width, height, list(palette), raw))
        elif chunk_type == b"MEND":
            break
    if not frames:
        raise MngError("no frames")
    return frames
