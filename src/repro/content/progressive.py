"""Progressive-rendering analysis: image area painted vs. bytes received.

The paper's future-work section: "PNG also provides time to render
benefits relative to GIF", and its range-request discussion assumes
browsers fetch "enough of each object to allow for progressive display".
This module quantifies both: given a prefix of an encoded image, how
much of the display *area* can already be painted (at any resolution)?

* **baseline** streams paint strictly top-to-bottom: coverage grows
  linearly with decoded rows;
* **GIF interlace** (4 passes) paints every 8th row first — a browser
  replicates each pass-1 row over the following 7, so a quarter of the
  data covers the whole canvas coarsely;
* **PNG Adam7** starts with one pixel per 8x8 block: ~2 % of the data
  already covers 100 % of the area.

Coverage is the fraction of pixels having at least a coarse
approximation (nearest received ancestor in the pass structure), the
standard progressive-display replication rule.
"""

from __future__ import annotations

import struct
import zlib
from typing import Tuple

from .gif import GIF_INTERLACE_PASSES, lzw_decode
from .png import ADAM7_PASSES, PNG_SIGNATURE

__all__ = ["gif_area_coverage", "png_area_coverage", "bytes_for_coverage"]


# ----------------------------------------------------------------------
# GIF
# ----------------------------------------------------------------------
def _gif_available_pixels(wire: bytes, prefix_len: int
                          ) -> Tuple[int, int, int, bool]:
    """(decoded pixels, width, height, interlaced) for a GIF prefix."""
    if prefix_len < 13 or wire[:3] != b"GIF":
        return 0, 0, 0, False
    width, height, packed, _bg, _ar = struct.unpack_from("<HHBBB", wire, 6)
    pos = 13
    if packed & 0x80:
        pos += 3 * (2 << (packed & 0x07))
    interlaced = False
    # Walk blocks to the first image descriptor.
    while pos < min(prefix_len, len(wire)):
        marker = wire[pos]
        if marker == 0x21:                      # extension: skip
            pos += 2
            while pos < len(wire) and wire[pos] != 0:
                pos += 1 + wire[pos]
            pos += 1
            continue
        if marker != 0x2C:
            return 0, width, height, False
        img_packed = wire[pos + 9]
        interlaced = bool(img_packed & 0x40)
        pos += 10
        if img_packed & 0x80:
            pos += 3 * (2 << (img_packed & 0x07))
        if pos >= prefix_len:
            return 0, width, height, interlaced
        min_code_size = wire[pos]
        pos += 1
        # Collect LZW bytes from sub-blocks fully inside the prefix.
        data = bytearray()
        while pos < min(prefix_len, len(wire)):
            length = wire[pos]
            pos += 1
            if length == 0:
                break
            chunk = wire[pos:pos + length]
            pos += length
            if pos > prefix_len:
                usable = length - (pos - prefix_len)
                data.extend(chunk[:max(0, usable)])
                break
            data.extend(chunk)
        pixels = lzw_decode(bytes(data), min_code_size, strict=False)
        return min(len(pixels), width * height), width, height, interlaced
    return 0, width, height, interlaced


def gif_area_coverage(wire: bytes, prefix_len: int) -> float:
    """Display-area fraction paintable from the first ``prefix_len`` bytes."""
    pixels, width, height, interlaced = _gif_available_pixels(
        wire, prefix_len)
    if not width or not height or not pixels:
        return 0.0
    rows = pixels // width
    total = width * height
    if not interlaced:
        return min(1.0, rows * width / total)
    covered = 0
    remaining = rows
    for _start, step in GIF_INTERLACE_PASSES:
        pass_rows = (height + step - 1) // step if step == 8 else \
            max(0, (height - _start + step - 1) // step)
        take = min(remaining, pass_rows)
        # A pass-k row stands in for `step` display rows (replication),
        # but never beyond what earlier passes already covered finer.
        covered += take * width * step
        remaining -= take
        if remaining <= 0:
            break
    return min(1.0, covered / total)


# ----------------------------------------------------------------------
# PNG
# ----------------------------------------------------------------------
def _png_raw_prefix(wire: bytes, prefix_len: int) -> Tuple[bytes, dict]:
    """Inflate whatever IDAT bytes fall inside the prefix."""
    if prefix_len < len(PNG_SIGNATURE) + 25 \
            or wire[:8] != PNG_SIGNATURE:
        return b"", {}
    info = {}
    idat = bytearray()
    pos = 8
    while pos + 8 <= min(prefix_len, len(wire)):
        (length,) = struct.unpack_from(">I", wire, pos)
        chunk_type = wire[pos + 4:pos + 8]
        body_start = pos + 8
        body_end = body_start + length
        available = min(body_end, prefix_len)
        if chunk_type == b"IHDR" and available >= body_start + 13:
            width, height, depth, _ct, _c, _f, interlace = \
                struct.unpack_from(">IIBBBBB", wire, body_start)
            info = {"width": width, "height": height, "depth": depth,
                    "interlaced": interlace == 1}
        elif chunk_type == b"IDAT":
            idat.extend(wire[body_start:available])
        pos = body_end + 4
    if not info:
        return b"", {}
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(bytes(idat))
    except zlib.error:
        raw = b""
    return raw, info


def png_area_coverage(wire: bytes, prefix_len: int) -> float:
    """Display-area fraction paintable from the first ``prefix_len`` bytes."""
    raw, info = _png_raw_prefix(wire, prefix_len)
    if not info or not raw:
        return 0.0
    width, height = info["width"], info["height"]
    depth = info["depth"]
    total = width * height
    if not info["interlaced"]:
        bytes_per_row = 1 + (width * depth + 7) // 8
        rows = len(raw) // bytes_per_row
        return min(1.0, rows * width / total)
    covered = 0
    pos = 0
    for x0, y0, dx, dy in ADAM7_PASSES:
        pass_width = (width - x0 + dx - 1) // dx
        pass_rows = (height - y0 + dy - 1) // dy
        if pass_width <= 0 or pass_rows <= 0:
            continue
        bytes_per_row = 1 + (pass_width * depth + 7) // 8
        for _row in range(pass_rows):
            if pos + bytes_per_row > len(raw):
                return min(1.0, covered / total)
            pos += bytes_per_row
            # One pass row approximates a dy-tall, full-width band at
            # dx-pixel granularity.
            covered += pass_width * dx * dy
            covered = min(covered, total)
    return min(1.0, covered / total)


# ----------------------------------------------------------------------
# Thresholds
# ----------------------------------------------------------------------
def bytes_for_coverage(wire: bytes, coverage_fn, target: float,
                       resolution: int = 64) -> float:
    """Smallest byte *fraction* reaching ``target`` area coverage."""
    for index in range(1, resolution + 1):
        fraction = index / resolution
        if coverage_fn(wire, int(len(wire) * fraction)) >= target:
            return fraction
    return 1.0
