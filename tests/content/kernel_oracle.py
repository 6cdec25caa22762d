"""Differential oracle for the content encode kernels.

The straightforward GIF LZW encoder and pixel generators that
``repro.content.gif`` / ``repro.content.images`` replaced with tight
loops on locals, kept verbatim.  ``test_kernels.py`` holds the rewrites
to these byte for byte; nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.content.images import Color, IndexedImage

MAX_CODE_WIDTH = 12
MAX_CODES = 1 << MAX_CODE_WIDTH


# ----------------------------------------------------------------------
# GIF LZW (bytes-keyed dictionary, method-call bit packing)
# ----------------------------------------------------------------------
class _BitWriter:
    """Packs variable-width codes LSB-first, as GIF requires."""

    def __init__(self) -> None:
        self.out = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, code: int, width: int) -> None:
        self._acc |= code << self._nbits
        self._nbits += width
        while self._nbits >= 8:
            self.out.append(self._acc & 0xFF)
            self._acc >>= 8
            self._nbits -= 8

    def flush(self) -> bytes:
        if self._nbits:
            self.out.append(self._acc & 0xFF)
            self._acc = 0
            self._nbits = 0
        return bytes(self.out)


def lzw_encode(data: bytes, min_code_size: int) -> bytes:
    """GIF-flavour LZW: clear/end codes, 12-bit cap, dictionary reset."""
    clear = 1 << min_code_size
    end = clear + 1
    writer = _BitWriter()

    def fresh_dict() -> dict:
        return {bytes([i]): i for i in range(clear)}

    table = fresh_dict()
    next_code = end + 1
    width = min_code_size + 1
    writer.write(clear, width)
    prefix = b""
    for i in range(len(data)):
        byte = data[i:i + 1]
        candidate = prefix + byte
        if candidate in table:
            prefix = candidate
            continue
        writer.write(table[prefix], width)
        if next_code < MAX_CODES:
            table[candidate] = next_code
            next_code += 1
            if next_code == (1 << width) + 1 and width < MAX_CODE_WIDTH:
                width += 1
        else:
            writer.write(clear, width)
            table = fresh_dict()
            next_code = end + 1
            width = min_code_size + 1
        prefix = byte
    if prefix:
        writer.write(table[prefix], width)
    writer.write(end, width)
    return writer.flush()


# ----------------------------------------------------------------------
# Pixel generators (per-pixel loops, rng method calls)
# ----------------------------------------------------------------------
def _blocky_glyphs(width: int, height: int, text_length: int,
                   rng: random.Random) -> List[Tuple[int, int, int, int]]:
    """Rectangles approximating rendered text (x, y, w, h per stroke)."""
    strokes = []
    pad = max(2, height // 5)
    glyph_width = max(3, (width - 2 * pad) // max(1, text_length))
    x = pad
    for _ in range(text_length):
        n_strokes = rng.randint(2, 4)
        for _ in range(n_strokes):
            sx = x + rng.randrange(max(1, glyph_width - 2))
            sy = pad + rng.randrange(max(1, height - 2 * pad))
            sw = rng.randint(1, max(1, glyph_width // 2))
            sh = rng.randint(1, max(1, (height - 2 * pad) // 2))
            strokes.append((sx, sy, sw, sh))
        x += glyph_width
        if x >= width - pad:
            break
    return strokes


def banner(text: str, width: int = 120, height: int = 24,
           fg: Color = (255, 255, 255), bg: Color = (255, 204, 0),
           seed: int = 0, speckle: float = 0.0) -> IndexedImage:
    rng = random.Random((len(text) * 131) ^ seed)
    pixels = bytearray(width * height)  # all background
    for sx, sy, sw, sh in _blocky_glyphs(width, height, len(text), rng):
        for y in range(sy, min(sy + sh, height)):
            base = y * width
            for x in range(sx, min(sx + sw, width)):
                pixels[base + x] = 1
    mid = tuple((a + b) // 2 for a, b in zip(fg, bg))
    if speckle > 0:
        total = width * height
        for _ in range(int(total * speckle)):
            pixels[rng.randrange(total)] = 2
    return IndexedImage(width, height, [bg, fg, mid], bytes(pixels))


def icon(size: int = 16, colors: int = 8, seed: int = 0,
         speckle: float = 0.0) -> IndexedImage:
    rng = random.Random(seed)
    palette = [(rng.randrange(256), rng.randrange(256), rng.randrange(256))
               for _ in range(colors)]
    pixels = bytearray(size * size)
    for _ in range(colors * 2):
        color_index = rng.randrange(colors)
        x0, y0 = rng.randrange(size), rng.randrange(size)
        w = rng.randint(1, max(1, size // 2))
        h = rng.randint(1, max(1, size // 2))
        for y in range(y0, min(y0 + h, size)):
            for x in range(x0, min(x0 + w, size)):
                pixels[y * size + x] = color_index
    if speckle > 0:
        total = size * size
        for _ in range(int(total * speckle)):
            pixels[rng.randrange(total)] = rng.randrange(colors)
    return IndexedImage(size, size, palette, bytes(pixels))


def photo_like(width: int, height: int, colors: int = 128, seed: int = 0,
               noise: float = 0.5) -> IndexedImage:
    rng = random.Random(seed)
    palette = [(i * 255 // max(1, colors - 1),
                (i * 37) % 256,
                255 - i * 255 // max(1, colors - 1))
               for i in range(colors)]
    pixels = bytearray(width * height)
    for y in range(height):
        base = y * width
        for x in range(width):
            gradient = ((x * (colors - 1)) // max(1, width - 1)
                        + (y * (colors - 1)) // max(1, height - 1)) // 2
            if rng.random() < noise:
                value = rng.randrange(colors)
            else:
                value = gradient
            pixels[base + x] = value
    return IndexedImage(width, height, palette, bytes(pixels))


def animation_frames(width: int = 60, height: int = 40, frames: int = 8,
                     colors: int = 32, seed: int = 0, noise: float = 0.35,
                     change_fraction: float = 0.5) -> List[IndexedImage]:
    rng = random.Random(seed)
    base = photo_like(width, height, colors=colors, seed=seed, noise=noise)
    sequence = [base]
    pixels = bytearray(base.pixels)
    total = width * height
    for _ in range(frames - 1):
        patch_w = max(2, width // 4)
        patch_h = max(2, height // 4)
        x0 = rng.randrange(max(1, width - patch_w))
        y0 = rng.randrange(max(1, height - patch_h))
        for y in range(y0, y0 + patch_h):
            for x in range(x0, x0 + patch_w):
                pixels[y * width + x] = rng.randrange(colors)
        for _ in range(int(total * change_fraction)):
            pixels[rng.randrange(total)] = rng.randrange(colors)
        sequence.append(IndexedImage(width, height, list(base.palette),
                                     bytes(pixels)))
    return sequence
