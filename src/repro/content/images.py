"""Synthetic raster images standing in for the Microscape artwork.

The paper's test page merged real Netscape and Microsoft home-page
artwork — 40 static GIFs plus 2 animations — which we cannot ship.
These generators produce deterministic palette-indexed images of the
same *kinds* (text banners, bullets, spacers, icons, photographic
banners, animations) whose encoded sizes can be calibrated to the
paper's size histogram.  The GIF/PNG/MNG experiments then run real
codecs over real pixels.

All images are 8-bit-or-less palette images (the dominant 1997 web
format); :class:`IndexedImage` is the common in-memory representation
shared by :mod:`repro.content.gif`, :mod:`repro.content.png` and
:mod:`repro.content.mng`.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional, Tuple

__all__ = ["IndexedImage", "banner", "bullet", "spacer", "icon",
           "photo_like", "animation_frames"]

Color = Tuple[int, int, int]


@dataclasses.dataclass
class IndexedImage:
    """A palette-indexed raster image.

    ``pixels`` holds one palette index per pixel, row-major.
    """

    width: int
    height: int
    palette: List[Color]
    pixels: bytes
    #: Index of the transparent palette entry, if any.
    transparent: Optional[int] = None

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        if len(self.pixels) != self.width * self.height:
            raise ValueError(
                f"pixel count {len(self.pixels)} != "
                f"{self.width}x{self.height}")
        if not 1 <= len(self.palette) <= 256:
            raise ValueError("palette must hold 1..256 colors")
        if max(self.pixels, default=0) >= len(self.palette):
            raise ValueError("pixel index out of palette range")

    @property
    def bit_depth(self) -> int:
        """Bits per pixel needed for this palette (1, 2, 4 or 8)."""
        needed = max(1, (len(self.palette) - 1).bit_length())
        for depth in (1, 2, 4, 8):
            if needed <= depth:
                return depth
        raise AssertionError("palette larger than 256 entries")

    def row(self, y: int) -> bytes:
        """Pixel indices of scanline ``y``."""
        return self.pixels[y * self.width:(y + 1) * self.width]

    def rows(self) -> List[bytes]:
        """All scanlines, top to bottom."""
        return [self.row(y) for y in range(self.height)]


# ----------------------------------------------------------------------
# Generators
#
# Every cold site build runs these per pixel of every calibration probe.
# Per-pixel draws therefore inline ``rng.randrange(n)`` as the
# ``getrandbits(n.bit_length())`` rejection loop it is, and fills are
# slice assignments: the same pixels from the same random stream, at a
# fraction of the call overhead.  ``tests/content/kernel_oracle.py``
# keeps the plain per-pixel versions these are tested against.
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
    """A text-on-color banner like the paper's Figure 1 "solutions" GIF.

    The text is rendered as deterministic blocky strokes — visually
    meaningless but statistically similar to small anti-aliased text on
    a flat background, which is what matters for codec behaviour.
    ``speckle`` adds a fraction of anti-aliasing-style mid-tone pixels,
    as real font rendering of the era produced.
    """
    rng = random.Random((len(text) * 131) ^ seed)
    pixels = bytearray(width * height)  # all background
    for sx, sy, sw, sh in _blocky_glyphs(width, height, len(text), rng):
        run = min(sx + sw, width) - sx
        if run > 0:
            stroke = b"\x01" * run
            for y in range(sy, min(sy + sh, height)):
                start = y * width + sx
                pixels[start:start + run] = stroke
    mid = tuple((a + b) // 2 for a, b in zip(fg, bg))
    if speckle > 0:
        total = width * height
        getrandbits, bits = rng.getrandbits, total.bit_length()
        for _ in range(int(total * speckle)):
            index = getrandbits(bits)           # rng.randrange(total)
            while index >= total:
                index = getrandbits(bits)
            pixels[index] = 2
    return IndexedImage(width, height, [bg, fg, mid], bytes(pixels))


def bullet(size: int = 8, color: Color = (204, 0, 0),
           bg: Color = (255, 255, 255)) -> IndexedImage:
    """A tiny disc: the classic list-bullet GIF that CSS1 makes obsolete."""
    pixels = bytearray(size * size)
    center = (size - 1) / 2.0
    radius = size / 2.0 - 0.5
    for y in range(size):
        for x in range(size):
            if (x - center) ** 2 + (y - center) ** 2 <= radius ** 2:
                pixels[y * size + x] = 1
    return IndexedImage(size, size, [bg, color], bytes(pixels),
                        transparent=0)


def spacer(width: int = 1, height: int = 1) -> IndexedImage:
    """A transparent spacer GIF (the layout hack CSS1 eliminates)."""
    return IndexedImage(width, height, [(255, 255, 255)],
                        bytes(width * height), transparent=0)


def icon(size: int = 16, colors: int = 8, seed: int = 0,
         speckle: float = 0.0) -> IndexedImage:
    """A small multi-color icon with coherent regions (logo-like).

    ``speckle`` randomizes a fraction of pixels, modelling dithered
    edges and gradients in real icon artwork.
    """
    if colors < 1:
        raise ValueError("an icon needs at least one color")
    rng = random.Random(seed)
    palette = [(rng.randrange(256), rng.randrange(256), rng.randrange(256))
               for _ in range(colors)]
    pixels = bytearray(size * size)
    # Paint a handful of rectangles over a base color: coherent regions
    # compress the way simple flat-color artwork does.
    for _ in range(colors * 2):
        color_index = rng.randrange(colors)
        x0, y0 = rng.randrange(size), rng.randrange(size)
        w = rng.randint(1, max(1, size // 2))
        h = rng.randint(1, max(1, size // 2))
        run = min(x0 + w, size) - x0
        fill = bytes((color_index,)) * run
        for y in range(y0, min(y0 + h, size)):
            start = y * size + x0
            pixels[start:start + run] = fill
    if speckle > 0:
        total = size * size
        getrandbits = rng.getrandbits
        index_bits, color_bits = total.bit_length(), colors.bit_length()
        for _ in range(int(total * speckle)):
            # pixels[rng.randrange(total)] = rng.randrange(colors), with
            # randrange inlined: the right-hand side is drawn first.
            value = getrandbits(color_bits)
            while value >= colors:
                value = getrandbits(color_bits)
            index = getrandbits(index_bits)
            while index >= total:
                index = getrandbits(index_bits)
            pixels[index] = value
    return IndexedImage(size, size, palette, bytes(pixels))


def photo_like(width: int, height: int, colors: int = 128, seed: int = 0,
               noise: float = 0.5) -> IndexedImage:
    """A dithered photographic image (hard for LZW, like big JPEG-ish GIFs).

    ``noise`` in [0, 1] mixes a smooth two-axis gradient with random
    dither; higher noise ⇒ larger encoded size.  This is the calibration
    knob :mod:`repro.content.microscape` turns to hit target byte sizes.
    """
    if colors < 1:
        raise ValueError("a photo needs at least one color")
    rng = random.Random(seed)
    palette = [(i * 255 // max(1, colors - 1),
                (i * 37) % 256,
                255 - i * 255 // max(1, colors - 1))
               for i in range(colors)]
    pixels = bytearray(width * height)
    uniform, getrandbits = rng.random, rng.getrandbits
    bits = colors.bit_length()
    columns = [(x * (colors - 1)) // max(1, width - 1) for x in range(width)]
    for y in range(height):
        base = y * width
        row_term = (y * (colors - 1)) // max(1, height - 1)
        pixels[base:base + width] = bytes(
            [(column + row_term) // 2 for column in columns])
        for x in range(base, base + width):
            if uniform() < noise:
                value = getrandbits(bits)       # rng.randrange(colors)
                while value >= colors:
                    value = getrandbits(bits)
                pixels[x] = value
    return IndexedImage(width, height, palette, bytes(pixels))


def animation_frames(width: int = 60, height: int = 40, frames: int = 8,
                     colors: int = 32, seed: int = 0, noise: float = 0.35,
                     change_fraction: float = 0.5) -> List[IndexedImage]:
    """An animation: a base frame plus per-frame deltas.

    Each frame re-randomizes a moving patch plus ``change_fraction`` of
    scattered pixels; the remainder is shared with the previous frame —
    the redundancy MNG's inter-frame encoding exploits and animated GIF
    cannot.  ``change_fraction`` calibrates how much MNG wins.
    """
    rng = random.Random(seed)
    base = photo_like(width, height, colors=colors, seed=seed, noise=noise)
    sequence = [base]
    pixels = bytearray(base.pixels)
    total = width * height
    getrandbits = rng.getrandbits
    index_bits, color_bits = total.bit_length(), colors.bit_length()
    for _ in range(frames - 1):
        patch_w = max(2, width // 4)
        patch_h = max(2, height // 4)
        x0 = rng.randrange(max(1, width - patch_w))
        y0 = rng.randrange(max(1, height - patch_h))
        for y in range(y0, y0 + patch_h):
            start = y * width + x0
            for x in range(start, start + patch_w):
                value = getrandbits(color_bits)  # rng.randrange(colors)
                while value >= colors:
                    value = getrandbits(color_bits)
                pixels[x] = value
        for _ in range(int(total * change_fraction)):
            # pixels[rng.randrange(total)] = rng.randrange(colors): the
            # right-hand side is drawn first.
            value = getrandbits(color_bits)
            while value >= colors:
                value = getrandbits(color_bits)
            index = getrandbits(index_bits)
            while index >= total:
                index = getrandbits(index_bits)
            pixels[index] = value
        sequence.append(IndexedImage(width, height, list(base.palette),
                                     bytes(pixels)))
    return sequence
