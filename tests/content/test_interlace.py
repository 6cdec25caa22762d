"""Tests for progressive (interlaced) image encodings.

The paper's range-request discussion assumes progressive formats: the
browser fetches "enough of each object to allow for progressive display
of image data types (e.g. progressive PNG, GIF or JPEG images)".
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.content import (IndexedImage, bullet, encode_gif, encode_png,
                           icon, photo_like)
from repro.content.gif import _interlace_row_order
from repro.content.png import ADAM7_PASSES

from .decoder_oracle import decode_gif, decode_png


# ----------------------------------------------------------------------
# PNG Adam7
# ----------------------------------------------------------------------
@pytest.mark.parametrize("image", [
    bullet(8),
    icon(16, colors=8, seed=4),
    photo_like(33, 21, colors=100, seed=5, noise=0.4),
    photo_like(7, 5, colors=4, seed=6),       # smaller than one pass
    photo_like(1, 1, colors=2, seed=7),
], ids=["bullet", "icon", "photo", "tiny", "onepixel"])
def test_adam7_roundtrip(image):
    wire = encode_png(image, interlace=True)
    decoded = decode_png(wire)
    assert decoded.pixels == image.pixels
    assert decoded.width == image.width


def test_adam7_flag_in_ihdr():
    progressive = encode_png(icon(16, seed=1), interlace=True)
    baseline = encode_png(icon(16, seed=1), interlace=False)
    # IHDR interlace byte is the 13th data byte of the first chunk.
    assert progressive[8 + 8 + 12] == 1
    assert baseline[8 + 8 + 12] == 0


def test_adam7_passes_cover_every_pixel_once():
    seen = set()
    width, height = 16, 16
    for x0, y0, dx, dy in ADAM7_PASSES:
        for y in range(y0, height, dy):
            for x in range(x0, width, dx):
                assert (x, y) not in seen
                seen.add((x, y))
    assert len(seen) == width * height


def test_first_pass_spans_whole_image():
    """Pass 1 samples every 8th pixel — a full-area preview from ~1/64
    of the data, which is the progressive-rendering point."""
    x0, y0, dx, dy = ADAM7_PASSES[0]
    assert (x0, y0) == (0, 0)
    assert dx == dy == 8


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 20), st.integers(1, 20), st.integers(2, 8),
       st.randoms(use_true_random=False))
def test_adam7_roundtrip_property(width, height, colors, rng):
    palette = [(rng.randrange(256),) * 3 for _ in range(colors)]
    pixels = bytes(rng.randrange(colors) for _ in range(width * height))
    image = IndexedImage(width, height, list(palette), pixels)
    assert decode_png(encode_png(image, interlace=True)).pixels == pixels


# ----------------------------------------------------------------------
# GIF four-pass interlace
# ----------------------------------------------------------------------
@pytest.mark.parametrize("image", [
    icon(16, colors=8, seed=4),
    photo_like(31, 17, colors=64, seed=9, noise=0.3),
    photo_like(5, 3, colors=4, seed=2),
], ids=["icon", "photo", "tiny"])
def test_gif_interlace_roundtrip(image):
    wire = encode_gif(image, interlace=True)
    decoded = decode_gif(wire)
    assert decoded.pixels == image.pixels


def test_gif_interlace_row_order_is_a_permutation():
    for height in (1, 2, 7, 8, 9, 64):
        order = _interlace_row_order(height)
        assert sorted(order) == list(range(height))


def test_gif_interlace_first_pass_rows():
    order = _interlace_row_order(16)
    assert order[:2] == [0, 8]       # pass 1: every 8th row


def test_interlaced_size_is_comparable():
    """Interlacing shuffles rows; the size cost should be small."""
    image = photo_like(60, 40, colors=64, seed=3, noise=0.3)
    plain_gif = len(encode_gif(image))
    inter_gif = len(encode_gif(image, interlace=True))
    assert abs(inter_gif - plain_gif) < plain_gif * 0.25
    plain_png = len(encode_png(image))
    inter_png = len(encode_png(image, interlace=True))
    assert abs(inter_png - plain_png) < plain_png * 0.35
