"""Unit and property tests for the GIF, PNG and MNG codecs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.content.gif import (GifError, encode_animated_gif, encode_gif,
                               lzw_decode, lzw_encode)
from repro.content.images import (IndexedImage, animation_frames, banner,
                                  bullet, icon, photo_like, spacer)
from repro.content.mng import encode_mng
from repro.content.png import encode_png

from .decoder_oracle import (MngError, PngError, decode_animated_gif,
                             decode_gif, decode_mng, decode_png)


# ----------------------------------------------------------------------
# IndexedImage
# ----------------------------------------------------------------------
def test_image_validation():
    with pytest.raises(ValueError):
        IndexedImage(2, 2, [(0, 0, 0)], b"\x00" * 3)  # wrong pixel count
    with pytest.raises(ValueError):
        IndexedImage(1, 1, [(0, 0, 0)], b"\x05")      # index out of range
    with pytest.raises(ValueError):
        IndexedImage(0, 1, [(0, 0, 0)], b"")          # zero dimension


def test_bit_depth():
    assert spacer().bit_depth == 1
    assert bullet().bit_depth == 1
    assert icon(colors=8).bit_depth == 4 or icon(colors=8).bit_depth == 8
    assert photo_like(4, 4, colors=128).bit_depth == 8


def test_generators_are_deterministic():
    a = photo_like(20, 20, seed=7)
    b = photo_like(20, 20, seed=7)
    assert a.pixels == b.pixels
    assert banner("solutions").pixels == banner("solutions").pixels


def test_rows():
    image = IndexedImage(2, 2, [(0, 0, 0), (1, 1, 1)], b"\x00\x01\x01\x00")
    assert image.rows() == [b"\x00\x01", b"\x01\x00"]


# ----------------------------------------------------------------------
# GIF LZW
# ----------------------------------------------------------------------
def test_lzw_roundtrip_simple():
    data = b"\x00\x01\x00\x01\x02" * 10
    assert lzw_decode(lzw_encode(data, 2), 2) == data


def test_lzw_roundtrip_exercises_width_growth():
    """Enough distinct contexts to push the code width past 9 bits."""
    data = photo_like(80, 80, colors=256, seed=3, noise=0.9).pixels
    assert lzw_decode(lzw_encode(data, 8), 8) == data


def test_lzw_roundtrip_exercises_dictionary_reset():
    """>4096 dictionary entries force a CLEAR-code reset mid-stream."""
    data = photo_like(150, 150, colors=256, seed=4, noise=1.0).pixels
    assert len(data) > 20000
    assert lzw_decode(lzw_encode(data, 8), 8) == data


@settings(max_examples=50)
@given(st.binary(min_size=0, max_size=3000).map(
    lambda b: bytes(x & 0x0F for x in b)))
def test_lzw_roundtrip_property(data):
    assert lzw_decode(lzw_encode(data, 4), 4) == data


def test_lzw_rejects_a_symbol_wider_than_the_code_size():
    with pytest.raises(GifError, match="symbol 5 .* code size 2"):
        lzw_encode(b"\x05", 2)
    with pytest.raises(GifError, match="symbol 16 .* code size 4"):
        lzw_encode(b"\x00\x03\x10\x01", 4)


# ----------------------------------------------------------------------
# GIF container
# ----------------------------------------------------------------------
@pytest.mark.parametrize("image", [
    spacer(1, 1),
    spacer(10, 3),
    bullet(8),
    banner("solutions"),
    icon(16, colors=8, seed=2),
    photo_like(33, 21, colors=100, seed=5, noise=0.4),
], ids=["spacer1x1", "spacer10x3", "bullet", "banner", "icon", "photo"])
def test_gif_roundtrip(image):
    decoded = decode_gif(encode_gif(image))
    assert decoded.width == image.width
    assert decoded.height == image.height
    assert decoded.pixels == image.pixels
    assert decoded.palette[:len(image.palette)] == image.palette
    assert decoded.transparent == image.transparent


def test_gif_version_selection():
    assert encode_gif(spacer()).startswith(b"GIF89a")   # transparency
    assert encode_gif(icon()).startswith(b"GIF87a")


def test_tiny_gif_is_tiny():
    """1997 spacer/bullet GIFs were well under 200 bytes."""
    assert len(encode_gif(spacer())) < 60
    assert len(encode_gif(bullet())) < 120


def test_animated_gif_roundtrip():
    frames = animation_frames(40, 30, frames=5, seed=9)
    wire = encode_animated_gif(frames, delay_cs=12)
    assert wire.startswith(b"GIF89a")
    assert b"NETSCAPE2.0" in wire
    decoded = decode_animated_gif(wire)
    assert len(decoded) == 5
    for original, roundtrip in zip(frames, decoded):
        assert roundtrip.pixels == original.pixels


def test_gif_decoder_rejects_garbage():
    with pytest.raises(GifError):
        decode_gif(b"NOTAGIF" + b"\x00" * 20)


def test_gif_decoder_rejects_truncated():
    wire = encode_gif(bullet())
    with pytest.raises((GifError, ValueError, IndexError, Exception)):
        decode_gif(wire[:15])


# ----------------------------------------------------------------------
# PNG
# ----------------------------------------------------------------------
@pytest.mark.parametrize("image", [
    spacer(1, 1),
    bullet(8),
    banner("solutions"),
    icon(16, colors=8, seed=2),
    photo_like(33, 21, colors=100, seed=5, noise=0.4),
    photo_like(40, 40, colors=256, seed=6, noise=0.9),
], ids=["spacer", "bullet", "banner", "icon", "photo", "noisy"])
def test_png_roundtrip(image):
    decoded = decode_png(encode_png(image))
    assert decoded.width == image.width
    assert decoded.height == image.height
    assert decoded.pixels == image.pixels
    assert decoded.palette[:len(image.palette)] == image.palette
    assert decoded.transparent == image.transparent


def test_png_gamma_chunk_costs_16_bytes():
    """The paper: gamma information 'adds 16 bytes per image'."""
    image = icon(16, seed=1)
    with_gamma = encode_png(image, include_gamma=True)
    without = encode_png(image, include_gamma=False)
    assert len(with_gamma) - len(without) == 16
    assert b"gAMA" in with_gamma
    assert b"gAMA" not in without


def test_png_fixed_overhead_hurts_tiny_images():
    """Sub-200-byte GIFs grow when converted to PNG (paper §GIF→PNG)."""
    tiny = bullet(8)
    assert len(encode_png(tiny)) > len(encode_gif(tiny))


def test_png_beats_gif_on_larger_images():
    """Deflate outperforms LZW on bigger images, shrinking the total."""
    big = photo_like(120, 90, colors=128, seed=11, noise=0.35)
    assert len(encode_png(big)) < len(encode_gif(big))


def test_png_rejects_bad_signature():
    with pytest.raises(PngError):
        decode_png(b"JPEG" * 10)


def test_png_rejects_corrupt_crc():
    wire = bytearray(encode_png(bullet()))
    wire[-5] ^= 0xFF   # flip a bit inside IEND's CRC
    with pytest.raises(PngError):
        decode_png(bytes(wire))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(2, 16),
       st.randoms(use_true_random=False))
def test_png_roundtrip_property(width, height, colors, rng):
    palette = [(rng.randrange(256), rng.randrange(256), rng.randrange(256))
               for _ in range(colors)]
    pixels = bytes(rng.randrange(colors) for _ in range(width * height))
    image = IndexedImage(width, height, palette, pixels)
    assert decode_png(encode_png(image)).pixels == pixels


# ----------------------------------------------------------------------
# MNG
# ----------------------------------------------------------------------
def test_mng_roundtrip():
    frames = animation_frames(40, 30, frames=6, seed=21)
    decoded = decode_mng(encode_mng(frames))
    assert len(decoded) == 6
    for original, roundtrip in zip(frames, decoded):
        assert roundtrip.pixels == original.pixels


def test_mng_smaller_than_animated_gif():
    """The headline animation result: MNG < animated GIF."""
    frames = animation_frames(60, 40, frames=8, seed=33)
    gif_size = len(encode_animated_gif(frames))
    mng_size = len(encode_mng(frames))
    assert mng_size < gif_size


def test_mng_single_frame():
    frames = animation_frames(20, 20, frames=1, seed=2)
    assert len(decode_mng(encode_mng(frames))) == 1


def test_mng_rejects_bad_signature():
    with pytest.raises(MngError):
        decode_mng(b"\x89PNG\r\n\x1a\n" + b"\x00" * 30)


def test_mng_requires_matching_dimensions():
    with pytest.raises(ValueError):
        encode_mng([spacer(2, 2), spacer(3, 3)])


def test_mng_empty_animation_rejected():
    with pytest.raises(ValueError):
        encode_mng([])
