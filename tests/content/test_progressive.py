"""Tests for progressive-rendering coverage analysis."""

import pytest

from repro.content import encode_gif, encode_png, photo_like
from repro.content.progressive import (bytes_for_coverage,
                                       gif_area_coverage,
                                       png_area_coverage)


@pytest.fixture(scope="module")
def image():
    return photo_like(100, 80, colors=64, seed=11, noise=0.3)


@pytest.fixture(scope="module")
def wires(image):
    return {
        "gif": encode_gif(image),
        "gif_i": encode_gif(image, interlace=True),
        "png": encode_png(image),
        "png_i": encode_png(image, interlace=True),
    }


def test_zero_prefix_zero_coverage(wires):
    assert gif_area_coverage(wires["gif"], 0) == 0.0
    assert png_area_coverage(wires["png"], 0) == 0.0
    assert gif_area_coverage(wires["gif"], 10) == 0.0


def test_full_file_full_coverage(wires):
    assert gif_area_coverage(wires["gif"], len(wires["gif"])) == 1.0
    assert png_area_coverage(wires["png"], len(wires["png"])) == 1.0
    assert gif_area_coverage(wires["gif_i"],
                             len(wires["gif_i"])) == 1.0
    assert png_area_coverage(wires["png_i"],
                             len(wires["png_i"])) == 1.0


def test_coverage_is_monotone(wires):
    for name, fn in (("gif", gif_area_coverage),
                     ("png", png_area_coverage),
                     ("gif_i", gif_area_coverage),
                     ("png_i", png_area_coverage)):
        wire = wires[name]
        values = [fn(wire, int(len(wire) * index / 16))
                  for index in range(1, 17)]
        assert values == sorted(values), name
        assert 0.0 <= values[0] and values[-1] == 1.0


def test_baseline_coverage_roughly_linear(wires):
    """Top-to-bottom decoding: half the bytes ≈ half the rows."""
    half = gif_area_coverage(wires["gif"], len(wires["gif"]) // 2)
    assert 0.25 <= half <= 0.75


def test_interlaced_formats_front_load_coverage(wires):
    """The progressive-display payoff the paper points at."""
    gif_90 = bytes_for_coverage(wires["gif"], gif_area_coverage, 0.9)
    gif_i_90 = bytes_for_coverage(wires["gif_i"], gif_area_coverage, 0.9)
    png_90 = bytes_for_coverage(wires["png"], png_area_coverage, 0.9)
    png_i_90 = bytes_for_coverage(wires["png_i"], png_area_coverage, 0.9)
    assert gif_i_90 < gif_90 / 2
    assert png_i_90 < png_90 / 2
    # "PNG also provides time to render benefits relative to GIF":
    # Adam7's first pass is 1/64 of the pixels vs GIF's 1/8 rows.
    assert png_i_90 < gif_i_90


def test_wrong_format_returns_zero(wires):
    assert gif_area_coverage(wires["png"], 100) == 0.0
    assert png_area_coverage(wires["gif"], 100) == 0.0


def test_truncated_lzw_decodes_prefix():
    from repro.content.gif import lzw_decode, lzw_encode
    data = bytes(range(250)) * 4
    encoded = lzw_encode(data, 8)
    partial = lzw_decode(encoded[:len(encoded) // 2], 8, strict=False)
    assert 0 < len(partial) < len(data)
    assert data.startswith(partial)
