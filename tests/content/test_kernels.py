"""The content encode kernels against their differential oracle.

``gif.lzw_encode`` and the pixel generators are tight loops on locals;
``kernel_oracle`` keeps the plain versions they replaced.  Same inputs,
same bytes — and the whole site, built with no artifact store, still
hashes to the digest the plain kernels gave.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.content import artifacts, images
from repro.content.gif import lzw_decode, lzw_encode
from repro.content.microscape import build_microscape_site

from . import kernel_oracle as oracle

#: sha256 over every object's ``"<url> <length>\n"`` and body, in site
#: order, of a site built from scratch.  Tier-1 otherwise reads the
#: artifact blobs some earlier encoder wrote and never runs the kernels.
COLD_SITE_SHA256 = (
    "f683c79498d3d7a56c0bc4489cd16094a24e149bffce3e36334f50da9b0234fe")


def test_cold_site_digest_is_pinned(monkeypatch):
    monkeypatch.setattr(artifacts, "_DEFAULT_STORE",
                        artifacts.ArtifactStore(enabled=False))
    site = build_microscape_site.__wrapped__()
    digest = hashlib.sha256()
    for url, obj in site.objects.items():
        digest.update(f"{url} {len(obj.body)}\n".encode("ascii"))
        digest.update(obj.body)
    assert len(site.objects) == 43
    assert digest.hexdigest() == COLD_SITE_SHA256


# ----------------------------------------------------------------------
# GIF LZW
# ----------------------------------------------------------------------
@pytest.mark.parametrize("min_code_size", range(1, 9))
def test_lzw_matches_oracle_through_dictionary_resets(min_code_size):
    # 40k uniform symbols fill the 4,096-code table at every code size.
    rng = random.Random(min_code_size)
    data = bytes(rng.getrandbits(min_code_size) for _ in range(40_000))
    encoded = lzw_encode(data, min_code_size)
    assert encoded == oracle.lzw_encode(data, min_code_size)
    if min_code_size >= 2:      # GIF's minimum; lzw_decode needs it
        assert lzw_decode(encoded, min_code_size) == data


@pytest.mark.parametrize("min_code_size", range(1, 9))
@pytest.mark.parametrize("data", [b"", b"\x00", b"\x01", b"\x01" * 5000])
def test_lzw_matches_oracle_on_degenerate_inputs(min_code_size, data):
    assert (lzw_encode(data, min_code_size)
            == oracle.lzw_encode(data, min_code_size))


@settings(max_examples=80, deadline=None)
@given(min_code_size=st.integers(1, 8),
       alphabet=st.integers(1, 256), seed=st.integers(0, 2**32 - 1),
       length=st.integers(0, 20_000))
def test_lzw_matches_oracle_property(min_code_size, alphabet, seed, length):
    rng = random.Random(seed)
    symbols = min(alphabet, 1 << min_code_size)
    data = bytes(rng.randrange(symbols) for _ in range(length))
    assert (lzw_encode(data, min_code_size)
            == oracle.lzw_encode(data, min_code_size))


# ----------------------------------------------------------------------
# Pixel generators
# ----------------------------------------------------------------------
def _outcome(generator, *args, **kwargs):
    """The generator's result, or the type of what it raised."""
    try:
        return generator(*args, **kwargs)
    except Exception as exc:  # compared, never swallowed
        return type(exc)


_SEEDS = st.integers(0, 2**32 - 1)
_FRACTIONS = st.floats(0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 64), height=st.integers(1, 64),
       colors=st.integers(1, 256), seed=_SEEDS, noise=_FRACTIONS)
def test_photo_like_matches_oracle(width, height, colors, seed, noise):
    assert (images.photo_like(width, height, colors, seed, noise)
            == oracle.photo_like(width, height, colors, seed, noise))


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, 48), colors=st.integers(1, 64), seed=_SEEDS,
       speckle=_FRACTIONS)
def test_icon_matches_oracle(size, colors, seed, speckle):
    assert (images.icon(size, colors, seed, speckle)
            == oracle.icon(size, colors, seed, speckle))


@settings(max_examples=60, deadline=None)
@given(text=st.text(max_size=24), width=st.integers(1, 300),
       height=st.integers(1, 64), seed=_SEEDS, speckle=_FRACTIONS)
def test_banner_matches_oracle(text, width, height, seed, speckle):
    kwargs = dict(width=width, height=height, seed=seed, speckle=speckle)
    assert (images.banner(text, **kwargs)
            == oracle.banner(text, **kwargs))


@settings(max_examples=40, deadline=None)
@given(width=st.integers(1, 40), height=st.integers(1, 40),
       frames=st.integers(1, 5), colors=st.integers(1, 64), seed=_SEEDS,
       noise=_FRACTIONS, change_fraction=_FRACTIONS)
def test_animation_frames_match_oracle(width, height, frames, colors, seed,
                                       noise, change_fraction):
    args = (width, height, frames, colors, seed, noise, change_fraction)
    # Patches wider or taller than the frame raise IndexError in both.
    assert (_outcome(images.animation_frames, *args)
            == _outcome(oracle.animation_frames, *args))


def test_speckle_draws_the_value_before_the_index():
    """``pixels[rng.randrange(total)] = rng.randrange(colors)`` evaluates
    its right-hand side first, so the inlined draws must too."""
    size, colors, seed = 8, 6, 2
    speckle = 1.5 / (size * size)           # exactly one speckle draw
    plain = images.icon(size, colors, seed).pixels
    got = images.icon(size, colors, seed, speckle).pixels
    # Replay the stream up to the speckle draw: palette, then rectangles.
    rng = random.Random(seed)
    for _ in range(3 * colors):
        rng.randrange(256)
    for _ in range(2 * colors):
        for bound in (colors, size, size):
            rng.randrange(bound)
        rng.randint(1, size // 2)
        rng.randint(1, size // 2)
    state = rng.getstate()
    value, index = rng.randrange(colors), rng.randrange(size * size)
    rng.setstate(state)
    swapped_index, swapped_value = (rng.randrange(size * size),
                                    rng.randrange(colors))
    expected, swapped = bytearray(plain), bytearray(plain)
    expected[index] = value
    swapped[swapped_index] = swapped_value
    assert got == expected != plain
    assert swapped != expected              # the case tells them apart
