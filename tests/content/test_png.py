"""The row-at-a-time PNG packing and filtering against a per-pixel oracle.

``_pack_row_oracle`` / ``_filter_row_oracle`` / ``_choose_filter_oracle``
are the per-pixel implementations ``repro.content.png`` used before its
scanline work moved to whole-row operations; the encoder must keep
producing exactly their bytes.
"""

import hashlib
import random

import pytest

from repro.content import ImageRole, build_microscape_site, encode_png
from repro.content.png import (_choose_filter, _filter_row, _pack_row,
                               _paeth)


def _pack_row_oracle(row, bit_depth):
    if bit_depth == 8:
        return row
    per_byte = 8 // bit_depth
    out = bytearray()
    for offset in range(0, len(row), per_byte):
        value = 0
        group = row[offset:offset + per_byte]
        for i in range(per_byte):
            sample = group[i] if i < len(group) else 0
            value |= sample << (8 - (i + 1) * bit_depth)
        out.append(value)
    return bytes(out)


def _filter_row_oracle(filter_type, row, prior, bpp):
    out = bytearray(len(row))
    for i in range(len(row)):
        left = row[i - bpp] if i >= bpp else 0
        up = prior[i] if prior else 0
        up_left = prior[i - bpp] if (prior and i >= bpp) else 0
        if filter_type == 0:
            out[i] = row[i]
        elif filter_type == 1:
            out[i] = (row[i] - left) & 0xFF
        elif filter_type == 2:
            out[i] = (row[i] - up) & 0xFF
        elif filter_type == 3:
            out[i] = (row[i] - (left + up) // 2) & 0xFF
        else:
            out[i] = (row[i] - _paeth(left, up, up_left)) & 0xFF
    return bytes(out)


def _choose_filter_oracle(row, prior, bpp):
    best_type = 0
    best_data = _filter_row_oracle(0, row, prior, bpp)
    best_score = sum(min(b, 256 - b) for b in best_data)
    for filter_type in (1, 2, 3, 4):
        candidate = _filter_row_oracle(filter_type, row, prior, bpp)
        score = sum(min(b, 256 - b) for b in candidate)
        if score < best_score:
            best_type, best_data, best_score = (filter_type, candidate,
                                                score)
    return best_type, best_data


def _index_rows(bit_depth, width, seed):
    """Two scanlines of palette indices that fit ``bit_depth``."""
    rng = random.Random(seed)
    return [bytes(rng.randrange(1 << bit_depth) for _ in range(width))
            for _ in range(2)]


WIDTHS = (1, 2, 3, 5, 7, 8, 9, 13, 31, 121)


@pytest.mark.parametrize("bit_depth", (1, 2, 4, 8))
@pytest.mark.parametrize("width", WIDTHS)
def test_pack_row_matches_per_pixel_oracle(bit_depth, width):
    for seed in range(3):
        for row in _index_rows(bit_depth, width, seed):
            assert (_pack_row(row, bit_depth)
                    == _pack_row_oracle(row, bit_depth))


@pytest.mark.parametrize("bit_depth", (1, 2, 4, 8))
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("bpp", (1, 3))
def test_filters_match_per_pixel_oracle(bit_depth, width, bpp):
    for seed in range(3):
        above, row = (_pack_row_oracle(r, bit_depth)
                      for r in _index_rows(bit_depth, width, seed))
        for prior in (b"", above):
            for filter_type in range(5):
                assert (_filter_row(filter_type, row, prior, bpp)
                        == _filter_row_oracle(filter_type, row, prior, bpp)
                        ), (filter_type, bool(prior))
            assert (_choose_filter(row, prior, bpp)
                    == _choose_filter_oracle(row, prior, bpp))


def test_filters_on_full_range_bytes():
    """8-bit rows reach the wrap-around (x - predictor) & 0xFF cases."""
    rng = random.Random(1997)
    above, row = (bytes(rng.randrange(256) for _ in range(97))
                  for _ in range(2))
    for prior in (b"", above):
        for filter_type in range(5):
            assert (_filter_row(filter_type, row, prior, 1)
                    == _filter_row_oracle(filter_type, row, prior, 1))
        assert (_choose_filter(row, prior, 1)
                == _choose_filter_oracle(row, prior, 1))


def test_microscape_pngs_are_pinned():
    """The 40 converted static images, byte for byte (like the golden
    deflate trace, this also pins zlib's output)."""
    site = build_microscape_site()
    digest = hashlib.sha256()
    count = 0
    for obj in site.image_objects:
        if obj.role != ImageRole.ANIMATION:
            digest.update(encode_png(obj.image))
            count += 1
    assert count == 40
    assert digest.hexdigest() == ("dc91aba57f59e79e1a2e07cc7e276d68"
                                  "6c0dc22303acfda9d87df71ad805699f")
