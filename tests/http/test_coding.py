"""Unit and property tests for content codings."""

import pytest
from hypothesis import given, strategies as st

from repro.http import (Headers, accepted_codings, compression_ratio,
                        deflate_decode, deflate_encode, encode_body)


def test_deflate_roundtrip():
    data = b"<html><body>" + b"The quick brown fox. " * 100 + b"</body></html>"
    assert deflate_decode(deflate_encode(data)) == data


def test_deflate_accepts_raw_stream():
    """Some 1990s peers sent raw DEFLATE without the zlib wrapper."""
    import zlib
    compressor = zlib.compressobj(wbits=-zlib.MAX_WBITS)
    raw = compressor.compress(b"legacy raw deflate") + compressor.flush()
    assert deflate_decode(raw) == b"legacy raw deflate"


def test_encode_decode_by_name():
    assert encode_body(b"abc", "identity") == b"abc"
    assert deflate_decode(encode_body(b"abc", "deflate")) == b"abc"


def test_unknown_coding_raises():
    with pytest.raises(ValueError):
        encode_body(b"x", "brotli")
    with pytest.raises(ValueError):
        encode_body(b"x", "gzip")


def test_html_compresses_about_three_times():
    """The paper: deflate shrank the 42K Microscape HTML to ~11K (~3x)."""
    html = (b"<html><head><title>test</title></head><body>"
            + b"<p class=banner>solutions</p><img src=\"/i/x.gif\">" * 400
            + b"</body></html>")
    ratio = compression_ratio(html)
    assert ratio < 0.40


def test_accepted_codings_parsing():
    headers = Headers([("Accept-Encoding", "deflate, gzip;q=0.5")])
    assert accepted_codings(headers) == ["deflate", "gzip"]


def test_compression_ratio_of_empty_is_one():
    assert compression_ratio(b"") == 1.0


@given(st.binary(max_size=5000))
def test_deflate_roundtrip_property(data):
    assert deflate_decode(deflate_encode(data)) == data
