"""Unit and property tests for content codings."""

from hypothesis import given, strategies as st

from repro.http import (Headers, accepted_codings, compression_ratio,
                        deflate_decode, deflate_encode)


def test_deflate_roundtrip():
    data = b"<html><body>" + b"The quick brown fox. " * 100 + b"</body></html>"
    assert deflate_decode(deflate_encode(data)) == data


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
