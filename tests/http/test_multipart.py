"""Tests for multipart/byteranges encoding and parsing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.http import (ByteRange, MULTIPART_BOUNDARY,
                        encode_multipart_byteranges)

from .wire_oracle import parse_multipart_byteranges


CONTENT_TYPE = f"multipart/byteranges; boundary={MULTIPART_BOUNDARY}"


def roundtrip(body, ranges):
    wire = encode_multipart_byteranges(body, ranges, "image/gif")
    return parse_multipart_byteranges(wire, CONTENT_TYPE)


def test_two_ranges_roundtrip():
    body = bytes(range(256))
    parts = roundtrip(body, [ByteRange(0, 9), ByteRange(100, 119)])
    assert len(parts) == 2
    assert parts[0] == (ByteRange(0, 9), body[:10])
    assert parts[1] == (ByteRange(100, 119), body[100:120])


def test_payload_ending_in_crlf_bytes_preserved():
    body = b"abc\r\ndef\r\n"
    parts = roundtrip(body, [ByteRange(0, len(body) - 1)])
    assert parts[0][1] == body


def test_binary_payload_with_boundary_like_bytes():
    body = b"xx--almost_a_boundary\r\nyy" * 3
    parts = roundtrip(body, [ByteRange(2, 20)])
    assert parts[0][1] == body[2:21]


def test_each_part_carries_content_range():
    body = bytes(50)
    wire = encode_multipart_byteranges(body, [ByteRange(0, 4),
                                              ByteRange(10, 14)],
                                       "text/html")
    assert wire.count(b"Content-Range: bytes") == 2
    assert wire.count(b"Content-Type: text/html") == 2
    assert wire.endswith(f"--{MULTIPART_BOUNDARY}--\r\n".encode())


def test_parse_requires_boundary():
    with pytest.raises(ValueError):
        parse_multipart_byteranges(b"", "multipart/byteranges")


def test_parse_rejects_part_without_content_range():
    wire = (f"--{MULTIPART_BOUNDARY}\r\n".encode()
            + b"Content-Type: a/b\r\n\r\ndata\r\n"
            + f"--{MULTIPART_BOUNDARY}--\r\n".encode())
    with pytest.raises(ValueError):
        parse_multipart_byteranges(wire, CONTENT_TYPE)


def test_server_serves_multipart(tmp_path):
    from repro.content import build_microscape_site
    from repro.http import HTTP11, Headers, Request
    from repro.server import APACHE, ResourceStore
    from repro.server.static import build_response
    store = ResourceStore.from_site(build_microscape_site())
    response = build_response(
        store, Request("GET", "/gifs/hero.gif", HTTP11,
                       Headers([("Range", "bytes=0-99, 200-299")])),
        APACHE)
    assert response.status == 206
    content_type = response.headers.get("Content-Type")
    assert content_type.startswith("multipart/byteranges")
    parts = parse_multipart_byteranges(response.body, content_type)
    body = store.get("/gifs/hero.gif").body
    assert parts[0] == (ByteRange(0, 99), body[:100])
    assert parts[1] == (ByteRange(200, 299), body[200:300])


@settings(max_examples=30)
@given(st.binary(min_size=1, max_size=400), st.data())
def test_multipart_roundtrip_property(body, data):
    n_ranges = data.draw(st.integers(1, 4))
    ranges = []
    for _ in range(n_ranges):
        start = data.draw(st.integers(0, len(body) - 1))
        end = data.draw(st.integers(start, len(body) - 1))
        ranges.append(ByteRange(start, end))
    parts = roundtrip(body, ranges)
    assert [p[0] for p in parts] == ranges
    for byte_range, payload in parts:
        assert payload == byte_range.slice(body)
