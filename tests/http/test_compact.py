"""Tests for the compact (delta) HTTP wire representation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.http.compact import (DIFFLIB_LIMIT, DeltaStreamDecoder,
                                DeltaStreamEncoder, decode_varint,
                                encode_varint)


# ----------------------------------------------------------------------
# Varints
# ----------------------------------------------------------------------
@pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2 ** 20, 2 ** 40])
def test_varint_roundtrip(value):
    encoded = encode_varint(value)
    decoded, pos = decode_varint(encoded)
    assert decoded == value
    assert pos == len(encoded)


def test_varint_incomplete_returns_none():
    encoded = encode_varint(300)
    assert decode_varint(encoded[:1]) == (None, 0)


def test_varint_negative_rejected():
    with pytest.raises(ValueError):
        encode_varint(-1)


@given(st.integers(0, 2 ** 60))
def test_varint_roundtrip_property(value):
    decoded, _ = decode_varint(encode_varint(value))
    assert decoded == value


# ----------------------------------------------------------------------
# Delta stream
# ----------------------------------------------------------------------
def roundtrip(messages, step=5):
    encoder = DeltaStreamEncoder()
    wire = b"".join(encoder.encode(m) for m in messages)
    decoder = DeltaStreamDecoder()
    out = []
    for i in range(0, len(wire), step):
        out.extend(decoder.feed(wire[i:i + step]))
    return out, encoder


def test_single_message():
    out, _ = roundtrip([b"GET / HTTP/1.1\r\n\r\n"])
    assert out == [b"GET / HTTP/1.1\r\n\r\n"]


def test_similar_messages_roundtrip():
    messages = [
        f'GET /gifs/img{n}.gif HTTP/1.1\r\nHost: h\r\n'
        f'If-None-Match: "tag{n:04d}"\r\n\r\n'.encode()
        for n in range(40)]
    out, encoder = roundtrip(messages)
    assert out == messages
    assert encoder.ratio > 3.0


def test_paper_envelope_factor_on_revalidation_requests():
    """The actual robot revalidation requests compress 'a factor of
    five or ten' (paper's back-of-the-envelope)."""
    from repro.content import build_microscape_site
    from repro.http import Headers, Request
    from repro.server import APACHE, ResourceStore
    site = build_microscape_site()
    store = ResourceStore.from_site(site)
    encoder = DeltaStreamEncoder()
    for url in site.all_urls():
        request = Request("GET", url, (1, 1), Headers([
            ("Host", "www26.w3.org"),
            ("User-Agent", "W3CRobot/5.1 libwww/5.1"),
            ("Accept", "*/*"),
            ("If-None-Match", store.get(url).etag)]))
        encoder.encode(request.to_bytes())
    assert 4.0 <= encoder.ratio <= 15.0


def test_completely_different_messages():
    messages = [b"A" * 50, b"B" * 60, b"C" * 40]
    out, encoder = roundtrip(messages)
    assert out == messages
    assert encoder.ratio < 1.1      # no redundancy to exploit


def test_identical_messages_cost_almost_nothing():
    messages = [b"GET / HTTP/1.1\r\n\r\n"] * 20
    out, encoder = roundtrip(messages)
    assert out == messages
    # 19 of 20 frames are three varints each.
    assert encoder.encoded_bytes < len(messages[0]) + 20 * 4


def test_empty_message():
    out, _ = roundtrip([b"abc", b"", b"abc"])
    assert out == [b"abc", b"", b"abc"]


def test_corrupt_context_rejected():
    decoder = DeltaStreamDecoder()
    # Claims a 10-byte shared prefix against an empty context.
    frame = encode_varint(10) + encode_varint(0) + encode_varint(0)
    with pytest.raises(ValueError):
        decoder.feed(frame)


@settings(max_examples=40)
@given(st.lists(st.binary(max_size=300), min_size=1, max_size=12),
       st.integers(1, 17))
def test_delta_roundtrip_property(messages, step):
    out, _ = roundtrip(messages, step=step)
    assert out == messages


@settings(max_examples=15, deadline=None)
@given(st.binary(min_size=1, max_size=150),
       st.binary(min_size=1, max_size=150))
def test_large_message_roundtrip_uses_block_matcher(seed_a, seed_b):
    """Messages past DIFFLIB_LIMIT go through the O(n) block matcher;
    the stream must still be lossless."""
    # Just past the limit: every message — the first one too, diffed
    # against the empty context — must take the block matcher, and
    # nothing here is big enough to be slow.
    repeats = DIFFLIB_LIMIT // len(seed_a + seed_b) + 1
    first = (seed_a + seed_b) * repeats
    second = (seed_b + b"|" + seed_a) * repeats
    assert DIFFLIB_LIMIT < len(first) < len(second)
    out, _ = roundtrip([first, second, first], step=1024)
    assert out == [first, second, first]


@settings(max_examples=15, deadline=None)
@given(st.binary(min_size=40, max_size=200), st.data())
def test_large_similar_messages_compress(seed_bytes, data):
    """A localized edit in a large message costs a small frame."""
    base = bytes(range(256)) * 20 + seed_bytes * 30   # > 5 KB, varied
    cut = data.draw(st.integers(0, len(base) - 1))
    edited = base[:cut] + b"EDIT!" + base[cut:]
    encoder = DeltaStreamEncoder()
    encoder.encode(base)
    frame = encoder.encode(edited)
    decoder = DeltaStreamDecoder()
    decoder._previous = base
    assert decoder.feed(frame) == [edited]
    assert len(frame) < len(edited) / 10
