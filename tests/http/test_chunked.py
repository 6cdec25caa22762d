"""Unit and property tests for the chunked transfer coding."""

from hypothesis import given, strategies as st

from repro.http import ChunkedDecoder

from .wire_oracle import encode_chunked


def decode_all(wire: bytes, step: int = 7) -> bytes:
    decoder = ChunkedDecoder()
    buffer = bytearray()
    done = False
    for i in range(0, len(wire), step):
        buffer.extend(wire[i:i + step])
        done = decoder.feed_buffer(buffer)
    assert done
    return decoder.payload()


def test_empty_body():
    assert decode_all(encode_chunked(b"")) == b""


def test_simple_roundtrip():
    body = b"hello chunked world"
    assert decode_all(encode_chunked(body, chunk_size=5)) == body


def test_trailing_pipelined_data_left_in_buffer():
    wire = encode_chunked(b"abc") + b"NEXT MESSAGE"
    decoder = ChunkedDecoder()
    buffer = bytearray(wire)
    assert decoder.feed_buffer(buffer)
    assert decoder.payload() == b"abc"
    assert bytes(buffer) == b"NEXT MESSAGE"


def test_chunk_extensions_ignored():
    wire = b"3;ext=1\r\nabc\r\n0\r\n\r\n"
    assert decode_all(wire, step=100) == b"abc"


def test_trailer_headers_consumed():
    wire = b"2\r\nhi\r\n0\r\nX-Checksum: 99\r\n\r\nREST"
    decoder = ChunkedDecoder()
    buffer = bytearray(wire)
    assert decoder.feed_buffer(buffer)
    assert decoder.payload() == b"hi"
    assert bytes(buffer) == b"REST"


@given(st.binary(max_size=2000), st.integers(min_value=1, max_value=97))
def test_roundtrip_property(body, chunk_size):
    wire = encode_chunked(body, chunk_size=chunk_size)
    assert decode_all(wire, step=13) == body


@given(st.binary(max_size=500), st.integers(min_value=1, max_value=11))
def test_roundtrip_any_slicing(body, step):
    wire = encode_chunked(body, chunk_size=7)
    assert decode_all(wire, step=step) == body
