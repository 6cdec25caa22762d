"""Property-based fuzzing of the HTTP parsers.

Pipelining makes parser robustness load-bearing: any message boundary
can fall anywhere in the TCP stream.  These tests generate random valid
message sequences, slice them arbitrarily, and require byte-exact
recovery — and require that arbitrary garbage never crashes the parser
with anything other than ``ParseError``.
"""

import string

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.http import (Headers, ParseError, Request, RequestParser,
                        Response, ResponseParser)

_token = st.text(alphabet=string.ascii_letters + string.digits,
                 min_size=1, max_size=10)
_path = st.lists(_token, min_size=1, max_size=4).map(
    lambda parts: "/" + "/".join(parts))
_header_value = st.text(
    alphabet=string.ascii_letters + string.digits + " -/.;=\"",
    min_size=0, max_size=30).map(str.strip)
_headers = st.lists(st.tuples(_token, _header_value), max_size=5)


@st.composite
def requests(draw):
    method = draw(st.sampled_from(["GET", "HEAD", "POST"]))
    headers = Headers(draw(_headers))
    headers.remove("Content-Length")
    headers.remove("Transfer-Encoding")
    body = b""
    if method == "POST":
        body = draw(st.binary(max_size=200))
        headers.set("Content-Length", str(len(body)))
    request = Request(method, draw(_path), (1, 1), headers, body)
    return request, request.to_bytes()


@st.composite
def responses(draw):
    method = draw(st.sampled_from(["GET", "HEAD"]))
    status = draw(st.sampled_from([200, 206, 304, 404]))
    headers = Headers(draw(_headers))
    headers.remove("Content-Length")
    headers.remove("Transfer-Encoding")
    body = b""
    if method == "GET" and status not in (204, 304):
        body = draw(st.binary(max_size=300))
    headers.set("Content-Length", str(len(body)))
    response = Response(status, (1, 1), headers, body,
                        request_method=method)
    return response, method, response.to_bytes()


def slices(data: bytes, cuts):
    """Split ``data`` at the (sorted, deduped) cut offsets."""
    offsets = sorted({min(c, len(data)) for c in cuts})
    pieces = []
    last = 0
    for offset in offsets:
        pieces.append(data[last:offset])
        last = offset
    pieces.append(data[last:])
    return pieces


@settings(max_examples=60, deadline=None)
@given(st.lists(requests(), min_size=1, max_size=5), st.data())
def test_request_stream_roundtrip(items, data):
    wire = b"".join(w for _, w in items)
    cuts = data.draw(st.lists(st.integers(0, max(0, len(wire))),
                              max_size=12))
    parser = RequestParser()
    parsed = []
    for piece in slices(wire, cuts):
        parsed.extend(parser.feed(piece))
    assert len(parsed) == len(items)
    for (original, _), result in zip(items, parsed):
        assert result.method == original.method
        assert result.target == original.target
        assert result.body == original.body


@settings(max_examples=60, deadline=None)
@given(st.lists(responses(), min_size=1, max_size=5), st.data())
def test_response_stream_roundtrip(items, data):
    wire = b"".join(w for _, _, w in items)
    parser = ResponseParser()
    for _, method, _ in items:
        parser.expect(method)
    cuts = data.draw(st.lists(st.integers(0, max(0, len(wire))),
                              max_size=12))
    parsed = []
    for piece in slices(wire, cuts):
        parsed.extend(parser.feed(piece))
    assert len(parsed) == len(items)
    for (original, _, _), result in zip(items, parsed):
        assert result.status == original.status
        assert result.body == original.body


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(requests(), st.integers(0, 2)), min_size=1,
                max_size=4), st.data())
def test_stray_crlfs_before_requests_parse_under_any_slicing(items, data):
    # A client may send CRLFs ahead of a request: however the stream is
    # cut, they are skipped — also when they share a feed with the head.
    wire = b"".join(b"\r\n" * strays + w for (_, w), strays in items)
    cuts = data.draw(st.lists(st.integers(0, len(wire)), max_size=12))
    parser = RequestParser()
    parsed = []
    for piece in slices(wire, cuts):
        parsed.extend(parser.feed(piece))
    assert [(r.method, r.target, r.body) for r in parsed] == [
        (original.method, original.target, original.body)
        for (original, _), _ in items]


# Random binary essentially never gets past the start line, so the
# malformed-but-plausible heads are pinned as explicit examples: a bad
# version token, a non-numeric version, a header line without a colon.
@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=400))
@example(b"GET / FOO/1.1\r\nHost: h\r\n\r\n")
@example(b"GET / HTTP/x.y\r\nHost: h\r\n\r\n")
@example(b"GET / HTTP/1.1\r\nHost h\r\n\r\n")
def test_garbage_never_crashes_request_parser(noise):
    parser = RequestParser()
    try:
        parser.feed(noise)
    except ParseError:
        pass        # the only acceptable exception


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=400))
@example(b"HTTP/1.1 abc OK\r\n\r\n")
@example(b"FOO/1.1 200 OK\r\n\r\n")
@example(b"HTTP/1.1 200 OK\r\nContent-Length 0\r\n\r\n")
def test_garbage_never_crashes_response_parser(noise):
    parser = ResponseParser()
    parser.expect("GET")
    try:
        parser.feed(noise)
        parser.eof()
    except ParseError:
        pass


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=200), st.binary(max_size=200))
def test_valid_prefix_then_garbage(prefix_body, noise):
    """A valid message followed by garbage: the message still parses."""
    good = Response(200, (1, 1),
                    Headers([("Content-Length", str(len(prefix_body)))]),
                    body=prefix_body)
    parser = ResponseParser()
    parser.expect("GET")
    parser.expect("GET")
    try:
        parsed = parser.feed(good.to_bytes() + noise)
    except ParseError:
        parsed = []
    if parsed:
        assert parsed[0].body == prefix_body
