"""Unit tests for the incremental request/response parsers."""

import pytest

from repro.http import (Headers, ParseError, Request, RequestParser,
                        Response, ResponseParser)


def drip_feed(parser, data, step=3):
    """Feed data in tiny slices, collecting completed messages."""
    out = []
    for i in range(0, len(data), step):
        out.extend(parser.feed(data[i:i + step]))
    return out


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
def test_single_request():
    parser = RequestParser()
    reqs = parser.feed(b"GET /x HTTP/1.1\r\nHost: h\r\n\r\n")
    assert len(reqs) == 1
    assert reqs[0].method == "GET"
    assert reqs[0].target == "/x"
    assert reqs[0].version == (1, 1)
    assert reqs[0].headers.get("Host") == "h"


def test_pipelined_requests_in_one_chunk():
    wire = (b"GET /a HTTP/1.1\r\nHost: h\r\n\r\n"
            b"GET /b HTTP/1.1\r\nHost: h\r\n\r\n"
            b"HEAD /c HTTP/1.1\r\nHost: h\r\n\r\n")
    reqs = RequestParser().feed(wire)
    assert [r.target for r in reqs] == ["/a", "/b", "/c"]
    assert reqs[2].method == "HEAD"


def test_request_split_at_every_byte():
    wire = (b"GET /a HTTP/1.1\r\nHost: h\r\n\r\n"
            b"GET /b HTTP/1.1\r\nHost: h\r\n\r\n")
    for step in (1, 2, 5, 7, 100):
        parser = RequestParser()
        reqs = drip_feed(parser, wire, step)
        assert [r.target for r in reqs] == ["/a", "/b"]


def test_stray_crlf_in_the_feed_that_carries_the_next_request():
    parser = RequestParser()
    assert len(parser.feed(b"GET /a HTTP/1.1\r\nHost: h\r\n\r\n")) == 1
    (request,) = parser.feed(b"\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n")
    assert request.target == "/b"


def test_request_with_body():
    wire = (b"POST /submit HTTP/1.1\r\nHost: h\r\n"
            b"Content-Length: 5\r\n\r\nhello")
    reqs = RequestParser().feed(wire)
    assert reqs[0].body == b"hello"


def test_malformed_request_line_raises():
    with pytest.raises(ParseError):
        RequestParser().feed(b"BROKEN\r\n\r\n")


def test_oversized_header_block_raises():
    parser = RequestParser()
    with pytest.raises(ParseError):
        parser.feed(b"GET / HTTP/1.1\r\n" + b"X: y\r\n" * 20000)


def test_roundtrip_serialized_request():
    original = Request("GET", "/img.gif", (1, 1),
                       Headers([("Host", "h"), ("Accept", "*/*")]))
    reqs = RequestParser().feed(original.to_bytes())
    assert reqs[0].method == original.method
    assert reqs[0].headers == original.headers


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
def test_single_response_with_content_length():
    parser = ResponseParser()
    parser.expect("GET")
    resps = parser.feed(b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbody")
    assert resps[0].status == 200
    assert resps[0].body == b"body"


def test_pipelined_responses_share_segments():
    parser = ResponseParser()
    for _ in range(3):
        parser.expect("GET")
    wire = b"".join(
        Response(200, headers=Headers([("Content-Length", "1")]),
                 body=bytes([65 + i])).to_bytes()
        for i in range(3))
    resps = drip_feed(parser, wire, step=4)
    assert [r.body for r in resps] == [b"A", b"B", b"C"]


def test_head_response_has_no_body():
    parser = ResponseParser()
    parser.expect("HEAD")
    parser.expect("GET")
    wire = (b"HTTP/1.1 200 OK\r\nContent-Length: 999\r\n\r\n"
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
    resps = parser.feed(wire)
    assert len(resps) == 2
    assert resps[0].body == b""
    assert resps[1].body == b"ok"


def test_304_response_has_no_body():
    parser = ResponseParser()
    parser.expect("GET")
    parser.expect("GET")
    wire = (b"HTTP/1.1 304 Not Modified\r\nETag: \"v1\"\r\n\r\n"
            b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nz")
    resps = parser.feed(wire)
    assert [r.status for r in resps] == [304, 200]


def test_eof_mid_headers_raises():
    parser = ResponseParser()
    parser.expect("GET")
    parser.feed(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc")
    with pytest.raises(ParseError):
        parser.eof()


@pytest.mark.parametrize("kind", ["request", "response"])
@pytest.mark.parametrize("lengths", [
    ["-3"], ["+3"], ["1_0"], ["\xb2"], [""], ["3", "4"]],
    ids=["negative", "signed", "underscored", "non-ascii-digit", "empty",
         "disagreeing"])
def test_content_length_is_one_value_of_ascii_digits(kind, lengths):
    """A signed, underscored or non-ASCII-digit ``Content-Length``, or
    two that disagree, is refused — never read as a shorter or longer
    body that leaves bytes to misparse as the next message."""
    fields = "".join(f"Content-Length: {value}\r\n" for value in lengths)
    if kind == "request":
        parser = RequestParser()
        start = "POST /p HTTP/1.1"
    else:
        parser = ResponseParser()
        parser.expect("GET")
        start = "HTTP/1.1 200 OK"
    wire = f"{start}\r\n{fields}\r\nabcdef"
    with pytest.raises(ParseError):
        parser.feed(wire.encode("latin-1"))


def test_agreeing_content_lengths_frame_one_body():
    parser = ResponseParser()
    parser.expect("GET")
    (response,) = parser.feed(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n"
                              b"Content-Length: 003\r\n\r\nabc")
    assert response.body == b"abc"


def test_eof_with_nothing_pending_returns_none():
    assert ResponseParser().eof() is None


def test_outstanding_tracks_expectations():
    parser = ResponseParser()
    parser.expect("GET")
    parser.expect("GET")
    assert parser.outstanding == 2
    parser.feed(b"HTTP/1.1 304 Not Modified\r\n\r\n")
    assert parser.outstanding == 1


def test_response_roundtrip_with_deflate_body():
    import zlib
    body = zlib.compress(b"<html>" + b"x" * 500 + b"</html>")
    original = Response(200, headers=Headers([
        ("Content-Encoding", "deflate"),
        ("Content-Length", str(len(body)))]), body=body)
    parser = ResponseParser()
    parser.expect("GET")
    resps = parser.feed(original.to_bytes())
    assert zlib.decompress(resps[0].body).startswith(b"<html>")
