"""Unit tests for Request/Response serialization."""

from repro.http import HTTP10, HTTP11, Headers, Request, Response


def test_request_wire_format():
    req = Request("GET", "/index.html", HTTP11,
                  Headers([("Host", "www26.w3.org")]))
    assert req.to_bytes() == (b"GET /index.html HTTP/1.1\r\n"
                              b"Host: www26.w3.org\r\n\r\n")


def test_robot_request_is_compact():
    """The paper: the libwww robot averages ~190 bytes per request."""
    req = Request("GET", "/images/logo42.gif", HTTP11, Headers([
        ("Host", "www26.w3.org"),
        ("User-Agent", "W3CRobot/5.1 libwww/5.1"),
        ("Accept", "*/*"),
        ("If-None-Match", '"1a2b3c4d"'),
    ]))
    assert 120 <= len(req.to_bytes()) <= 260


def test_response_wire_format():
    resp = Response(200, HTTP11, Headers([("Content-Length", "2")]),
                    body=b"ok")
    assert resp.to_bytes() == (b"HTTP/1.1 200 OK\r\n"
                               b"Content-Length: 2\r\n\r\nok")


def test_default_reason_phrases():
    assert Response(304).reason_phrase == "Not Modified"
    assert Response(206).reason_phrase == "Partial Content"
    assert Response(999).reason_phrase == "Unknown"
    assert Response(200, reason="Fine").reason_phrase == "Fine"


def test_head_response_suppresses_body():
    resp = Response(200, HTTP11, Headers([("Content-Length", "5")]),
                    body=b"12345", request_method="HEAD")
    assert resp.body_on_wire() == b""
    assert resp.to_bytes().endswith(b"\r\n\r\n")


def test_304_suppresses_body():
    resp = Response(304, HTTP11, body=b"should never appear")
    assert resp.body_on_wire() == b""


def test_keep_alive_negotiation():
    assert Response(200, HTTP11).allows_keep_alive()
    assert not Response(200, HTTP11,
                        Headers([("Connection", "close")])
                        ).allows_keep_alive()
    assert not Response(200, HTTP10).allows_keep_alive()
    assert Response(200, HTTP10,
                    Headers([("Connection", "Keep-Alive")])
                    ).allows_keep_alive()
