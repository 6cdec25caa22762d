"""Every HTTP wire form the simulator never sends is refused, not misread.

A message is bodyless or framed by one ``Content-Length``; a head is
CRLF lines with no folding; a ``Range`` is one ``bytes=A-B`` or
``bytes=A-``; a date is RFC 1123; ``deflate`` is zlib-wrapped.  Input
in any other form is a :class:`ParseError` (a 400 from the server), an
ignored header (the full 200), or a decoding error — never a message
the parsers silently frame some other way.
"""

import zlib

import pytest

from repro.content import build_microscape_site
from repro.http import (HTTP11, Headers, ParseError, Request, RequestParser,
                        ResponseParser, deflate_decode)
from repro.server import APACHE, ResourceStore, SimHttpServer
from repro.server.static import build_response
from repro.simnet import LAN, TwoHostNetwork

from ..server.test_server import RawClient


@pytest.fixture(scope="module")
def store():
    return ResourceStore.from_site(build_microscape_site())


def _raw_deflate(data):
    compressor = zlib.compressobj(wbits=-zlib.MAX_WBITS)
    return compressor.compress(data) + compressor.flush()


def _outcome(kind, data, store):
    """What the simulator makes of ``data``."""
    if kind == "response":
        parser = ResponseParser()
        parser.expect("GET")
        return parser.feed(data)
    if kind == "request":
        return RequestParser().feed(data)
    if kind == "server":
        net = TwoHostNetwork(LAN)
        SimHttpServer(net.sim, net.server, store, APACHE)
        client = RawClient(net, ["GET"])
        client.conn.send(data)
        net.run()
        return [response.status for response in client.responses]
    if kind == "build":
        request = Request("GET", "/gifs/hero.gif", HTTP11, Headers(data))
        return build_response(store, request, APACHE).status
    assert kind == "deflate"
    return deflate_decode(data)


@pytest.mark.parametrize("kind, data, expected", [
    pytest.param("response", b"HTTP/1.1 200 OK\r\nTransfer-Encoding: "
                 b"chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n", ParseError,
                 id="chunked-response"),
    pytest.param("server", b"GET /home.html HTTP/1.1\r\nHost: h\r\n"
                 b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n", [400],
                 id="chunked-request"),
    pytest.param("response", b"HTTP/1.1 200 OK\r\nServer: x\r\n\r\nto close",
                 ParseError, id="no-content-length"),
    pytest.param("server", b"GET /home.html\r\n\r\n", [400],
                 id="http09-request-line"),
    pytest.param("response", b"HTTP/1.1 304 Not Modified\r\nX-A: b\r\n"
                 b"\tc\r\n\r\n", ParseError, id="folded-line"),
    pytest.param("response", b"HTTP/1.1 304 Not Modified\r\n Led: x\r\n"
                 b"\r\n", ParseError, id="leading-whitespace-line"),
    pytest.param("request", b"GET /x HTTP/1.1\nHost: h\n\n", [],
                 id="bare-lf-head"),
    pytest.param("request", b"GET /x HTTP/1.1\nHost: h\r\n\r\n", ParseError,
                 id="bare-lf-in-crlf-head"),
    pytest.param("build", [("Range", "bytes=0-1,5-9")], 200,
                 id="multi-range"),
    pytest.param("build", [("Range", "bytes=-500")], 200,
                 id="suffix-range"),
    pytest.param("build", [("If-Modified-Since",
                            "Tuesday, 24-Jun-97 00:00:00 GMT")], 200,
                 id="rfc850-if-modified-since"),
    pytest.param("deflate", _raw_deflate(b"legacy raw deflate"), zlib.error,
                 id="raw-deflate"),
])
def test_a_deleted_wire_form_is_refused(kind, data, expected, store):
    if isinstance(expected, type):
        with pytest.raises(expected):
            _outcome(kind, data, store)
    else:
        assert _outcome(kind, data, store) == expected
