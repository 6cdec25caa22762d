"""A served response is its template's bytes — and nobody can tell.

The server keeps each response as the wire bytes of the built response
and writes the ``Date`` and ``Connection`` lines in per request.  These
tests pin that every response it sends, cold (its template just built)
or warm (read from the store's template map), is ``cmp``-equal to the
memo-free assembly: ``build_response``'s response with the current
``Date`` as its first field and any ``Connection`` field as its last,
serialized by ``Response.to_bytes``.  A warm request builds no
``Response`` and no ``Headers`` on the server.
"""

import dataclasses

import pytest

from repro.content import build_microscape_site
from repro.faults import FaultyProfile, ServerFaultConfig
from repro.http import (HTTP10, HTTP11, PAPER_EPOCH, Headers, Request,
                        Response, format_http_date)
from repro.http.delta import DELTA_IM_TOKEN
from repro.http.framing import F_HEADERS, encode_frame
from repro.server import (APACHE, JIGSAW, NAGLE_STALL_SERVER, ResourceStore,
                          SimHttpServer, base, build_response)
from repro.simnet import LAN, SERVER_HOST, TwoHostNetwork

#: Every exchange below ends inside the first simulated second.
_DATE = format_http_date(PAPER_EPOCH)
_LIMIT_ONE = dataclasses.replace(APACHE, name="Apache-limit1",
                                 max_requests_per_connection=1)


@pytest.fixture(scope="module")
def store():
    """A private store whose ``/home.html`` keeps an older version, so
    a delta-capable revalidation of it is answered with a 226."""
    store = ResourceStore.from_site(build_microscape_site())
    old = store.get("/home.html")
    store.update("/home.html", old.body.replace(b"Section 1", b"Section A", 1))
    return store


def _request(target, *fields, method="GET", version=HTTP11):
    return Request(method, target, version,
                   Headers([("Host", SERVER_HOST), *fields]))


def _etag(store, url):
    return store.get(url).etag


def _stale_etag(store, url):
    return next(iter(store.get(url).previous_versions))


#: name → (profile, the request for a store, its ``Connection`` value)
CASES = {
    "200": (APACHE, lambda s: _request("/home.html"), None),
    "200-deflate": (APACHE, lambda s: _request(
        "/home.html", ("Accept-Encoding", "deflate")), None),
    "206": (APACHE, lambda s: _request(
        "/gifs/hero.gif", ("Range", "bytes=0-99")), None),
    "226": (APACHE, lambda s: _request(
        "/home.html", ("If-None-Match", _stale_etag(s, "/home.html")),
        ("A-IM", DELTA_IM_TOKEN)), None),
    "304": (APACHE, lambda s: _request(
        "/gifs/hero.gif", ("If-None-Match", _etag(s, "/gifs/hero.gif"))),
        None),
    "304-verbose": (JIGSAW, lambda s: _request(
        "/gifs/hero.gif", ("If-None-Match", _etag(s, "/gifs/hero.gif"))),
        None),
    "404": (APACHE, lambda s: _request("/missing.html"), None),
    "405": (APACHE, lambda s: _request("/home.html", method="DELETE"),
            None),
    "416": (APACHE, lambda s: _request(
        "/gifs/hero.gif", ("Range", "bytes=99999999-")), None),
    "HEAD": (APACHE, lambda s: _request("/home.html", method="HEAD"), None),
    "1.0": (APACHE, lambda s: _request("/gifs/hero.gif", version=HTTP10),
            None),
    "1.0-keep-alive": (APACHE, lambda s: _request(
        "/gifs/hero.gif", ("Connection", "Keep-Alive"), version=HTTP10),
        "Keep-Alive"),
    "1.0-HEAD-closes": (JIGSAW, lambda s: _request(
        "/gifs/hero.gif", ("Connection", "Keep-Alive"), method="HEAD",
        version=HTTP10), None),
    "close": (APACHE, lambda s: _request(
        "/gifs/hero.gif", ("Connection", "close")), "close"),
    "request-limit": (_LIMIT_ONE, lambda s: _request("/gifs/hero.gif"),
                      "close"),
}


def reference(store, profile, request, connection):
    """The memo-free assembly of the response to ``request``."""
    response = build_response(store, request, profile)
    fields = [("Date", _DATE)] + response.headers.items()
    if connection is not None:
        fields.append(("Connection", connection))
    response.headers = Headers(fields)
    return response.to_bytes()


class Constructions:
    """Counts the ``Response`` and ``Headers`` objects the server builds
    while it dispatches a request (the client's own parses and requests
    are not counted)."""

    def __init__(self, monkeypatch):
        self.count = 0
        self._inside = False
        for cls in (Response, Headers):
            monkeypatch.setattr(cls, "__init__", self._counted(cls.__init__))
        from_parts = Headers._from_parts.__func__
        monkeypatch.setattr(Headers, "_from_parts",
                            classmethod(self._counted(from_parts)))
        for name in ("_dispatch", "_dispatch_mux"):
            monkeypatch.setattr(SimHttpServer, name,
                                self._dispatching(getattr(SimHttpServer,
                                                          name)))

    def _counted(self, function):
        def counted(*args, **kwargs):
            self.count += self._inside
            return function(*args, **kwargs)
        return counted

    def _dispatching(self, function):
        def dispatching(*args):
            self._inside = True
            try:
                return function(*args)
            finally:
                self._inside = False
        return dispatching

    def take(self):
        count, self.count = self.count, 0
        return count


def _serve(store, profile, mux=False):
    net = TwoHostNetwork(LAN)
    server = SimHttpServer(net.sim, net.server, store, profile, mux=mux)
    server._heads.clear()               # every case starts cold
    return net, server


def _exchange(net, wire):
    """Send ``wire`` on a fresh connection; every byte that comes back."""
    received = bytearray()
    conn = net.client.connect(SERVER_HOST, 80)
    conn.set_nodelay(True)
    conn.on_data = lambda _conn, data: received.extend(data)
    conn.send(wire)
    net.run()
    assert net.sim.now < 1
    return bytes(received)


def test_the_cases_cover_every_status_the_server_builds(store):
    statuses = {int(reference(store, profile, make(store), None).split()[1])
                for profile, make, _ in CASES.values()}
    assert statuses == {200, 206, 226, 304, 404, 405, 416}


@pytest.mark.parametrize("name", list(CASES))
def test_served_bytes_are_the_reference_assembly(store, monkeypatch, name):
    profile, make, connection = CASES[name]
    request = make(store)
    expected = reference(store, profile, request, connection)
    net, _server = _serve(store, profile)
    built = Constructions(monkeypatch)
    assert _exchange(net, request.to_bytes()) == expected          # cold
    assert built.take() > 0
    assert _exchange(net, request.to_bytes()) == expected          # warm
    assert built.take() == 0


def test_the_503_fault_has_no_date(store):
    profile = FaultyProfile.wrap(APACHE, ServerFaultConfig(
        error_503_requests=(1, 2, 3)))
    net, server = _serve(store, profile)
    for request, connection in [
            (_request("/gifs/hero.gif"), None),
            (_request("/gifs/hero.gif"), None),
            (_request("/gifs/hero.gif", ("Connection", "close")), "close")]:
        fields = [("Content-Type", "text/plain"), ("Content-Length", "21")]
        if connection is not None:
            fields.append(("Connection", connection))
        expected = Response(503, HTTP11, Headers(fields),
                            b"Service Unavailable\r\n").to_bytes()
        assert _exchange(net, request.to_bytes()) == expected
    # The faults built no template, and the next request is served.
    assert len(server._heads) == 0
    request = _request("/gifs/hero.gif")
    assert _exchange(net, request.to_bytes()) == reference(
        store, profile, request, None)


@pytest.mark.parametrize("name", ["200", "304", "404"])
def test_a_split_header_write_writes_status_line_head_and_body(
        store, monkeypatch, name):
    _profile, make, _connection = CASES[name]
    request = make(store)
    expected = reference(store, NAGLE_STALL_SERVER, request, None)
    status_end = expected.index(b"\r\n") + 2
    head_end = expected.index(b"\r\n\r\n") + 4
    writes = []
    queue_bytes = base._ServerConnection.queue_bytes

    def recorded(state, payload):
        writes.append(payload)
        queue_bytes(state, payload)

    monkeypatch.setattr(base._ServerConnection, "queue_bytes", recorded)
    net, _server = _serve(store, NAGLE_STALL_SERVER)
    for _ in range(2):                                  # cold, then warm
        writes.clear()
        assert _exchange(net, request.to_bytes()) == expected
        assert writes == [part for part in (expected[:status_end],
                                            expected[status_end:head_end],
                                            expected[head_end:]) if part]


@pytest.mark.parametrize("name", ["200", "304", "HEAD"])
def test_a_mux_headers_frame_is_the_reference_head(store, monkeypatch,
                                                   name):
    _profile, make, _connection = CASES[name]
    request = make(store)
    expected = reference(store, APACHE, request, None)
    expected = expected[:expected.index(b"\r\n\r\n") + 4]
    net, server = _serve(store, APACHE, mux=True)
    heads = []
    server.frame_tap = lambda _now, _way, ftype, _sid, payload: (
        heads.append(payload) if ftype == F_HEADERS else None)
    built = Constructions(monkeypatch)
    for warm in (False, True):
        heads.clear()
        _exchange(net, encode_frame(F_HEADERS, 1, request.to_bytes()))
        assert heads == [expected]
        assert (built.take() == 0) == warm
