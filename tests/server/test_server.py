"""Integration tests for the simulated HTTP server over simnet."""

import pytest

from repro.content import build_microscape_site
from repro.faults import FaultyProfile, RecoveryLog, ServerFaultConfig
from repro.http import HTTP10, HTTP11, Headers, Request, ResponseParser
from repro.server import (APACHE, APACHE_12B2, JIGSAW, NAGLE_STALL_SERVER,
                          NAIVE_CLOSE_SERVER, ResourceStore, SimHttpServer)
from repro.simnet import LAN, SERVER_HOST, TwoHostNetwork


@pytest.fixture(scope="module")
def store():
    return ResourceStore.from_site(build_microscape_site())


class RawClient:
    """A minimal hand-driven client for poking the server."""

    def __init__(self, net, methods):
        self.parser = ResponseParser()
        for method in methods:
            self.parser.expect(method)
        self.responses = []
        self.eof = False
        self.reset = False
        self.conn = net.client.connect(SERVER_HOST, 80)
        self.conn.set_nodelay(True)
        self.conn.on_data = self._data
        self.conn.on_eof = lambda c: setattr(self, "eof", True)
        self.conn.on_reset = lambda c: setattr(self, "reset", True)

    def _data(self, _conn, data):
        self.responses.extend(self.parser.feed(data))

    def send_requests(self, *requests):
        self.conn.send(b"".join(r.to_bytes() for r in requests))


def request(url, version=HTTP11, headers=None, method="GET"):
    return Request(method, url, version, Headers(
        headers or [("Host", SERVER_HOST)]))


def serve(profile, store):
    net = TwoHostNetwork(LAN)
    server = SimHttpServer(net.sim, net.server, store, profile)
    return net, server


def test_single_get(store):
    net, server = serve(APACHE, store)
    client = RawClient(net, ["GET"])
    client.send_requests(request("/home.html"))
    net.run()
    assert len(client.responses) == 1
    assert client.responses[0].status == 200
    assert client.responses[0].body == store.get("/home.html").body
    assert server.requests_served == 1


def test_pipelined_requests_one_connection(store):
    urls = ["/home.html", "/gifs/bullet0.gif", "/gifs/hero.gif"]
    net, server = serve(APACHE, store)
    client = RawClient(net, ["GET"] * 3)
    client.send_requests(*[request(u) for u in urls])
    net.run()
    assert [r.status for r in client.responses] == [200, 200, 200]
    for url, response in zip(urls, client.responses):
        assert response.body == store.get(url).body
    assert server.connections_accepted == 1


def test_response_buffering_aggregates_304s(store):
    """Cache-validation responses share segments thanks to the server's
    response buffer (the paper's server-side aggregation point)."""
    net, _ = serve(APACHE, store)
    urls = [u for u in store.urls() if u.endswith(".gif")][:10]
    conditional = [request(u, headers=[("Host", SERVER_HOST),
                                       ("If-None-Match",
                                        store.get(u).etag)])
                   for u in urls]
    client = RawClient(net, ["GET"] * len(urls))
    client.send_requests(*conditional)
    net.run()
    assert all(r.status == 304 for r in client.responses)
    data_segments = [r for r in net.trace.records
                     if r.src == SERVER_HOST and r.payload_len]
    # Ten 304s (~150 B each) must not take ten segments.
    assert len(data_segments) <= 3


def test_unbuffered_server_sends_more_segments(store):
    urls = [u for u in store.urls() if u.endswith(".gif")][:10]

    def count_segments(profile):
        net, _ = serve(profile, store)
        client = RawClient(net, ["GET"] * len(urls))
        client.send_requests(*[
            request(u, headers=[("Host", SERVER_HOST),
                                ("If-None-Match", store.get(u).etag)])
            for u in urls])
        net.run()
        assert all(r.status == 304 for r in client.responses)
        return len([r for r in net.trace.records
                    if r.src == SERVER_HOST and r.payload_len])

    assert count_segments(APACHE_12B2) > count_segments(APACHE)


def test_max_requests_per_connection_closes_carefully(store):
    """Apache 1.2b2 closes after 5 responses — but half-closes, so the
    already-pipelined requests are ACKed, not RST."""
    urls = [u for u in store.urls()][:8]
    net, _ = serve(APACHE_12B2, store)
    client = RawClient(net, ["GET"] * len(urls))
    client.send_requests(*[request(u) for u in urls])
    net.run()
    assert len(client.responses) == 5
    assert client.responses[4].headers.contains_token("Connection",
                                                      "close")
    assert client.eof
    assert not client.reset


def test_naive_close_triggers_rst_against_pipelined_client(store):
    """The paper's Connection Management scenario: a server closing
    both halves after its request cap RSTs the client's pipeline."""
    urls = [u for u in store.urls()][:15]
    net, _ = serve(NAIVE_CLOSE_SERVER, store)
    client = RawClient(net, ["GET"] * len(urls))
    # Send in two batches so data arrives after the server closed.
    client.send_requests(*[request(u) for u in urls[:6]])
    net.run()
    if not client.reset:
        client.conn.send(request(urls[6]).to_bytes())
        net.run()
    assert client.reset
    assert len(client.responses) <= 6


def test_http10_closes_after_response(store):
    net, _ = serve(APACHE, store)
    client = RawClient(net, ["GET"])
    client.send_requests(request("/gifs/bullet0.gif", version=HTTP10))
    net.run()
    assert client.responses[0].status == 200
    assert client.eof


def test_http10_keepalive_honored(store):
    net, server = serve(APACHE, store)
    client = RawClient(net, ["GET", "GET"])
    ka = [("Host", SERVER_HOST), ("Connection", "Keep-Alive")]
    client.send_requests(request("/gifs/bullet0.gif", HTTP10, ka))
    net.run()
    assert not client.eof
    client.send_requests(request("/gifs/bullet1.gif", HTTP10, ka))
    net.run()
    assert len(client.responses) == 2
    assert server.connections_accepted == 1


def test_jigsaw_closes_keepalive_after_head(store):
    net, _ = serve(JIGSAW, store)
    client = RawClient(net, ["HEAD"])
    ka = [("Host", SERVER_HOST), ("Connection", "Keep-Alive")]
    client.send_requests(request("/gifs/bullet0.gif", HTTP10, ka,
                                 method="HEAD"))
    net.run()
    assert client.eof
    assert not client.responses[0].headers.contains_token(
        "Connection", "keep-alive")


def test_eof_from_client_drains_then_closes(store):
    net, _ = serve(APACHE, store)
    client = RawClient(net, ["GET"])
    client.send_requests(request("/gifs/hero.gif"))
    client.conn.close()     # half-close: responses must still arrive
    net.run()
    assert client.responses[0].body == store.get("/gifs/hero.gif").body
    assert client.eof


def test_malformed_request_gets_400(store):
    net, _ = serve(APACHE, store)
    client = RawClient(net, ["GET"])
    client.conn.send(b"THIS IS NOT HTTP\r\n\r\n")
    net.run()
    assert client.responses and client.responses[0].status == 400


def test_nagle_stall_server_is_slower_than_fixed(store):
    """The Nagle x delayed-ACK interaction: split small writes with
    Nagle on stall dramatically versus TCP_NODELAY."""
    import dataclasses

    def elapsed(profile):
        net, _ = serve(profile, store)
        urls = [u for u in store.urls() if u.endswith(".gif")][:6]
        client = RawClient(net, ["GET"] * len(urls))
        client.send_requests(*[
            request(u, headers=[("Host", SERVER_HOST),
                                ("If-None-Match", store.get(u).etag)])
            for u in urls])
        net.run()
        assert all(r.status == 304 for r in client.responses)
        return net.sim.now

    fixed = dataclasses.replace(NAGLE_STALL_SERVER, nodelay=True)
    assert elapsed(NAGLE_STALL_SERVER) > 3 * elapsed(fixed)


def test_server_cpu_serializes_across_connections(store):
    net, _ = serve(JIGSAW, store)
    clients = [RawClient(net, ["GET"]) for _ in range(4)]
    for client in clients:
        client.send_requests(request("/gifs/bullet0.gif"))
    net.run()
    # 4 connections x (8 ms accept + ~7 ms request) of serial CPU.
    assert net.sim.now >= 0.050


def reset_while_on_cpu(store, **faults):
    """A plain connection the client resets while its one response is
    still on the server's CPU (held there by a one-second stall)."""
    profile = FaultyProfile.wrap(APACHE, ServerFaultConfig(
        stall_requests=(1,), stall_seconds=1.0, **faults))
    net, server = serve(profile, store)
    server.recovery = RecoveryLog()
    client = RawClient(net, ["GET"])
    client.send_requests(request("/home.html"))
    net.sim.schedule(0.5, client.conn.abort)
    net.run()
    assert server.requests_received == 1 and client.responses == []
    return server


def test_a_response_whose_connection_reset_is_not_served(store):
    server = reset_while_on_cpu(store)
    assert server.requests_served == 0


def test_a_response_whose_connection_reset_is_not_aborted(store):
    server = reset_while_on_cpu(store, abort_requests=(1,))
    assert server.recovery.count("server", "abort") == 0
    assert server.recovery.count("server", "stall") == 1
