"""The Keep-Alive-through-a-proxy pathology (why HTTP/1.1 != Keep-Alive).

The paper cites "a problem discovered when Keep-Alive is used with more
than one proxy between a client and a server" as the reason HTTP/1.1's
persistent connections differ from the HTTP/1.0 Keep-Alive extension.
These tests reproduce the deadlock against a blind 1.0 proxy and show
the HTTP/1.1 hop-by-hop rules fixing it.
"""

import weakref

import pytest

from repro.content import build_microscape_site
from repro.http import (HTTP10, HTTP11, Headers, Request, ResponseParser)
from repro.server import APACHE, ResourceStore, SimHttpServer
from repro.server import proxy as proxy_module
from repro.server.proxy import SimHttpProxy
from repro.simnet import LAN
from repro.simnet.network import ChainNetwork, PROXY_HOST, SERVER_HOST

from ..simnet.test_tcp import collector_off


@pytest.fixture(scope="module")
def store():
    return ResourceStore.from_site(build_microscape_site())


class ProxyClient:
    """Hand-driven client talking to the proxy."""

    def __init__(self, net, methods=("GET",)):
        self.parser = ResponseParser()
        for method in methods:
            self.parser.expect(method)
        self.responses = []
        self.eof = False
        self.eof_at = None
        self.net = net
        self.conn = net.client.connect(PROXY_HOST, 8080)
        self.conn.set_nodelay(True)
        self.conn.on_data = lambda c, d: self.responses.extend(
            self.parser.feed(d))
        self.conn.on_eof = self._on_eof

    def _on_eof(self, _conn):
        self.eof = True
        self.eof_at = self.net.sim.now
        self.parser.eof()

    def send(self, *requests):
        self.conn.send(b"".join(r.to_bytes() for r in requests))


def build_chain(store, mode, idle_timeout=15.0):
    net = ChainNetwork(LAN)
    SimHttpServer(net.sim, net.server, store, APACHE)
    proxy = SimHttpProxy(net.sim, net.proxy_client_side,
                         net.proxy_server_side, SERVER_HOST,
                         mode=mode, idle_timeout=idle_timeout)
    return net, proxy


def keepalive_request(url):
    return Request("GET", url, HTTP10, Headers([
        ("Host", SERVER_HOST),
        ("Connection", "Keep-Alive")]))


def test_blind_proxy_forwards_keepalive_and_hangs(store):
    """The historical bug: the origin keeps the upstream connection
    open, the blind proxy waits for close, everyone stalls until the
    proxy's idle timeout."""
    net, proxy = build_chain(store, "blind", idle_timeout=15.0)
    client = ProxyClient(net)
    client.send(keepalive_request("/gifs/bullet0.gif"))
    net.run()
    # The response body does arrive eventually...
    assert len(client.responses) == 1
    assert client.responses[0].body == store.get("/gifs/bullet0.gif").body
    # ...but only after the idle timeout fired.
    assert proxy.idle_timeouts == 1
    assert client.eof_at >= 15.0


def test_blind_proxy_fast_without_keepalive(store):
    """Without the forwarded Keep-Alive the origin closes and the blind
    proxy completes promptly — the header is the whole problem."""
    net, proxy = build_chain(store, "blind")
    client = ProxyClient(net)
    client.send(Request("GET", "/gifs/bullet0.gif", HTTP10,
                        Headers([("Host", SERVER_HOST)])))
    net.run()
    assert len(client.responses) == 1
    assert proxy.idle_timeouts == 0
    assert client.eof_at < 1.0


def test_hop_by_hop_proxy_strips_connection_header(store):
    """The HTTP/1.1 fix: Connection is hop-by-hop; no deadlock."""
    net, proxy = build_chain(store, "hop_by_hop")
    client = ProxyClient(net)
    client.send(keepalive_request("/gifs/bullet0.gif"))
    net.run()
    assert len(client.responses) == 1
    assert client.responses[0].body == store.get("/gifs/bullet0.gif").body
    assert proxy.idle_timeouts == 0
    assert net.sim.now < 1.0
    assert client.responses[0].headers.get("Via") is not None


def test_hop_by_hop_proxy_relays_http11_pipeline(store, ):
    """An HTTP/1.1 proxy relays a pipelined batch without stalls."""
    urls = ["/home.html", "/gifs/bullet0.gif", "/gifs/hero.gif"]
    net, proxy = build_chain(store, "hop_by_hop")
    client = ProxyClient(net, methods=["GET"] * len(urls))
    client.send(*[Request("GET", u, HTTP11,
                          Headers([("Host", SERVER_HOST)]))
                  for u in urls])
    net.run()
    assert [r.status for r in client.responses] == [200, 200, 200]
    for url, response in zip(urls, client.responses):
        assert response.body == store.get(url).body
    assert proxy.requests_forwarded == 3
    assert net.sim.now < 2.0


def test_hop_by_hop_proxy_closes_client_side_after_client_fin(store):
    """A client that half-closes after its request gets the response,
    then the proxy closes its side too: both ends reach CLOSED before
    the network is torn down (the blind proxy already did)."""
    net, proxy = build_chain(store, "hop_by_hop")
    client = ProxyClient(net)
    client.conn.send(Request("GET", "/gifs/bullet0.gif", HTTP11,
                             Headers([("Host", SERVER_HOST)])).to_bytes(),
                     close=True)
    net.run()
    assert [r.status for r in client.responses] == [200]
    assert proxy.responses_forwarded == 1
    assert client.eof and client.conn.state == "CLOSED"
    assert not net.proxy_client_side._connections
    assert not net.proxy_server_side._connections


def test_blind_proxy_body_integrity_large_object(store):
    """Close-delimited relaying still delivers every byte."""
    net, _ = build_chain(store, "blind")
    client = ProxyClient(net)
    client.send(Request("GET", "/gifs/hero.gif", HTTP10,
                        Headers([("Host", SERVER_HOST)])))
    net.run()
    assert client.responses[0].body == store.get("/gifs/hero.gif").body


def test_proxy_rejects_unknown_mode(store):
    net = ChainNetwork(LAN)
    with pytest.raises(ValueError):
        SimHttpProxy(net.sim, net.proxy_client_side,
                     net.proxy_server_side, SERVER_HOST, mode="magic")


@pytest.mark.parametrize("mode", ["blind", "hop_by_hop"])
def test_finished_exchange_and_its_two_connections_die(store, mode,
                                                       monkeypatch):
    """The downstream and upstream connections hold the exchange only
    through the callbacks TCP teardown releases: once both are
    ``CLOSED`` the pair goes by reference count, chain still open."""
    exchanges = []

    class Recorded(proxy_module._ProxiedExchange):
        def __init__(self, *args):
            super().__init__(*args)
            exchanges.append(self)

    monkeypatch.setattr(proxy_module, "_ProxiedExchange", Recorded)
    with collector_off():
        net, proxy = build_chain(store, mode)
        client = ProxyClient(net)
        client.send(keepalive_request("/gifs/bullet0.gif"))
        net.run()
        # The blind relay ended by its idle timeout; the framing-aware
        # one holds both hops open until the client resets.
        client.conn.abort()
        net.run()
        assert len(client.responses) == 1 and proxy.requests_forwarded == 1
        for stack in (net.client, net.proxy_client_side,
                      net.proxy_server_side, net.server):
            assert not stack._connections
        exchange = exchanges.pop()
        refs = [weakref.ref(o) for o in (exchange, exchange.client_conn)]
        del exchange
        assert [ref() for ref in refs] == [None, None]
