"""The one single-link network: the two-host case is its N=1 view."""

import weakref

from repro.simnet.link import PPP, WAN
from repro.simnet.network import (CLIENT_HOST, PROXY_HOST, SERVER_HOST,
                                  ChainNetwork, Network, TwoHostNetwork,
                                  fleet_client_host)

from .test_fastforward import _bulk
from .test_tcp import collector_off


def test_explicit_one_client_network_matches_default():
    # PPP with the modem on exercises every part of the wiring: jitter
    # RNG, fast-forward driver, trace tap and the stateful V.42bis pair.
    default = _bulk("PPP", 64 * 1024, fastpath=True)
    explicit = _bulk("PPP", 64 * 1024, fastpath=True,
                     client_hosts=[CLIENT_HOST])
    assert default.sim.perf.fastforward_spans > 0
    assert default.modem_down is not None
    assert explicit.trace.records == default.trace.records
    assert (explicit.modem_down.transmitted_bytes
            == default.modem_down.transmitted_bytes)
    assert explicit.clients == [explicit.client]


def test_two_host_name_is_the_same_class():
    assert TwoHostNetwork is Network


def test_many_clients_share_the_server_link():
    hosts = [fleet_client_host(i) for i in range(3)]
    net = Network(PPP, client_hosts=hosts)
    assert [stack.host for stack in net.clients] == hosts
    assert net.client is net.clients[0]
    assert net.link.bottleneck_host == SERVER_HOST
    # One queue per direction, whoever the client is ...
    assert (net.link.direction_key(SERVER_HOST, hosts[0])
            == net.link.direction_key(SERVER_HOST, hosts[2]))
    # ... but a private modem pair (V.42bis dictionary) per client.
    compressors = net.link._compressors
    assert len({id(c) for c in compressors.values()}) == 2 * len(hosts)
    assert compressors[(hosts[0], SERVER_HOST)] is net.modem_up
    assert compressors[(SERVER_HOST, hosts[0])] is net.modem_down
    assert Network(PPP).link.bottleneck_host is None


def test_closed_network_dies_without_the_collector():
    """``close()`` mid-transfer: pending events dropped, hosts unplugged,
    live connections torn down (and told so); after it nothing in the
    network refers back to anything else.  Idempotent."""
    with collector_off():
        net = Network(WAN, client_hosts=[fleet_client_host(i)
                                         for i in range(3)])
        net.server.listen(80, lambda conn: setattr(
            conn, "on_connect", lambda c: c.send(b"x" * 200_000)))
        conns = [stack.connect(SERVER_HOST, 80) for stack in net.clients]
        told = []
        for conn in conns:
            conn.on_closed = told.append
        net.run(until=0.5)
        assert net.sim.pending_events() and len(net.server._connections) == 3
        for _ in range(2):
            net.close()
            assert net.sim.pending_events() == 0
            assert net.link.collector is None
            assert not net.server._connections and told == conns
            assert {conn.state for conn in conns} == {"CLOSED"}
        assert len(net.trace) > 0       # what was measured stays readable
        refs = [weakref.ref(o) for o in (net.sim, net.link, net.trace,
                                         *conns)]
        del net, conns, conn, told
        assert [ref() for ref in refs] == [None] * len(refs)


def test_closed_chain_network_dies_without_the_collector():
    with collector_off():
        net = ChainNetwork(WAN)
        net.proxy_client_side.listen(8080, lambda conn: None)
        conn = net.client.connect(PROXY_HOST, 8080)
        net.run()
        assert conn.state == "ESTABLISHED"
        net.close()
        refs = [weakref.ref(o) for o in (net.sim, net.client_link,
                                         net.server_link, net.trace, conn)]
        del net, conn
        assert [ref() for ref in refs] == [None] * len(refs)
