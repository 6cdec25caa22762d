"""The one single-link network: the two-host case is its N=1 view."""

from repro.simnet.link import PPP
from repro.simnet.network import (CLIENT_HOST, SERVER_HOST, Network,
                                  TwoHostNetwork, fleet_client_host)

from .test_fastforward import _bulk


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
