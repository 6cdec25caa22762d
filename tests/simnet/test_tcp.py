"""Unit tests for the simulated TCP layer: handshake, data transfer,
slow start, Nagle, delayed ACKs, and close semantics."""

import contextlib
import gc
import weakref

import pytest

from repro.simnet import (LAN, WAN, Segment, TcpConfig, TwoHostNetwork,
                          CLIENT_HOST, SERVER_HOST)
from repro.simnet.tcp import RWND, TcpConnection


def make_net(environment=LAN, **kwargs):
    return TwoHostNetwork(environment, **kwargs)


class EchoServer:
    """Accepts connections and echoes received bytes back."""

    def __init__(self, net, port=80):
        self.received = []
        net.server.listen(port, self._accept)

    def _accept(self, conn):
        conn.on_data = self._data

    def _data(self, conn, data):
        self.received.append(data)
        conn.send(data)


class Collector:
    """Gathers client-side events for assertions."""

    def __init__(self):
        self.data = bytearray()
        self.connected = False
        self.eof = False
        self.reset = False
        self.closed = False

    def attach(self, conn):
        conn.on_connect = lambda c: setattr(self, "connected", True)
        conn.on_data = lambda c, d: self.data.extend(d)
        conn.on_eof = lambda c: setattr(self, "eof", True)
        conn.on_reset = lambda c: setattr(self, "reset", True)
        conn.on_closed = lambda c: setattr(self, "closed", True)


def test_three_way_handshake_packets():
    net = make_net()
    net.server.listen(80, lambda conn: None)
    collector = Collector()
    conn = net.client.connect(SERVER_HOST, 80)
    collector.attach(conn)
    net.run()
    assert collector.connected
    flags = [r.flags for r in net.trace.records]
    assert flags[:3] == ["S", "SA", "A"]


def test_data_round_trip():
    net = make_net()
    server = EchoServer(net)
    collector = Collector()
    conn = net.client.connect(SERVER_HOST, 80)
    collector.attach(conn)
    conn.send(b"hello world")
    net.run()
    assert bytes(collector.data) == b"hello world"
    assert server.received == [b"hello world"]


def test_send_before_establishment_is_queued():
    net = make_net()
    EchoServer(net)
    collector = Collector()
    conn = net.client.connect(SERVER_HOST, 80)
    collector.attach(conn)
    conn.send(b"early data")
    net.run()
    assert bytes(collector.data) == b"early data"


def test_large_transfer_segmented_at_mss():
    net = make_net()
    EchoServer(net)
    collector = Collector()
    conn = net.client.connect(SERVER_HOST, 80)
    collector.attach(conn)
    payload = bytes(10 * 1460)
    conn.send(payload)
    net.run()
    assert bytes(collector.data) == payload
    data_sizes = [r.payload_len for r in net.trace.records
                  if r.src == CLIENT_HOST and r.payload_len]
    assert max(data_sizes) == 1460


def test_slow_start_grows_window():
    """First flight is limited by the initial cwnd, later flights larger."""
    net = make_net(server_config=TcpConfig(initial_cwnd_segments=1))
    net.server.listen(80, lambda conn: setattr(
        conn, "on_connect", lambda c: c.send(bytes(20 * 1460))))
    net.client.connect(SERVER_HOST, 80)
    net.run()
    server_data = [r for r in net.trace.records
                   if r.src == SERVER_HOST and r.payload_len]
    # The first data segment must be alone in its flight: the second
    # segment can only go out after the first ACK returns.
    first_times = sorted(r.time for r in server_data)
    assert first_times[1] > first_times[0] + net.environment.rtt * 0.5


@pytest.mark.parametrize("fastpath", [True, False],
                         ids=["fastpath", "per-segment"])
@pytest.mark.parametrize("environment", [LAN, WAN], ids=["LAN", "WAN"])
def test_receive_window_caps_the_flight(environment, fastpath):
    """A 2 MB download: slow start takes ``cwnd`` past :data:`RWND`, yet
    the flight stops at the most whole segments the window holds."""
    size = 2 * 1024 * 1024
    net = make_net(environment=environment, fastpath=fastpath)
    senders = []

    def accept(conn):
        senders.append(conn)
        conn.on_connect = lambda c: c.send(bytes(size), close=True)

    net.server.listen(80, accept)
    client = net.client.connect(SERVER_HOST, 80)
    peak_cwnd = peak_flight = 0
    # Sample between engine runs: a fast-forward span reconciles the
    # sender at each ``until``, and 100 ms lets spans pay for themselves.
    while net.sim.pending_events():
        net.run(until=net.sim.now + 0.1)
        for conn in senders:
            peak_cwnd = max(peak_cwnd, conn.cwnd)
            peak_flight = max(peak_flight, conn.in_flight)
    assert client.bytes_received == size
    assert (net.sim.perf.fastforward_spans > 0) == fastpath
    assert peak_cwnd > RWND
    # 44 whole segments: the most that fit in the window.
    assert peak_flight == 44 * 1460 <= RWND


def test_half_close_allows_continued_receive():
    """Client closes its send side; server can still send afterwards."""
    net = make_net()
    server_conns = []
    net.server.listen(80, server_conns.append)
    collector = Collector()
    conn = net.client.connect(SERVER_HOST, 80)
    collector.attach(conn)
    conn.send(b"request")
    conn.close()
    net.run()

    assert collector.connected
    server_conn = server_conns[0]
    server_conn.send(b"late response")
    server_conn.close()
    net.run()
    assert bytes(collector.data) == b"late response"
    assert collector.eof
    assert collector.closed


def test_clean_close_both_sides_reach_closed():
    net = make_net()
    server_conns = []

    def accept(conn):
        server_conns.append(conn)
        conn.on_eof = lambda c: c.close()

    net.server.listen(80, accept)
    collector = Collector()
    conn = net.client.connect(SERVER_HOST, 80)
    collector.attach(conn)
    conn.send(b"bye")
    conn.close()
    net.run()
    assert conn.state == "CLOSED"
    assert server_conns[0].state == "CLOSED"
    assert collector.closed


def test_fin_piggybacks_on_last_data_segment():
    net = make_net()
    net.server.listen(80, lambda conn: None)
    conn = net.client.connect(SERVER_HOST, 80)
    conn.send(b"small final write")
    conn.close()
    net.run()
    fa = [r for r in net.trace.records
          if r.src == CLIENT_HOST and "F" in r.flags]
    assert len(fa) == 1
    assert fa[0].payload_len == len(b"small final write")


def test_send_after_close_raises():
    net = make_net()
    net.server.listen(80, lambda conn: None)
    conn = net.client.connect(SERVER_HOST, 80)
    conn.close()
    with pytest.raises(Exception):
        conn.send(b"too late")


def test_data_to_receive_shutdown_socket_triggers_rst():
    """The paper's naive-close scenario: data hitting a closed receive
    side draws a RST and the peer observes a reset."""
    net = make_net()
    server_conns = []
    net.server.listen(80, server_conns.append)
    collector = Collector()
    conn = net.client.connect(SERVER_HOST, 80)
    collector.attach(conn)
    conn.send(b"first")
    net.run()

    server_conn = server_conns[0]
    server_conn.close()
    server_conn.shutdown_receive()
    conn.send(b"pipelined request arriving after server closed")
    net.run()
    assert collector.reset
    rst = [r for r in net.trace.records if "R" in r.flags]
    assert rst, "expected a RST segment in the trace"


def test_segment_to_unknown_port_draws_rst():
    net = make_net()
    collector = Collector()
    conn = net.client.connect(SERVER_HOST, 9999)  # nobody listening
    collector.attach(conn)
    net.run()
    assert collector.reset
    assert not collector.connected


def test_nagle_delays_second_small_write():
    """With Nagle on, two small writes coalesce: the second waits for
    the ACK of the first."""
    net = make_net()
    EchoServer(net)
    conn = net.client.connect(SERVER_HOST, 80)
    conn.set_nodelay(False)

    def send_two(_conn):
        conn.send(b"a" * 10)
        conn.send(b"b" * 10)

    conn.on_connect = send_two
    net.run()
    client_data = [r for r in net.trace.records
                   if r.src == CLIENT_HOST and r.payload_len]
    assert client_data[0].payload_len == 10
    # Second write held back and sent alone after the first ACK.
    assert client_data[1].payload_len == 10
    assert client_data[1].time > client_data[0].time


def test_nodelay_sends_small_writes_immediately():
    net = make_net()
    EchoServer(net)
    conn = net.client.connect(SERVER_HOST, 80)
    conn.set_nodelay(True)
    sent_times = []

    def send_two(_conn):
        conn.send(b"a" * 10)
        conn.send(b"b" * 10)
        sent_times.append(net.sim.now)

    conn.on_connect = send_two
    net.run()
    client_data = [r for r in net.trace.records
                   if r.src == CLIENT_HOST and r.payload_len]
    # Both small segments left at the same simulated instant.
    assert client_data[0].time == pytest.approx(client_data[1].time)


def test_delayed_ack_fires_after_200ms_for_lone_segment():
    net = make_net()
    net.server.listen(80, lambda conn: None)
    conn = net.client.connect(SERVER_HOST, 80)
    conn.send(b"lone segment")
    net.run()
    acks = [r for r in net.trace.records
            if r.src == SERVER_HOST and r.flags == "A" and not r.payload_len]
    # SYN-ACK is "SA"; the pure ACK of the data should exist and be late.
    data_time = next(r.time for r in net.trace.records
                     if r.src == CLIENT_HOST and r.payload_len)
    late_acks = [a for a in acks if a.time >= data_time + 0.19]
    assert late_acks, "expected a delayed ACK ~200 ms after the data"


@pytest.mark.parametrize("receiver,delack", [("client", 0.200),
                                              ("server", 0.050)])
def test_delayed_ack_leaves_at_the_next_fast_timer_tick(receiver, delack,
                                                        monkeypatch):
    # The BSD fast timer: a lone segment's ACK leaves at the next
    # multiple of the receiver's period after the data arrives — no
    # sooner and no later.  The server stack is built as the testbed
    # builds it (the Solaris 50 ms timer); the client keeps the default.
    net = make_net(WAN, server_config=TcpConfig(mss=WAN.mss,
                                                delack_delay=0.050))
    receiving, arrived, acked = [], [], []
    real_ack = TcpConnection._send_pure_ack

    def send_pure_ack(conn):
        acked.append((conn, net.sim.now))
        real_ack(conn)

    def receive(conn):
        receiving.append(conn)
        conn.on_data = lambda c, d: arrived.append(net.sim.now)

    monkeypatch.setattr(TcpConnection, "_send_pure_ack", send_pure_ack)
    if receiver == "client":
        def accept(conn):
            conn.on_connect = lambda c: c.send(b"lone segment")
        net.server.listen(80, accept)
        receive(net.client.connect(SERVER_HOST, 80))
    else:
        net.server.listen(80, receive)
        net.client.connect(SERVER_HOST, 80).send(b"lone segment")
    net.run()
    (conn,), (arrival,) = receiving, arrived
    assert conn.config.delack_delay == delack
    (ack,) = [now for sender, now in acked
              if sender is conn and now >= arrival]
    assert ack == pytest.approx((int(arrival / delack) + 1) * delack)
    assert arrival < ack <= arrival + delack


def test_every_second_segment_acked_immediately():
    net = make_net()
    net.server.listen(80, lambda conn: None)
    conn = net.client.connect(SERVER_HOST, 80)
    conn.send(bytes(2 * 1460))
    net.run(until=0.1)  # well before the 200 ms delack timer
    acks = [r for r in net.trace.records
            if r.src == SERVER_HOST and r.flags == "A"]
    assert acks, "two full segments should trigger an immediate ACK"


def test_connection_count_statistics():
    net = make_net()
    EchoServer(net)
    for _ in range(3):
        conn = net.client.connect(SERVER_HOST, 80)
        conn.send(b"x")
        conn.close()
    net.run()
    assert net.client.total_connections == 3
    assert net.server.total_connections == 3
    assert net.trace.summary().connections == 3


def test_trace_summary_overhead_formula():
    net = make_net()
    EchoServer(net)
    conn = net.client.connect(SERVER_HOST, 80)
    conn.send(b"z" * 100)
    net.run()
    summary = net.trace.summary()
    expected = 100.0 * (40 * summary.packets) / (
        summary.payload_bytes + 40 * summary.packets)
    assert summary.percent_overhead == pytest.approx(expected)


# ----------------------------------------------------------------------
# Teardown is the single exit: a CLOSED connection frees by refcount
# ----------------------------------------------------------------------
class Application:
    """Per-connection state the way every real one is shaped: it holds
    its connection, and the connection's callbacks hold it."""

    def __init__(self, conn):
        self.conn = conn
        self.events = []
        conn.on_connect = lambda c: self.events.append("connect")
        conn.on_data = lambda c, data: self.events.append(bytes(data))
        conn.on_eof = self.on_eof
        conn.on_reset = lambda c: self.events.append("reset")
        conn.on_closed = lambda c: self.events.append("closed")

    def on_eof(self, conn):
        self.events.append("eof")
        conn.close()


@contextlib.contextmanager
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def connected_pair(net):
    """(client application, server application), handshake done."""
    accepted = []
    net.server.listen(80, lambda conn: accepted.append(Application(conn)))
    client = Application(net.client.connect(SERVER_HOST, 80))
    client.conn.send(b"hello")
    net.run()
    return client, accepted.pop()


@pytest.mark.parametrize("ending", ["clean close", "abort"])
def test_closed_connection_and_its_application_die_without_collector(
        ending):
    """After a clean close, a local ``abort()`` (the client) and a
    received RST (the server), nothing but the caller holds either end."""
    with collector_off():
        net = make_net()
        client, server = connected_pair(net)
        if ending == "abort":
            client.conn.abort()
        else:
            client.conn.close()
        net.run()
        assert client.conn.state == server.conn.state == "CLOSED"
        assert not net.client._connections and not net.server._connections
        if ending == "abort":
            assert server.events == ["connect", b"hello", "reset"]
            assert client.events == ["connect"]    # abort() tells no one
        else:
            assert server.events == ["connect", b"hello", "eof", "closed"]
            assert client.events == ["connect", "eof", "closed"]
        refs = [weakref.ref(o) for o in (client, client.conn, server,
                                         server.conn)]
        del client, server
        assert [ref() for ref in refs] == [None] * 4


def test_no_callback_after_closed_and_late_duplicate_draws_rst():
    net = make_net()
    client, server = connected_pair(net)
    client.conn.close()
    net.run()
    seen = list(server.events)
    assert seen.count("closed") == 1
    net.link.transmit(Segment(
        CLIENT_HOST, client.conn.local_port, SERVER_HOST, 80, seq=1,
        ack=1, payload=b"hello", flag_ack=True))
    net.run()
    assert server.events == seen
    assert [r.flags for r in net.trace.records][-1].startswith("R")
    # Nor does a finished connection call back when poked directly.
    server.conn._finish_clean_close()
    server.conn._handle_rst()
    assert server.events == seen
