"""Tests for TCP loss recovery: retransmission, RTO, fast retransmit,
out-of-order reassembly."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.simnet import (LAN, WAN, SERVER_HOST, Simulator, TcpConfig,
                          TwoHostNetwork)
from repro.simnet.link import Link
from repro.simnet.tcp import TcpStack


def lossy_net(loss_rate, seed=1, env=LAN, mss=1460):
    net = TwoHostNetwork(env, seed=seed)
    net.link.loss_rate = loss_rate
    net.link.rng = random.Random(seed)
    return net


class Sink:
    def __init__(self):
        self.data = bytearray()
        self.eof = False
        self.closed = False

    def attach(self, conn):
        conn.on_data = lambda c, d: self.data.extend(d)
        conn.on_eof = lambda c: setattr(self, "eof", True)
        conn.on_closed = lambda c: setattr(self, "closed", True)


def transfer(net, payload):
    sink = Sink()

    def accept(conn):
        sink.attach(conn)
        conn.on_eof = lambda c: (setattr(sink, "eof", True), c.close())

    net.server.listen(80, accept)
    conn = net.client.connect(SERVER_HOST, 80)
    conn.send(payload, close=True)
    net.run()
    return sink, conn


def test_lossless_path_has_no_retransmissions():
    net = lossy_net(0.0)
    payload = bytes(50 * 1460)
    sink, conn = transfer(net, payload)
    assert bytes(sink.data) == payload
    assert conn.retransmissions == 0
    assert net.link.dropped_loss == 0


@pytest.mark.parametrize("loss", [0.02, 0.05, 0.10])
def test_bulk_transfer_survives_loss(loss):
    net = lossy_net(loss, seed=3)
    payload = bytes(range(256)) * 200        # ~51 KB, checkable content
    sink, conn = transfer(net, payload)
    assert bytes(sink.data) == payload       # in order, complete, exact
    assert sink.eof
    assert net.link.dropped_loss > 0
    assert conn.retransmissions > 0


def test_syn_loss_recovers_by_timeout():
    net = lossy_net(0.0)
    # Drop exactly the first segment (the SYN).
    original = net.link.transmit
    dropped = []

    def drop_first(segment):
        if not dropped:
            dropped.append(segment)
            net.link.dropped_loss += 1
            return
        original(segment)

    net.link.transmit = drop_first
    sink, conn = transfer(net, b"hello after syn loss")
    assert bytes(sink.data) == b"hello after syn loss"
    assert conn.retransmissions >= 1
    assert conn.timeouts >= 1
    assert net.sim.now >= 1.0    # paid the RTO floor


def test_fin_loss_recovers():
    net = lossy_net(0.0)
    original = net.link.transmit

    def drop_fins_once(segment, dropped=[]):
        if segment.flag_fin and not dropped:
            dropped.append(segment)
            return
        original(segment)

    net.link.transmit = drop_fins_once
    sink, conn = transfer(net, b"payload")
    assert bytes(sink.data) == b"payload"
    assert sink.eof


def test_fast_retransmit_fires_before_rto():
    """Drop one mid-stream data segment; three dup ACKs repair it long
    before the 1 s timeout."""
    net = lossy_net(0.0, env=WAN)
    original = net.link.transmit
    state = {"count": 0}

    def drop_fifth_data(segment):
        if segment.payload_len and segment.src != SERVER_HOST:
            state["count"] += 1
            if state["count"] == 5:
                net.link.dropped_loss += 1
                return
        original(segment)

    net.link.transmit = drop_fifth_data
    payload = bytes(30 * 1460)
    sink, conn = transfer(net, payload)
    assert bytes(sink.data) == payload
    assert conn.fast_retransmits >= 1
    assert net.sim.now < 3.0     # no 3 s initial-RTO stall


def test_out_of_order_segments_reassembled():
    """Deliver segments 2,3 before 1 via a reordering shim."""
    net = lossy_net(0.0)
    original = net.link.transmit
    held = []

    def reorder(segment):
        if segment.payload_len and segment.src != SERVER_HOST \
                and not held:
            held.append(segment)     # hold the first data segment
            return
        original(segment)
        if held and segment.payload_len:
            original(held.pop())     # release it after the next one

    net.link.transmit = reorder
    payload = bytes(range(256)) * 20
    sink, conn = transfer(net, payload)
    assert bytes(sink.data) == payload


def test_duplicate_data_reacked():
    """A spurious retransmission of delivered data draws an immediate
    ACK and is not re-delivered to the application."""
    net = lossy_net(0.0)
    sink = Sink()
    conns = []

    def accept(conn):
        conns.append(conn)
        sink.attach(conn)

    net.server.listen(80, accept)
    conn = net.client.connect(SERVER_HOST, 80)
    conn.send(b"once only")
    net.run()
    assert bytes(sink.data) == b"once only"
    # Inject a spurious retransmission of the already-delivered data.
    from repro.simnet.packet import Segment
    spurious = Segment(net.client.host, conn.local_port, SERVER_HOST, 80,
                       seq=1, ack=conn.rcv_nxt, payload=b"once only",
                       flag_ack=True)
    conn._retransmit_queue.append(spurious)
    conn._retransmit_first()
    conn._retransmit_queue.clear()
    net.run()
    assert bytes(sink.data) == b"once only"   # not duplicated
    reacks = [r for r in net.trace.records
              if r.src == SERVER_HOST and r.flags == "A"]
    assert reacks, "expected an immediate re-ACK of duplicate data"


def test_rtt_estimator_converges():
    net = TwoHostNetwork(WAN)
    sink = Sink()

    def accept(conn):
        conn.on_data = lambda c, d: c.send(d)

    net.server.listen(80, accept)
    conn = net.client.connect(SERVER_HOST, 80)
    conn.set_nodelay(True)
    for _ in range(10):
        conn.send(b"x" * 100)
        net.run()
    assert conn._srtt is not None
    # WAN RTT is 90 ms; the estimate should be in its neighbourhood.
    assert 0.05 <= conn._srtt <= 0.35


def test_timeout_resets_congestion_window():
    net = lossy_net(0.0)
    original = net.link.transmit
    state = {"count": 0}

    def drop_burst(segment):
        if segment.payload_len and segment.src != SERVER_HOST:
            state["count"] += 1
            if 3 <= state["count"] <= 12:
                net.link.dropped_loss += 1
                return      # black-hole a burst: dup acks can't repair
        original(segment)

    net.link.transmit = drop_burst
    payload = bytes(40 * 1460)
    sink, conn = transfer(net, payload)
    assert bytes(sink.data) == payload
    assert conn.timeouts >= 1


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31 - 1),
       st.floats(min_value=0.0, max_value=0.12),
       st.integers(1, 40))
def test_reliable_delivery_property(seed, loss, n_chunks):
    """Whatever the loss pattern, the byte stream arrives complete,
    in order, and exactly once."""
    net = lossy_net(loss, seed=seed)
    rng = random.Random(seed)
    payload = bytes(rng.randrange(256)
                    for _ in range(rng.randrange(1, n_chunks * 1460)))
    sink, conn = transfer(net, payload)
    assert bytes(sink.data) == payload
    assert sink.eof
