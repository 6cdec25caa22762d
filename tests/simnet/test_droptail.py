"""Tests for the drop-tail bottleneck queue."""

import pytest

from repro.simnet import LAN, SERVER_HOST, TwoHostNetwork, WAN


def bulk_transfer(queue_limit, payload_segments=60):
    net = TwoHostNetwork(WAN)
    net.link.queue_limit_packets = queue_limit
    received = bytearray()
    done = {}

    def accept(conn):
        conn.on_data = lambda c, d: c.send(bytes(payload_segments * 1460),
                                           close=True)

    net.server.listen(80, accept)
    conn = net.client.connect(SERVER_HOST, 80)
    conn.on_data = lambda c, d: received.extend(d)
    conn.on_eof = lambda c: done.setdefault("t", net.sim.now)
    conn.send(b"go")
    net.run()
    return net, received, done.get("t")


def test_unbounded_queue_never_drops():
    net, received, _ = bulk_transfer(None)
    assert net.link.dropped_overflow == 0
    assert len(received) == 60 * 1460


def test_small_queue_drops_but_transfer_completes():
    net, received, finished = bulk_transfer(8)
    assert net.link.dropped_overflow > 0
    assert len(received) == 60 * 1460      # loss recovery repaired it
    assert finished is not None


def test_deeper_queue_drops_less():
    shallow, _, _ = bulk_transfer(6)
    deep, _, _ = bulk_transfer(40)
    assert deep.link.dropped_overflow <= shallow.link.dropped_overflow


def test_queue_slots_recycle():
    """The queue depth is instantaneous occupancy, not a lifetime cap:
    far more packets than the limit traverse the link."""
    net, received, _ = bulk_transfer(8)
    total_packets = len(net.trace.records)
    assert total_packets > 8 * 5
    assert len(received) == 60 * 1460


def test_invalid_loss_rate_rejected():
    from repro.simnet import Link, Simulator
    with pytest.raises(ValueError):
        Link(Simulator(), 1000.0, 0.0, loss_rate=1.5)
