"""Unit tests for the trace collector and its summaries."""

import pytest

from repro.simnet import (LAN, WAN, SERVER_HOST, CLIENT_HOST,
                          TwoHostNetwork)


def run_exchange(n_connections=2, payload=b"x" * 500):
    net = TwoHostNetwork(LAN)

    def accept(conn):
        conn.on_data = lambda c, d: c.send(d)

    net.server.listen(80, accept)
    for _ in range(n_connections):
        conn = net.client.connect(SERVER_HOST, 80)
        conn.send(payload)
        conn.close()
    net.run()
    return net


def test_summary_counts_all_packets():
    net = run_exchange()
    summary = net.trace.summary()
    assert summary.packets == len(net.trace.records)
    assert summary.packets > 0
    assert summary.header_bytes == 40 * summary.packets


def test_direction_split_sums_to_total():
    net = run_exchange()
    summary = net.trace.summary()
    assert (summary.packets_client_to_server
            + summary.packets_server_to_client) == summary.packets
    assert summary.packets_client_to_server > 0
    assert summary.packets_server_to_client > 0


def test_connection_flow_grouping():
    net = run_exchange(n_connections=3)
    summary = net.trace.summary()
    assert summary.connections == 3
    assert summary.mean_packets_per_connection == pytest.approx(
        summary.packets / 3)


def test_mean_packet_size():
    net = run_exchange()
    summary = net.trace.summary()
    assert summary.mean_packet_size == pytest.approx(
        summary.wire_bytes / summary.packets)


def test_format_trace_lines():
    net = run_exchange(n_connections=1)
    text = net.trace.format_trace(limit=3)
    lines = text.splitlines()
    assert len(lines) == 3
    assert "[S]" in lines[0]
    assert CLIENT_HOST in lines[0]


def test_clear_resets_collector():
    net = run_exchange()
    net.trace.clear()
    assert net.trace.summary().packets == 0
    assert net.trace.format_trace() == ""


def test_empty_summary_is_all_zero():
    net = TwoHostNetwork(LAN)
    summary = net.trace.summary()
    assert summary.packets == 0
    assert summary.percent_overhead == 0.0
    assert summary.duration == 0.0


def test_wire_bytes_per_epoch_buckets_one_hosts_packets():
    net = TwoHostNetwork(WAN)

    def accept(conn):
        conn.on_data = lambda c, d: c.send(b"y" * 3000)

    net.server.listen(80, accept)
    conn = net.client.connect(SERVER_HOST, 80)
    conn.send(b"x" * 100)
    # A second request long after the first exchange: 1.0 s is past the
    # end of the 3 x 0.1 s schedule and must land in the last bucket.
    net.sim.schedule_at(1.0, conn.send, b"x" * 100)
    net.run()
    sent = [(r.time, r.wire_size) for r in net.trace.records
            if r.src == SERVER_HOST]
    assert any(time >= 0.3 for time, _ in sent)
    buckets = net.trace.wire_bytes_per_epoch(SERVER_HOST, 0.1, 3)
    assert buckets == [
        float(sum(size for time, size in sent if time < 0.1)),
        float(sum(size for time, size in sent if 0.1 <= time < 0.2)),
        float(sum(size for time, size in sent if time >= 0.2))]
    assert all(isinstance(total, float) for total in buckets)
    assert sum(buckets) == sum(size for _, size in sent)
    # Another host's packets are not counted.
    assert sum(net.trace.wire_bytes_per_epoch(CLIENT_HOST, 0.1, 3)) == sum(
        r.wire_size for r in net.trace.records if r.src == CLIENT_HOST)
    assert net.trace.wire_bytes_per_epoch("nobody", 0.1, 3) == [0.0] * 3
    # Wire sizes are derived, not stored: every record carries the
    # 40-byte TCP/IP header on top of its payload, and the two hosts'
    # buckets together cover every wire byte of the summary.
    assert all(r.wire_size == r.payload_len + 40
               for r in net.trace.records)
    assert sum(net.trace.wire_bytes_per_epoch(SERVER_HOST, 0.1, 3)) + sum(
        net.trace.wire_bytes_per_epoch(CLIENT_HOST, 0.1, 3)) == (
        net.trace.summary().wire_bytes)
