"""Unit tests for the trace collector and its summaries."""

import pytest

from repro.simnet import (LAN, SERVER_HOST, CLIENT_HOST, TwoHostNetwork)


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
