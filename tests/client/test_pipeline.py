"""Unit tests for the client output buffer's flush policies."""

import pytest

from repro.client import OutputBuffer
from repro.simnet import LAN, SERVER_HOST, TwoHostNetwork


def make_buffer(**kwargs):
    net = TwoHostNetwork(LAN)
    received = []

    def accept(conn):
        conn.on_data = lambda c, d: received.append(bytes(d))

    net.server.listen(80, accept)
    conn = net.client.connect(SERVER_HOST, 80)
    conn.set_nodelay(True)
    buffer = OutputBuffer(net.sim, conn, **kwargs)
    return net, buffer, received


def test_size_flush_at_threshold():
    net, buffer, received = make_buffer(size=1024, flush_timeout=None)
    buffer.write(b"r" * 600)
    buffer.write(b"r" * 600)      # crosses 1024
    net.run()
    assert b"".join(received) == b"r" * 1200
    assert buffer.size_flushes == 1
    assert buffer.pending == 0


def test_small_write_waits_for_timer():
    net, buffer, received = make_buffer(size=1024, flush_timeout=0.05)
    buffer.write(b"tiny request")
    net.run(until=0.01)
    assert received == []          # still buffered
    net.run()
    assert b"".join(received) == b"tiny request"
    assert buffer.timer_flushes == 1


def test_explicit_flush_beats_timer():
    net, buffer, received = make_buffer(size=1024, flush_timeout=1.0)
    buffer.write(b"request")
    buffer.flush()
    net.run(until=0.5)
    assert b"".join(received) == b"request"
    assert buffer.explicit_flushes == 1
    assert buffer.timer_flushes == 0


@pytest.mark.parametrize("size", [1024, 4])
def test_flushed_write_is_write_then_flush_without_a_timer(size):
    # Under the size limit, write-then-flush arms a flush timer only to
    # cancel it; the flushed write arms none.  At the limit neither arms
    # one.  Bytes and flush counters agree either way.
    def send(flushed):
        net, buffer, received = make_buffer(size=size, flush_timeout=0.05)
        if flushed:
            buffer.write(b"request", flush=True)
        else:
            buffer.write(b"request")
            buffer.flush()
        net.run()
        return (b"".join(received), buffer.size_flushes,
                buffer.explicit_flushes, buffer.timer_flushes,
                net.sim.perf.events_cancelled)

    *got, cancelled = send(True)
    *want, want_cancelled = send(False)
    assert got == want
    assert cancelled == want_cancelled - (1 if size > len(b"request") else 0)


def test_no_timer_means_data_sits():
    net, buffer, received = make_buffer(size=1024, flush_timeout=None)
    buffer.write(b"stuck")
    net.run()
    assert received == []
    assert buffer.pending == len(b"stuck")


def test_flush_on_empty_buffer_is_noop():
    net, buffer, received = make_buffer()
    buffer.flush()
    assert buffer.explicit_flushes == 0


def test_timer_rearms_after_each_flush():
    net, buffer, received = make_buffer(size=10_000, flush_timeout=0.05)
    buffer.write(b"a")
    net.run()
    buffer.write(b"b")
    net.run()
    assert buffer.timer_flushes == 2
    assert b"".join(received) == b"ab"


def test_bytes_written_counter():
    net, buffer, _ = make_buffer()
    buffer.write(b"abc")
    buffer.write(b"defg")
    assert buffer.bytes_written == 7


def test_multiple_writes_coalesce_into_one_segment():
    """The whole point: many small requests, one TCP segment."""
    net, buffer, received = make_buffer(size=1024, flush_timeout=None)
    for index in range(5):
        buffer.write(f"GET /img{index}.gif HTTP/1.1\r\n\r\n".encode())
    buffer.flush()
    net.run()
    client_data = [r for r in net.trace.records
                   if r.payload_len and r.src != SERVER_HOST]
    assert len(client_data) == 1
