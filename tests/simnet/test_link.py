"""Unit tests for the link model and network environments."""

import pytest

from repro.simnet import (ENVIRONMENTS, LAN, PPP, WAN, Link, Segment,
                          Simulator, TraceCollector)


def make_link(**kwargs):
    sim = Simulator()
    link = Link(sim, kwargs.pop("bandwidth_bps", 8000.0),
                kwargs.pop("propagation_delay", 0.01), **kwargs)
    return sim, link


def seg(payload=b"", src="a", dst="b"):
    return Segment(src, 1, dst, 2, payload=payload)


def test_environments_match_table1():
    assert set(ENVIRONMENTS) == {"LAN", "WAN", "PPP"}
    assert LAN.rtt < 0.001
    assert 0.08 <= WAN.rtt <= 0.1
    assert 0.14 <= PPP.rtt <= 0.16
    for env in ENVIRONMENTS.values():
        assert env.mss == 1460
    assert PPP.bandwidth_bps == 28_800
    assert LAN.bandwidth_bps == 10_000_000
    assert PPP.modem_compression
    assert not LAN.modem_compression


def test_delivery_time_includes_serialization_and_propagation():
    sim, link = make_link(bandwidth_bps=8000.0, propagation_delay=0.5)
    arrivals = []
    link.attach("a", lambda s: None)
    link.attach("b", lambda s: arrivals.append(sim.now))
    link.transmit(seg(payload=bytes(60)))   # wire = 100 B = 800 bits
    sim.run()
    assert arrivals[0] == pytest.approx(0.1 + 0.5)


def test_same_direction_serializes_fifo():
    sim, link = make_link(bandwidth_bps=8000.0, propagation_delay=0.0)
    arrivals = []
    link.attach("a", lambda s: None)
    link.attach("b", lambda s: arrivals.append(sim.now))
    link.transmit(seg(payload=bytes(60)))
    link.transmit(seg(payload=bytes(60)))
    sim.run()
    assert arrivals == [pytest.approx(0.1), pytest.approx(0.2)]


def test_opposite_directions_are_independent():
    sim, link = make_link(bandwidth_bps=8000.0, propagation_delay=0.0)
    arrivals = {}
    link.attach("a", lambda s: arrivals.setdefault("a", sim.now))
    link.attach("b", lambda s: arrivals.setdefault("b", sim.now))
    link.transmit(seg(payload=bytes(60), src="a", dst="b"))
    link.transmit(seg(payload=bytes(60), src="b", dst="a"))
    sim.run()
    assert arrivals["a"] == pytest.approx(0.1)
    assert arrivals["b"] == pytest.approx(0.1)


def test_unknown_destination_rejected():
    sim, link = make_link()
    link.attach("a", lambda s: None)
    with pytest.raises(ValueError):
        link.transmit(seg(src="a", dst="nowhere"))


def test_duplicate_attach_rejected():
    sim, link = make_link()
    link.attach("a", lambda s: None)
    with pytest.raises(ValueError):
        link.attach("a", lambda s: None)


def test_collector_sees_segments_at_send_time():
    sim, link = make_link(propagation_delay=1.0)
    link.attach("a", lambda s: None)
    link.attach("b", lambda s: None)
    collector = TraceCollector(link, "a")
    assert link.collector is collector
    link.transmit(seg())
    assert [row[0] for row in collector.rows()] == [0.0]


def test_jitter_is_seeded_and_bounded():
    times = []
    for _ in range(2):
        sim, link = make_link(bandwidth_bps=8000.0,
                              propagation_delay=0.0, jitter=0.1,
                              seed=7)
        arrivals = []
        link.attach("a", lambda s: None)
        link.attach("b", lambda s: arrivals.append(sim.now))
        link.transmit(seg(payload=bytes(60)))
        sim.run()
        times.append(arrivals[0])
    assert times[0] == times[1]                 # same seed, same result
    assert 0.09 <= times[0] <= 0.11             # within +/-10%


def test_ppp_framing_is_more_expensive_per_byte():
    assert PPP.bits_per_byte > 8
    assert LAN.bits_per_byte == 8


def test_compressor_reduces_transmission_time():
    class HalfCompressor:
        def wire_bytes(self, payload):
            return len(payload) // 2

    sim, link = make_link(bandwidth_bps=8000.0, propagation_delay=0.0)
    arrivals = []
    link.attach("a", lambda s: None)
    link.attach("b", lambda s: arrivals.append(sim.now))
    link.set_compressor("a", "b", HalfCompressor())
    link.transmit(seg(payload=bytes(120)))  # wire = 40 + 60 = 100 B
    sim.run()
    assert arrivals[0] == pytest.approx(0.1)
