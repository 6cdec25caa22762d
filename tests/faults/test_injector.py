"""FaultInjector: unit behaviour on a bare link, plus end-to-end runs."""

import zlib

import pytest

from repro.core import run_experiment
from repro.faults import FaultInjector, LinkFaultConfig, RecoveryLog
from repro.simnet.engine import Simulator
from repro.simnet.link import Link
from repro.simnet.packet import Segment


def make_link():
    """A 1 Mbit/s, 10 ms link with a delivery-collecting receiver."""
    sim = Simulator()
    link = Link(sim, 1_000_000.0, 0.010)
    delivered = []
    link.attach("b", delivered.append)
    link.attach("a", lambda seg: None)
    return sim, link, delivered


def segment(payload=b"x" * 100, seq=1):
    return Segment("a", 1000, "b", 80, seq=seq, ack=1, payload=payload,
                   flag_ack=True)


def test_certain_loss_drops_and_counts():
    sim, link, delivered = make_link()
    recovery = RecoveryLog()
    injector = FaultInjector(link, LinkFaultConfig(loss_good=1.0),
                             seed=1, recovery=recovery)
    assert link.fault_injector is injector
    link.transmit(segment())
    sim.run()
    assert delivered == []
    assert injector.injected_loss == 1
    assert link.dropped_loss == 1
    assert link.segments_dropped == 1
    assert recovery.count("link", "loss") == 1


def test_corruption_flips_one_byte_and_stamps_original_crc():
    sim, link, delivered = make_link()
    original = b"x" * 100
    FaultInjector(link, LinkFaultConfig(corrupt_rate=1.0), seed=2)
    link.transmit(segment(original))
    sim.run()
    (seg,) = delivered
    assert seg.payload != original
    assert sum(a != b for a, b in zip(seg.payload, original)) == 1
    assert seg.checksum == zlib.crc32(original)
    assert zlib.crc32(seg.payload) != seg.checksum


def test_control_segments_are_never_corrupted():
    sim, link, delivered = make_link()
    FaultInjector(link, LinkFaultConfig(corrupt_rate=1.0), seed=2)
    link.transmit(Segment("a", 1000, "b", 80, flag_syn=True))
    sim.run()
    (seg,) = delivered
    assert seg.checksum is None


def test_duplication_delivers_twice():
    sim, link, delivered = make_link()
    FaultInjector(link, LinkFaultConfig(duplicate_rate=1.0), seed=3)
    link.transmit(segment())
    sim.run()
    assert len(delivered) == 2
    assert delivered[0].payload == delivered[1].payload


def test_reordering_delays_within_bound():
    sim, link, delivered = make_link()
    # Baseline arrival without faults.
    link.transmit(segment())
    sim.run()
    baseline = delivered.pop().delivered_at
    FaultInjector(link, LinkFaultConfig(reorder_rate=1.0,
                                        reorder_max_delay=0.02), seed=4)
    link.transmit(segment())
    sim.run()
    (seg,) = delivered
    assert baseline < seg.delivered_at <= baseline + 0.02
    # (the second transmit starts at the first's finish time, so the
    # serialization offset cancels out of the comparison)


def test_same_seed_same_fault_schedule():
    def fates(seed):
        sim, link, delivered = make_link()
        injector = FaultInjector(
            link, LinkFaultConfig(p_good_to_bad=0.2, p_bad_to_good=0.3,
                                  loss_good=0.05, loss_bad=0.5,
                                  duplicate_rate=0.1, corrupt_rate=0.1),
            seed=seed)
        for n in range(200):
            link.transmit(segment(seq=n * 100 + 1))
        sim.run()
        return ([s.seq for s in delivered], injector.injected_loss,
                injector.injected_corrupt, injector.injected_duplicate)

    assert fates(42) == fates(42)
    assert fates(42) != fates(43)


def test_gilbert_elliott_losses_cluster():
    """With no independent loss in the good state, every loss happens
    inside a bad-state burst — drops come in runs, not singletons."""
    sim, link, delivered = make_link()
    injector = FaultInjector(
        link, LinkFaultConfig(p_good_to_bad=0.05, p_bad_to_good=0.2,
                              loss_good=0.0, loss_bad=1.0), seed=7)
    total = 2000
    for n in range(total):
        link.transmit(segment(seq=n * 100 + 1))
    sim.run()
    assert 0 < injector.injected_loss < total
    assert len(delivered) == total - injector.injected_loss
    # Mean burst length 1/p_bad_to_good = 5: far fewer distinct gaps
    # than lost segments.
    arrived = {s.seq for s in delivered}
    gaps = sum(1 for n in range(total)
               if n * 100 + 1 not in arrived
               and (n == 0 or (n - 1) * 100 + 1 in arrived))
    assert gaps < injector.injected_loss / 2


# ----------------------------------------------------------------------
# End to end: corrupted segments are repaired by TCP
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_wire_chaos_run_completes_and_counts_checksum_drops():
    result = run_experiment("pipelined", "first-time", environment="WAN",
                            profile="Apache", seed=0, faults="wire-chaos")
    assert len(result.fetch.responses) == 43
    assert result.checksum_drops > 0
    assert result.retransmissions > 0
    assert result.trace.recovery.count("link", "corrupt") > 0


@pytest.mark.slow
def test_bursty_loss_repaired_by_retransmission():
    result = run_experiment("pipelined", "first-time", environment="WAN",
                            profile="Apache", seed=0,
                            faults="bursty-loss")
    assert len(result.fetch.responses) == 43
    assert result.dropped_loss > 0
    assert result.retransmissions + result.timeouts > 0


def test_unit_seed_reaches_the_fault_injector():
    # The run's seed, not a constant, must seed the injector's private
    # stream: with jitter off, the fault draws are the only thing two
    # seeds of this cell can differ by.
    def outcome(seed):
        result = run_experiment("pipelined", "first-time",
                                environment="LAN", profile="Apache",
                                seed=seed, jitter=0.0,
                                faults="bursty-loss")
        return result.recovery, result.packets, result.elapsed

    assert outcome(1) != outcome(2)
