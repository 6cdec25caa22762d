"""Ablation: behaviour at a drop-tail bottleneck.

The paper: "The first few packet exchanges of a new TCP connection are
either too fast, or too slow for that path" — and "TCP's congestion
control algorithms work best when there are enough packets in a
connection that TCP can determine the approximate optimal maximum rate".
This ablation puts a small drop-tail buffer at the WAN bottleneck and
shows both halves of that sentence: HTTP/1.0's 43 short connections
never leave slow start ("too slow for that path", TCP at its least
efficient), while the single pipelined connection probes to the
bottleneck's capacity, takes a handful of congestion drops, recovers
with fast retransmit/NewReno — and still finishes fastest.
"""

import pytest

from repro.core import (FIRST_TIME, HTTP10_MODE, HTTP11_PIPELINED,
                        run_experiment)
from repro.core import runner as runner_mod
from repro.server import APACHE
from repro.simnet import WAN

QUEUE_PACKETS = 10


def run_with_bottleneck(mode, seed=0, queue=QUEUE_PACKETS):
    original = runner_mod.Network
    created = []

    def patched(*args, **kwargs):
        net = original(*args, **kwargs)
        net.link.queue_limit_packets = queue
        created.append(net)
        return net

    runner_mod.Network = patched
    try:
        result = run_experiment(mode, FIRST_TIME, environment=WAN,
                                profile=APACHE, seed=seed)
    finally:
        runner_mod.Network = original
    return result, created[0].link.segments_dropped


@pytest.fixture(scope="module")
def cells():
    return {
        "HTTP/1.0 x4": run_with_bottleneck(HTTP10_MODE),
        "pipelined": run_with_bottleneck(HTTP11_PIPELINED),
    }


def test_congestion(benchmark, cells):
    result, _drops = benchmark(
        lambda: run_with_bottleneck(HTTP11_PIPELINED, seed=1))
    assert result.fetch.complete

    http10, http10_drops = cells["HTTP/1.0 x4"]
    pipelined, pipelined_drops = cells["pipelined"]

    # Both complete correctly despite the congested bottleneck
    # (verified byte-for-byte inside run_experiment).
    # The long connection finds the path's capacity: it experiences
    # congestion losses and recovers...
    assert pipelined_drops >= 1
    assert pipelined.fetch.complete
    # ...while still beating HTTP/1.0, whose 43 short connections never
    # get TCP past slow start.
    assert pipelined.packets < http10.packets / 2
    assert pipelined.elapsed < http10.elapsed

    print()
    print(f"{'client':12s} {'drops':>6s} {'Pa':>5s} {'Sec':>6s}")
    for name, (cell, drops) in cells.items():
        print(f"{name:12s} {drops:6d} {cell.packets:5d} "
              f"{cell.elapsed:6.2f}")
