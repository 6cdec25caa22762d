"""Ablation: initial congestion window and the cost of slow start.

The paper: "The exact results may depend on how the slow start
algorithm is implemented on the particular platform.  Some TCP stacks
implement slow start using one TCP segment whereas others implement it
using two packets."  And the core argument for persistence: HTTP/1.0
restarts slow start 43 times per page, so "most HTTP/1.0 operations use
TCP at its least efficient".
"""

import pytest

from repro.core import (FIRST_TIME, HTTP10_MODE, HTTP11_PIPELINED,
                        run_experiment)
from repro.core import runner as runner_mod
from repro.server import APACHE
from repro.simnet import WAN
from repro.simnet.tcp import TcpConfig


def run_with_initial_cwnd(mode, segments, seed=0):
    """Run with a patched *server* initial congestion window (the
    server sends the bulk data, so its window is the one slow start
    gates)."""
    original = runner_mod.Network

    def patched(environment, **kwargs):
        kwargs["server_config"] = TcpConfig(
            mss=environment.mss, initial_cwnd_segments=segments,
            delack_delay=0.050)
        return original(environment, **kwargs)

    runner_mod.Network = patched
    try:
        return run_experiment(mode, FIRST_TIME, environment=WAN,
                              profile=APACHE, seed=seed)
    finally:
        runner_mod.Network = original


@pytest.fixture(scope="module")
def cells():
    out = {}
    for segments in (1, 2, 4):
        out[("HTTP/1.0", segments)] = run_with_initial_cwnd(
            HTTP10_MODE, segments)
        out[("pipelined", segments)] = run_with_initial_cwnd(
            HTTP11_PIPELINED, segments)
    return out


def test_slow_start_ablation(benchmark, cells):
    result = benchmark(lambda: run_with_initial_cwnd(HTTP11_PIPELINED, 2,
                                                     seed=1))
    assert result.fetch.complete

    # A single persistent connection amortizes slow start once; 43
    # fresh connections pay it 43 times.  Growing the initial window
    # therefore helps HTTP/1.0 *more* in relative terms...
    speedup_10 = (cells[("HTTP/1.0", 1)].elapsed
                  / cells[("HTTP/1.0", 4)].elapsed)
    speedup_pl = (cells[("pipelined", 1)].elapsed
                  / cells[("pipelined", 4)].elapsed)
    assert speedup_10 > speedup_pl
    # ...but even with a 4-segment initial window, HTTP/1.0 still loses
    # to a pipelined connection with the conservative window.
    assert cells[("pipelined", 1)].elapsed < \
        cells[("HTTP/1.0", 4)].elapsed

    print()
    for (mode, segments), cell in sorted(cells.items()):
        print(f"{mode:10s} initial cwnd={segments}  "
              f"Sec={cell.elapsed:5.2f}  Pa={cell.packets}")
