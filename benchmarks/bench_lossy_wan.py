"""Ablation: the protocol comparison under packet loss.

The paper's traces were taken "when the Internet was particularly
quiet"; its discussion of congestion argues HTTP/1.1 also behaves
better on loaded paths (fewer packets during slow start, longer packet
trains for the congestion-control loop to learn from).  This ablation
re-runs the WAN first-retrieval comparison with 2% packet loss: the
ordering survives, and HTTP/1.0 pays more retransmission stalls because
every object restarts loss recovery from scratch.
"""

import pytest

from repro.core import (FIRST_TIME, HTTP10_MODE, HTTP11_PIPELINED,
                        run_experiment)
from repro.server import APACHE
from repro.simnet import WAN

LOSS = 0.02


def run_lossy(mode, seed=0, loss=LOSS):
    # run_experiment builds the network; inject loss through a wrapper.
    from repro.core import runner as runner_mod

    original = runner_mod.Network

    def lossy_network(*args, **kwargs):
        net = original(*args, **kwargs)
        net.link.loss_rate = loss
        return net

    runner_mod.Network = lossy_network
    try:
        return run_experiment(mode, FIRST_TIME, environment=WAN,
                              profile=APACHE, seed=seed)
    finally:
        runner_mod.Network = original


@pytest.fixture(scope="module")
def cells():
    return {
        "HTTP/1.0 (lossy)": run_lossy(HTTP10_MODE),
        "pipelined (lossy)": run_lossy(HTTP11_PIPELINED),
        "HTTP/1.0 (clean)": run_experiment(HTTP10_MODE, FIRST_TIME,
                                           environment=WAN, profile=APACHE,
                                           seed=0),
        "pipelined (clean)": run_experiment(HTTP11_PIPELINED,
                                            FIRST_TIME, environment=WAN,
                                            profile=APACHE,
                                            seed=0),
    }


def test_lossy_wan(benchmark, cells):
    result = benchmark(lambda: run_lossy(HTTP11_PIPELINED, seed=1))
    assert result.fetch.complete

    # Every byte still arrives intact (verified inside run_experiment).
    lossy_10 = cells["HTTP/1.0 (lossy)"]
    lossy_pl = cells["pipelined (lossy)"]
    clean_10 = cells["HTTP/1.0 (clean)"]
    clean_pl = cells["pipelined (clean)"]

    # Loss costs everyone time...
    assert lossy_pl.elapsed > clean_pl.elapsed
    assert lossy_10.elapsed > clean_10.elapsed
    # ...but the orderings survive.
    assert lossy_pl.packets < lossy_10.packets / 2
    assert lossy_pl.elapsed < lossy_10.elapsed

    print()
    for name, cell in cells.items():
        print(f"{name:20s} Pa={cell.packets:4d} "
              f"Sec={cell.elapsed:6.2f}")
