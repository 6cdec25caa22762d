"""Future work: quantify the server CPU savings of HTTP/1.1.

"We believe the CPU time savings of HTTP/1.1 is very substantial due to
the great reduction in TCP open and close and savings in packet
overhead, and could now be quantified for Apache (currently the most
popular Web server on the Internet)."  Quantified here: total server
CPU-busy time per page fetch, for each protocol mode, on the Apache
profile.
"""

import pytest

from repro.core import (FIRST_TIME, HTTP10_MODE, HTTP11_PIPELINED,
                        REVALIDATE, modes_for_environment,
                        run_experiment)
from repro.server import APACHE
from repro.simnet import LAN


@pytest.fixture(scope="module")
def cells():
    out = {}
    for mode in modes_for_environment(LAN, paper_only=True):
        for scenario in (FIRST_TIME, REVALIDATE):
            out[(mode.name, scenario)] = run_experiment(
                mode, scenario, environment=LAN, profile=APACHE, seed=0)
    return out


def test_server_cpu(benchmark, cells):
    result = benchmark(lambda: run_experiment(
        HTTP11_PIPELINED, REVALIDATE, environment=LAN, profile=APACHE, seed=1))
    assert result.fetch.complete

    http10_f = cells[("HTTP/1.0", FIRST_TIME)]
    pipelined_f = cells[("HTTP/1.1 Pipelined", FIRST_TIME)]
    http10_r = cells[("HTTP/1.0", REVALIDATE)]
    pipelined_r = cells[("HTTP/1.1 Pipelined", REVALIDATE)]

    # The per-connection overhead (fork/accept, 43x vs 1x) is the
    # "very substantial" saving the paper predicts.
    saved_f = 1 - pipelined_f.server_cpu_seconds / \
        http10_f.server_cpu_seconds
    saved_r = 1 - pipelined_r.server_cpu_seconds / \
        http10_r.server_cpu_seconds
    assert saved_f > 0.25
    assert saved_r > 0.4     # revalidation is dominated by per-conn cost
    # Persistent and pipelined cost the server the same CPU: pipelining
    # changes timing, not work.
    persistent_f = cells[("HTTP/1.1", FIRST_TIME)]
    assert abs(persistent_f.server_cpu_seconds
               - pipelined_f.server_cpu_seconds) < 0.005

    print()
    print(f"{'mode':34s} {'scenario':11s} {'server CPU (ms)':>16s}")
    for (mode, scenario), cell in cells.items():
        print(f"{mode:34s} {scenario:11s} "
              f"{cell.server_cpu_seconds * 1000:16.1f}")
    print(f"\nHTTP/1.1 pipelined saves {saved_f:.0%} server CPU on first "
          f"retrieval, {saved_r:.0%} on revalidation (vs HTTP/1.0).")
