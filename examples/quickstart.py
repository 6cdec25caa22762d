#!/usr/bin/env python3
"""Quickstart: measure HTTP/1.0 vs HTTP/1.1 pipelining in two minutes.

Builds the synthetic Microscape site (42 KB HTML + 42 GIFs), serves it
from an Apache-like server on a simulated WAN, and fetches it with the
four client configurations from the paper — printing the Pa / Bytes /
Sec / %ov table that corresponds to the paper's Table 7.

Run:  python examples/quickstart.py
"""

from repro.core import (FIRST_TIME, REVALIDATE, modes_for_environment,
                        run_experiment)
from repro.server import APACHE
from repro.simnet import WAN


def main() -> None:
    print(f"Network: {WAN.description} (RTT {WAN.rtt * 1000:.0f} ms)")
    print(f"Server:  {APACHE.name}")
    print()
    header = (f"{'mode':34s} {'scenario':11s} {'packets':>8s} "
              f"{'bytes':>9s} {'seconds':>8s} {'%ov':>5s}")
    print(header)
    print("-" * len(header))
    for mode in modes_for_environment(WAN, paper_only=True):
        for scenario in (FIRST_TIME, REVALIDATE):
            result = run_experiment(mode, scenario, environment=WAN,
                                    profile=APACHE, seed=0)
            print(f"{mode.name:34s} {scenario:11s} "
                  f"{result.packets:8d} {result.payload_bytes:9d} "
                  f"{result.elapsed:8.2f} "
                  f"{result.percent_overhead:5.1f}")
    print()
    print("Compare with Table 7 of the paper: pipelining cuts packets")
    print(">=2x on first visits and ~10x on revalidation, while the")
    print("persistent-but-serialized client is *slower* than HTTP/1.0.")


if __name__ == "__main__":
    main()
