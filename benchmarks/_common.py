"""Shared helpers for the per-table benchmark modules.

Each ``bench_tableNN.py`` module does three things:

1. **benchmark** a representative cell with pytest-benchmark (wall time
   of the whole simulated experiment),
2. reproduce the full table once (single seed for speed) and **assert
   the paper's shape** — orderings and approximate factors,
3. **print** the measured-vs-paper table (visible with ``pytest -s``).

Tables 4–9 share one grid layout, so :func:`protocol_table_suite`
builds the whole module namespace (fixture plus test) and each
``bench_table0N.py`` reduces to a two-line shim.

Absolute numbers are not asserted tightly: the substrate is a
simulator, not the authors' testbed.  Shape is.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro.analysis.paperdata import PROTOCOL_TABLES, PaperCell
from repro.analysis import TABLE_NUMBERS
from repro.core import FIRST_TIME, REVALIDATE, modes_for_environment
from repro.core.runner import AveragedResult
from repro.matrix import ExperimentSpec, MatrixRunner, run_unit

__all__ = ["run_protocol_table", "assert_protocol_table_shape",
           "format_cells", "representative_cell",
           "protocol_table_suite"]

Cells = Dict[Tuple[str, str], AveragedResult]


def run_protocol_table(server_name: str, environment_name: str) -> Cells:
    """Run every (mode, scenario) cell of one table with one seed."""
    keys = [(mode.name, scenario)
            for mode in modes_for_environment(environment_name,
                                              paper_only=True)
            for scenario in (FIRST_TIME, REVALIDATE)]
    specs = [ExperimentSpec(mode=mode_name, scenario=scenario,
                            environment=environment_name,
                            server=server_name, seeds=(0,))
             for mode_name, scenario in keys]
    results = MatrixRunner().run_many(specs)
    return dict(zip(keys, results))


def representative_cell(server_name: str, environment_name: str):
    """The cell benchmarked for wall-clock: pipelined first retrieval."""
    spec = ExperimentSpec(mode="pipelined", scenario=FIRST_TIME,
                          environment=environment_name,
                          server=server_name, seeds=(0,))

    def run():
        return run_unit(spec, 0)[0]

    return run


def assert_protocol_table_shape(server_name: str, environment_name: str,
                                cells: Cells) -> None:
    """The paper's qualitative table structure, as assertions."""
    has_http10 = ("HTTP/1.0", FIRST_TIME) in cells
    pipelined_f = cells[("HTTP/1.1 Pipelined", FIRST_TIME)]
    pipelined_r = cells[("HTTP/1.1 Pipelined", REVALIDATE)]
    persistent_f = cells[("HTTP/1.1", FIRST_TIME)]
    persistent_r = cells[("HTTP/1.1", REVALIDATE)]
    compressed_f = cells[
        ("HTTP/1.1 Pipelined w. compression", FIRST_TIME)]

    if has_http10:
        http10_f = cells[("HTTP/1.0", FIRST_TIME)]
        http10_r = cells[("HTTP/1.0", REVALIDATE)]
        # Packets: pipelining wins >=2x first-time, >=10x revalidation.
        assert http10_f.packets / pipelined_f.packets >= 2.0
        assert http10_r.packets / pipelined_r.packets >= 10.0
        # Elapsed: pipelined beats 1.0; persistent-only does not.
        assert pipelined_f.elapsed < http10_f.elapsed
        assert persistent_f.elapsed >= http10_f.elapsed * 0.85
    # Pipelining always beats serialized persistence.
    assert pipelined_f.elapsed < persistent_f.elapsed
    assert pipelined_r.elapsed < persistent_r.elapsed
    assert pipelined_f.packets <= persistent_f.packets
    assert pipelined_r.packets < persistent_r.packets / 2
    # Compression removes ~1/6 of the payload and never hurts time.
    assert compressed_f.payload_bytes < pipelined_f.payload_bytes * 0.90
    assert compressed_f.packets < pipelined_f.packets
    # Cell-by-cell sanity against the paper, loose factor-of-two band
    # on packet counts.
    paper = PROTOCOL_TABLES[(server_name, environment_name)]
    for key, cell in cells.items():
        expected = paper[key]
        assert 0.5 <= cell.packets / expected.packets <= 2.0, (
            key, cell.packets, expected.packets)


def format_cells(server_name: str, environment_name: str,
                 cells: Cells) -> str:
    """Measured-vs-paper rendering for one table."""
    paper = PROTOCOL_TABLES[(server_name, environment_name)]
    number = TABLE_NUMBERS[(server_name, environment_name)]
    lines = [f"Table {number} - {server_name} - {environment_name} "
             f"(single seed)"]
    header = (f"{'mode':34s} {'scenario':11s} "
              f"{'Pa':>7s} {'Pa(p)':>7s} {'Bytes':>8s} {'B(p)':>8s} "
              f"{'Sec':>7s} {'Sec(p)':>7s}")
    lines.append(header)
    for key, cell in cells.items():
        expected: PaperCell = paper[key]
        lines.append(
            f"{key[0]:34s} {key[1]:11s} "
            f"{cell.packets:7.0f} {expected.packets:7.1f} "
            f"{cell.payload_bytes:8.0f} {expected.payload_bytes:8.0f} "
            f"{cell.elapsed:7.2f} {expected.seconds:7.2f}")
    return "\n".join(lines)


def protocol_table_suite(server_name: str, environment_name: str,
                         number: int) -> Dict[str, object]:
    """Build a bench_tableNN module namespace (fixture + test).

    Use as ``globals().update(protocol_table_suite("Jigsaw", "LAN", 4))``
    so the grid definition lives in one place and the per-table modules
    stay declarative.
    """

    @pytest.fixture(scope="module", name="cells")
    def cells_fixture():
        return run_protocol_table(server_name, environment_name)

    def test_table(benchmark, cells):
        result = benchmark(representative_cell(server_name,
                                               environment_name))
        # run_unit raises ExperimentError on an incomplete or corrupt
        # transfer, so a returned result is a completed one.
        assert result.packets > 0
        assert result.elapsed > 0
        assert_protocol_table_shape(server_name, environment_name, cells)
        print()
        print(format_cells(server_name, environment_name, cells))

    return {
        "SERVER": server_name,
        "ENVIRONMENT": environment_name,
        "cells": cells_fixture,
        f"test_table{number:02d}": test_table,
    }
