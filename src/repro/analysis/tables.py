"""Table rendering and paper-vs-measured comparison.

The reproduction drivers print each table in the paper's layout, side
by side with the published numbers; :func:`fidelity` reduces the same
rows to the distance-from-the-paper score the claims ledger prints and
tier-1 ratchets.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from typing import Iterable, List, Optional, Sequence

from ..core.runner import AveragedResult
from .paperdata import PaperCell

__all__ = ["ComparisonRow", "Fidelity", "fidelity",
           "format_comparison_table", "ratio", "format_simple_table"]


@dataclasses.dataclass
class ComparisonRow:
    """One table row: our averaged measurement next to the paper's."""

    label: str
    scenario: str
    measured: AveragedResult
    paper: Optional[PaperCell] = None

    def cells(self) -> List[str]:
        out = [
            self.label,
            self.scenario,
            f"{self.measured.packets:8.1f}",
            f"{self.measured.payload_bytes:9.0f}",
            f"{self.measured.elapsed:8.2f}",
            f"{self.measured.percent_overhead:5.1f}",
        ]
        if self.paper is not None:
            out.extend([
                f"{self.paper.packets:8.1f}",
                f"{self.paper.payload_bytes:9.0f}",
                f"{self.paper.seconds:8.2f}",
                f"{self.paper.percent_overhead:5.1f}",
                f"{ratio(self.measured.packets, self.paper.packets):5.2f}",
                f"{ratio(self.measured.elapsed, self.paper.seconds):5.2f}",
            ])
        return out


def ratio(measured: float, reference: float) -> float:
    """measured / reference, guarding against zero references."""
    if reference == 0:
        return float("inf") if measured else 1.0
    return measured / reference


@dataclasses.dataclass(frozen=True)
class Fidelity:
    """How far a set of measured cells sits from the paper's: per
    column, the geometric mean of measured / paper taken either way
    round, minus one (0.0 is a perfect match, 1.0 means the typical
    cell is a factor of two off)."""

    cells: int
    packets: float
    payload_bytes: float
    seconds: float
    outside_2x: int     # cells whose packet count is not within 2x
    worst: str          # the cell and column furthest off, with its ratio


def fidelity(rows: Iterable[ComparisonRow]) -> Fidelity:
    """``exp(mean |ln(measured / paper)|) - 1`` per column, over the
    rows that have a paper cell."""
    rows = [row for row in rows if row.paper is not None]
    ratios = {
        label: [ratio(getattr(row.measured, measured),
                      getattr(row.paper, paper)) for row in rows]
        for label, measured, paper in (
            ("Pa", "packets", "packets"),
            ("Bytes", "payload_bytes", "payload_bytes"),
            ("Sec", "elapsed", "seconds"))}
    errors = [math.exp(statistics.fmean(abs(math.log(r)) for r in column))
              - 1 for column in ratios.values()]
    _, worst, label, row = max(
        ((abs(math.log(r)), r, label, row)
         for label, column in ratios.items()
         for r, row in zip(column, rows)), key=lambda entry: entry[0])
    return Fidelity(
        len(rows), *errors,
        outside_2x=sum(not 0.5 <= r <= 2.0 for r in ratios["Pa"]),
        worst=f"{row.label} {row.scenario} {label} x{worst:.2f}")


_HEADER = ["mode", "scenario", "Pa", "Bytes", "Sec", "%ov",
           "Pa(paper)", "B(paper)", "Sec(paper)", "%ov(p)",
           "Pa ratio", "Sec ratio"]


def format_comparison_table(title: str,
                            rows: Sequence[ComparisonRow]) -> str:
    """Render rows as an aligned text table with the paper columns."""
    table_rows = [row.cells() for row in rows]
    n_cols = max(len(r) for r in table_rows)
    header = _HEADER[:n_cols]
    return format_simple_table(title, header, table_rows)


def format_simple_table(title: str, header: Sequence[str],
                        rows: Iterable[Sequence[str]]) -> str:
    """Align arbitrary string cells under a header, with a title."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in header]
    for row in str_rows:
        for index, cell in enumerate(row):
            if index >= len(widths):
                widths.append(len(cell))
            else:
                widths[index] = max(widths[index], len(cell))

    def fmt(row: Sequence[str]) -> str:
        return "  ".join(str(c).ljust(widths[i])
                         for i, c in enumerate(row)).rstrip()

    lines = [title, "=" * len(title), fmt(header),
             fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)
