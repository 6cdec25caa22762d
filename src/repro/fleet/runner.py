"""The fleet driver: fixed-point bottleneck sharing across cohorts.

:func:`run_fleet` turns a :class:`~repro.fleet.spec.FleetSpec` into a
batch of cohort units per fixed-point round and runs each batch
through a :class:`~repro.matrix.runner.MatrixRunner` — so cohorts ride
the warm, supervised worker processes, the result cache and the run
journal exactly like table cells do.  Between rounds the parent runs a
purely analytic share exchange: each cohort's measured per-epoch
downlink demand feeds a deterministic max-min water-fill over the
backbone capacity, and the next round re-simulates every cohort under
its new shares.  Cross-cohort interaction therefore never crosses a
process boundary mid-simulation; a 10k-user run is just a grid of
cacheable, journaled units.

Determinism: shares are integer-quantized bits/second computed from
cohort results that are themselves byte-reproducible, and every
aggregation below iterates in (cohort, session) order — so percentiles,
fairness and queueing stats are byte-identical across ``--jobs 1``,
``--jobs N`` and a ``--journal`` replay of a killed run.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

from ..core.runner import UnitFailure, nearest_rank
from ..matrix.runner import MatrixRunner
from .engine import CohortResult, SessionStats
from .spec import FleetSpec, FleetUnitSpec

__all__ = ["FleetResult", "run_fleet"]

#: A cohort using at least this fraction of its granted share is
#: treated as saturated (unbounded demand) in the next water-fill.
_SATURATION = 0.9

#: Headroom multiplier on measured demand, so an under-utilized cohort
#: is never strangled exactly at its last observed rate.
_HEADROOM = 1.25

#: Demand floor as a fraction of the equal split: an epoch with no
#: arrivals yet still reserves enough capacity to start flows.
_MIN_DEMAND_FRACTION = 0.05


def _quantize(share: float) -> float:
    """Integer bits/second, floored at 1 — the cache-key granularity."""
    return float(max(1, int(round(share))))


def _waterfill(capacity: float, demands: List[float]) -> List[float]:
    """Deterministic max-min fair allocation of ``capacity``.

    Bounded demands are granted in full when they fit under the
    current fair share; the remainder splits equally among the still-
    unsatisfied (including infinite-demand) cohorts.
    """
    count = len(demands)
    shares = [0.0] * count
    active = list(range(count))
    remaining = capacity
    while active:
        fair = remaining / len(active)
        bounded = [k for k in active if demands[k] <= fair]
        if not bounded:
            for k in active:
                shares[k] = fair
            break
        for k in bounded:
            shares[k] = demands[k]
            remaining -= demands[k]
        active = [k for k in active if demands[k] > fair]
    return shares


def _rebalance(spec: FleetSpec, shares: List[Tuple[float, ...]],
               results: List[Optional[CohortResult]],
               backbone: float,
               bits_per_byte: float) -> List[Tuple[float, ...]]:
    """Next-round shares from this round's measured demands."""
    n_epochs = spec.n_epochs
    floor = _MIN_DEMAND_FRACTION * backbone / spec.cohorts
    rebalanced: List[List[float]] = []
    for _ in range(spec.cohorts):
        rebalanced.append([0.0] * n_epochs)
    for e in range(n_epochs):
        demands: List[float] = []
        for k in range(spec.cohorts):
            result = results[k]
            if result is None:
                # A quarantined cohort keeps its old share: the grid
                # stays stable and a later resume slots right in.
                demands.append(shares[k][e])
                continue
            measured = (result.epoch_bytes_down[e] * bits_per_byte
                        / spec.epoch)
            if measured >= _SATURATION * shares[k][e]:
                demands.append(math.inf)
            else:
                demands.append(max(measured * _HEADROOM, floor))
        granted = _waterfill(backbone, demands)
        for k in range(spec.cohorts):
            rebalanced[k][e] = _quantize(granted[k])
    return [tuple(row) for row in rebalanced]


@dataclasses.dataclass
class FleetResult:
    """Everything a fleet run measured, in deterministic order."""

    spec: FleetSpec
    #: One entry per cohort (None when every round of it quarantined).
    cohorts: Tuple[Optional[CohortResult], ...]
    failures: Tuple[UnitFailure, ...]
    #: The shares the last simulated round ran under.
    final_shares: Tuple[Tuple[float, ...], ...]

    # ------------------------------------------------------------------
    # Sessions and page times
    # ------------------------------------------------------------------
    @property
    def sessions(self) -> List[SessionStats]:
        """Every simulated session, cohort-major then user order."""
        return [session for result in self.cohorts if result is not None
                for session in result.sessions]

    @property
    def page_times(self) -> List[float]:
        """Completed page-load times in (cohort, session) order."""
        return [elapsed for session in self.sessions
                for elapsed in session.page_times]

    def percentile(self, p: float) -> float:
        """Nearest-rank population percentile of page-load time."""
        return nearest_rank(self.page_times, p)

    @property
    def mean_page_time(self) -> float:
        times = self.page_times
        if not times:
            return float("nan")
        return sum(times) / len(times)

    def per_mode_page_times(self) -> Dict[str, List[float]]:
        """Page times split by protocol mode, in mode-mix order."""
        split: Dict[str, List[float]] = {
            name: [] for name, _ in self.spec.modes}
        for session in self.sessions:
            split[session.mode].extend(session.page_times)
        return split

    # ------------------------------------------------------------------
    # Fairness / errors / queueing
    # ------------------------------------------------------------------
    @property
    def fairness_index(self) -> float:
        """Jain's index over per-session mean page-load times.

        1.0 = perfectly even service; 1/n = one session got
        everything.  Sessions with no completed page are skipped.
        """
        means = [session.mean_page_time for session in self.sessions
                 if session.page_times]
        if not means:
            return float("nan")
        square_of_sum = sum(means) ** 2
        sum_of_squares = sum(mean * mean for mean in means)
        if sum_of_squares == 0.0:
            return 1.0
        return square_of_sum / (len(means) * sum_of_squares)

    @property
    def users_simulated(self) -> int:
        return sum(result.users for result in self.cohorts
                   if result is not None)

    @property
    def errors(self) -> int:
        return sum(result.errors for result in self.cohorts
                   if result is not None)

    @property
    def queue_waits(self) -> List[float]:
        """Server accept-backlog waits, cohort order."""
        return [wait for result in self.cohorts if result is not None
                for wait in result.queue_waits]

    @property
    def server_cpu_seconds(self) -> float:
        return sum(result.server_cpu_seconds for result in self.cohorts
                   if result is not None)


def run_fleet(spec: FleetSpec, *,
              runner: Optional[MatrixRunner] = None) -> FleetResult:
    """Run a whole population and aggregate its tail statistics.

    ``runner`` carries the parallel/cache/journal machinery; when None
    a plain serial runner is built (and closed) here.  Each fixed-point
    round dispatches one unit per cohort; results are byte-identical
    for any job count because cohorts only interact through the
    quantized shares computed between rounds in this parent process.
    """
    owns_runner = runner is None
    if runner is None:
        runner = MatrixRunner()
    try:
        from ..core.registry import resolve_environment
        environment = resolve_environment(spec.environment)
        backbone = spec.backbone_bandwidth()
        n_epochs = spec.n_epochs
        equal = _quantize(backbone / spec.cohorts)
        shares: List[Tuple[float, ...]] = [
            (equal,) * n_epochs for _ in range(spec.cohorts)]
        results: List[Optional[CohortResult]] = [None] * spec.cohorts
        failures: List[UnitFailure] = []
        for round_index in range(spec.rounds):
            units = [FleetUnitSpec(fleet=spec, cohort=k,
                                   shares=shares[k])
                     for k in range(spec.cohorts)]
            cells = runner.run_many(units)
            for k, cell in enumerate(cells):
                if cell.runs:
                    results[k] = cell.runs[0]
                failures.extend(cell.failures)
            if round_index + 1 < spec.rounds:
                shares = _rebalance(spec, shares, results, backbone,
                                    environment.bits_per_byte)
        return FleetResult(spec=spec, cohorts=tuple(results),
                           failures=tuple(failures),
                           final_shares=tuple(shares))
    finally:
        if owns_runner:
            runner.close()
