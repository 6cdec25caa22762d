"""The four workloads, written against ``repro``'s public surface only.

Each workload is a class with ``prepare(ctx)`` (untimed, part of set-up)
and ``run_pass(ctx)`` returning a :class:`PassOutcome`.  Inside a pass,
``ctx.timed(name)`` marks the *timed body* — the span that counts
toward ``wall_s`` / ``cpu_s`` and that the sampler observes — while
``ctx.span(name)`` marks checking legs (replay, off-leg) that are timed
on their own and never mixed into the end-to-end numbers.

Passes repeat identical inputs, so ``digest`` (sha256 of the simulated
outputs) must be equal across the passes of a run; the harness enforces
it.  ``--quick`` shrinks every workload to a smoke-test size.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import itertools
import json
import math
import statistics
import tempfile
from typing import Any, Dict, List, Tuple

from repro.analysis import (generate_experiments_report,
                            reproduce_protocol_table)
from repro.fleet import FleetResult, FleetSpec, run_fleet
from repro.matrix import MatrixRunner, MatrixStats, ResultCache
from repro.simnet import ENVIRONMENTS, SERVER_HOST, TwoHostNetwork

__all__ = ["PassOutcome", "WORKLOAD_CLASSES"]

KB = 1024
MB = 1024 * KB


@dataclasses.dataclass
class PassOutcome:
    """What one pass produced, besides the times the context recorded."""

    #: sha256 hex of the pass's simulated outputs.
    digest: str
    #: Operations attempted / failed (units, pages, transfers).
    attempted: int
    failed: int
    #: Work units in the timed body, the numerator of ``units_per_min``.
    units: int
    #: Per-layer counters and host-time figures, by metric name.
    counters: Dict[str, float]
    #: Correctness violations, in words (empty when the pass is sound).
    problems: List[str] = dataclasses.field(default_factory=list)


class _Workload:
    """``prepare(ctx)`` runs once, untimed, inside the set-up span."""

    def prepare(self, ctx: Any) -> None:
        pass


def _percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile (0.0 on an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(p / 100.0 * len(ordered))))
    return ordered[rank - 1]


def _matrix_counters(stats: MatrixStats) -> Dict[str, float]:
    walls = [wall * 1000.0 for wall in stats.unit_wall_times.values()]
    return {
        "matrix.units": stats.units,
        "matrix.cells": stats.specs,
        "matrix.sim_runs": stats.sim_runs,
        "matrix.artifact_hits": stats.artifact_hits,
        "matrix.artifact_misses": stats.artifact_misses,
        "matrix.unit_retries": stats.unit_retries,
        "matrix.unit_wall_ms_p50": _percentile(walls, 50),
        "matrix.unit_wall_ms_p95": _percentile(walls, 95),
    }


# ----------------------------------------------------------------------
# paper_grid
# ----------------------------------------------------------------------

#: Tables 4-9, in the order the report prints them.
_PROTOCOL_TABLES = tuple((server, environment)
                         for server in ("Jigsaw", "Apache")
                         for environment in ("LAN", "WAN", "PPP"))


def _gmean_err(ratios: List[float]) -> float:
    """exp(mean |ln ratio|) - 1: 0.0 is a perfect match, 1.0 is 2x off."""
    return math.exp(statistics.fmean(abs(math.log(r)) for r in ratios)) - 1


class PaperGrid(_Workload):
    """The full ``python -m repro report`` on a cold result cache.

    The paper's grid is fixed, so this workload ignores ``--seed`` (each
    cell always runs seeds 0..4, as the paper averaged five runs).  The
    first pass also replays Tables 4-9 from the now-warm cache (20 ms):
    each must appear verbatim in the cold report — the cold == replay
    check — and their rows give the fidelity figures.  The traced pass
    replays the whole report too, for ``matrix.replay_wall_s``; untraced
    runs skip that, as it would cost a 20 s run a quarter of a pass.
    """

    def __init__(self, seed: int, quick: bool) -> None:
        self.quick = quick
        self.runs = 1 if quick else 5
        self.tables = _PROTOCOL_TABLES[:1] if quick else _PROTOCOL_TABLES
        self._fidelity: Dict[str, float] = {}

    def _report(self, runner: MatrixRunner) -> str:
        if self.quick:
            server, environment = self.tables[0]
            return reproduce_protocol_table(server, environment,
                                            runs=self.runs,
                                            runner=runner)[1]
        return generate_experiments_report(runs=self.runs, browser_runs=3,
                                           runner=runner)

    def run_pass(self, ctx: Any) -> PassOutcome:
        cache_dir = tempfile.mkdtemp(prefix="result-cache-", dir=".")
        runner = MatrixRunner(jobs=1, cache=ResultCache(cache_dir))
        with ctx.timed("report_cold"):
            text = self._report(runner)
        stats = runner.stats
        counters = _matrix_counters(stats)
        outcome = PassOutcome(
            digest=hashlib.sha256(text.encode()).hexdigest(),
            attempted=stats.units, failed=stats.failures,
            units=stats.units, counters=counters)
        if not self._fidelity:
            self._fidelity = self._tables_replay(ctx, runner, text,
                                                 outcome)
        counters.update(self._fidelity)
        if ctx.traced:
            units, hits = stats.units, stats.cache_hits
            with ctx.span("report_replay") as span:
                replay_text = self._report(runner)
            if replay_text != text:
                outcome.problems.append(
                    "report replayed from the warm cache differs")
            replay_wall = ctx.corrected(span)
            counters.update({
                "matrix.cache_hits_replay": stats.cache_hits - hits,
                "matrix.replay_wall_s": replay_wall,
                "matrix.replay_units_per_s":
                    (stats.units - units) / replay_wall,
            })
        return outcome

    def _tables_replay(self, ctx: Any, runner: MatrixRunner,
                       cold_text: str, outcome: PassOutcome
                       ) -> Dict[str, float]:
        rows = []
        with ctx.span("tables_replay"):
            for server, environment in self.tables:
                table_rows, table_text = reproduce_protocol_table(
                    server, environment, runs=self.runs, runner=runner)
                if table_text not in cold_text:
                    outcome.problems.append(
                        f"{server} {environment} table replayed from "
                        f"the warm cache is not in the cold report")
                rows += [row for row in table_rows
                         if row.paper is not None]
        packets = [row.measured.packets / row.paper.packets
                   for row in rows]
        return {
            "analysis.fidelity_packets_gmean_err": _gmean_err(packets),
            "analysis.fidelity_bytes_gmean_err": _gmean_err(
                [row.measured.payload_bytes / row.paper.payload_bytes
                 for row in rows]),
            "analysis.fidelity_seconds_gmean_err": _gmean_err(
                [row.measured.elapsed / row.paper.seconds
                 for row in rows]),
            "analysis.cells_outside_2x": sum(
                1 for ratio in packets if not 0.5 <= ratio <= 2.0),
            "simnet.link.packets": round(sum(
                row.measured.packets * len(row.measured.runs)
                for row in rows)),
        }


# ----------------------------------------------------------------------
# fleets
# ----------------------------------------------------------------------

class _Fleet(_Workload):
    """One ``run_fleet`` call per pass on the population ``--seed`` picks.

    ``FleetSpec`` draws each user's protocol mode at random, and an
    HTTP/1.0 user costs ten times the connections of a pipelined one, so
    over plain seeds the same spec's work varies by +-15 % (120 users)
    — seed noise no bound could tell from a regression.  The benchmark
    therefore takes the first seed at or after ``seed * 10**6`` whose
    compiled population has exactly the mix's expected mode counts:
    arrivals, think times, cohort assignment and jitter still vary with
    the seed, connections and requests do not.
    """

    #: FleetSpec fields at full and at ``--quick`` scale.
    spec_fields: Dict[str, Any] = {}
    quick_fields: Dict[str, Any] = {}

    def __init__(self, seed: int, quick: bool) -> None:
        fields = dict(self.spec_fields)
        if quick:
            fields.update(self.quick_fields)
        spec = FleetSpec(**fields)
        total = sum(weight for _, weight in spec.modes)
        expected = {name: round(spec.users * weight / total)
                    for name, weight in spec.modes}
        if sum(expected.values()) != spec.users:
            raise ValueError(f"{spec.users} users do not split evenly "
                             f"over the mode mix {spec.modes}")
        for candidate in itertools.count(seed * 10**6):
            spec = spec.replace(seed=candidate)
            modes = collections.Counter(
                plan.mode for plan in spec.compile_population())
            if modes == expected:
                break
        self.spec = spec

    def run_pass(self, ctx: Any) -> PassOutcome:
        with MatrixRunner(jobs=1) as runner:
            with ctx.timed("run_fleet"):
                result = run_fleet(self.spec, runner=runner)
            counters = _matrix_counters(runner.stats)
        counters.update(_fleet_counters(result))
        pages = sorted(result.page_times)
        expected = self.spec.users * self.spec.pages_per_user
        outcome = PassOutcome(
            digest=hashlib.sha256(json.dumps(
                [pages, sorted(result.queue_waits)]).encode()).hexdigest(),
            attempted=expected, failed=expected - len(pages),
            units=self.spec.users, counters=counters)
        if result.failures:
            outcome.problems.append(
                f"{len(result.failures)} cohort unit(s) quarantined")
        return outcome


def _fleet_counters(result: FleetResult) -> Dict[str, float]:
    cohorts = [cohort for cohort in result.cohorts if cohort is not None]
    waits = result.queue_waits
    return {
        "fleet.pages_completed": len(result.page_times),
        "fleet.session_errors": result.errors,
        "fleet.page_time_p50_sim_s": result.percentile(50),
        "fleet.page_time_p95_sim_s": result.percentile(95),
        "fleet.page_time_p99_sim_s": result.percentile(99),
        "fleet.fairness": result.fairness_index,
        "server.queued_connections": len(waits),
        "server.queue_wait_p95_sim_s": _percentile(waits, 95),
        "server.cpu_busy_sim_s": result.server_cpu_seconds,
        "server.connections_accepted": sum(
            cohort.connections_accepted for cohort in cohorts),
        "server.requests_served": sum(
            cohort.requests_served for cohort in cohorts),
        "simnet.link.packets": sum(cohort.packets for cohort in cohorts),
        "simnet.fastforward.spans": sum(
            cohort.fastforward_spans for cohort in cohorts),
    }


class FleetWan(_Fleet):
    """BENCH_simnet.json's 1000-user headline population at quarter scale.

    Same per-cohort load as the legacy record (62.5 users and
    2.8 Mbit/s of backbone per cohort, 0.625 arrivals/s per cohort), a
    quarter of the cohorts, so a pass takes seconds instead of a
    quarter minute and a run fits several.
    """

    spec_fields = dict(users=250, cohorts=4, environment="WAN",
                       arrival_rate=2.5, think_time=0.0, pages_per_user=1,
                       rounds=1, max_sim_time=300.0, backbone_bps=11.25e6)
    quick_fields = dict(users=24, cohorts=2)


class FleetRevalContended(_Fleet):
    """Revalidation (304s) against a saturated server and bottleneck."""

    spec_fields = dict(users=120, cohorts=2, environment="WAN",
                       scenario="revalidate", arrival_rate=4.0,
                       think_time=1.0, pages_per_user=2,
                       server_capacity=16, backbone_bps=1.5e6, epoch=10.0,
                       rounds=2, max_sim_time=300.0)
    quick_fields = dict(users=16)


# ----------------------------------------------------------------------
# bulk_kernel
# ----------------------------------------------------------------------

_LARGE = (64 * KB, 256 * KB, 1 * MB, 4 * MB)
#: (environment, transfer sizes).  Nothing above 4 MB: an 8 MB transfer
#: swings between 20 and 160 ms in a small sandbox (the allocator, not
#: the simulator) and would be half the on-leg wall.  The 64 KB cells
#: sit near the fast-forward profitability threshold.
_BULK_CELLS: Tuple[Tuple[str, Tuple[int, ...]], ...] = (
    ("LAN", _LARGE), ("WAN", _LARGE),
    ("PPP", (64 * KB, 256 * KB, 1 * MB, 2 * MB)))


class BulkKernel(_Workload):
    """Raw transfers over ``TwoHostNetwork``: server streams, client sinks.

    On-leg: every cell for ``--seed``..``--seed + 31`` at the default
    ``fastpath=True`` — the timed body.  Off-leg: the first four seeds
    again with ``fastpath=False``, timed separately, each trace compared
    byte-for-byte with its on-leg twin.
    """

    def __init__(self, seed: int, quick: bool) -> None:
        self.seeds = range(seed, seed + (2 if quick else 32))
        self.shared_seeds = self.seeds[:1 if quick else 4]
        self.body = b""

    def prepare(self, ctx: Any) -> None:
        # One buffer for every transfer: allocating 8 MB per transfer
        # inside the timed body would measure the allocator.
        self.body = bytes(range(256)) * (max(_LARGE) // 256)
        # The allocator serves a process's first multi-megabyte buffers
        # by mmap and only then adapts; one untimed transfer per cell
        # takes it to steady state, or the first pass runs ~1.7x slow.
        for environment, sizes in _BULK_CELLS:
            for size in sizes:
                self._transfer(ctx, environment, size, self.seeds[0],
                               fastpath=True)

    def _transfer(self, ctx: Any, environment: str, size: int, seed: int,
                  fastpath: bool) -> Tuple[TwoHostNetwork, float, bool]:
        """One transfer: the finished network, its wall, all bytes in?"""
        body = self.body[:size]

        def on_accept(conn: Any) -> None:
            conn.on_connect = lambda c: c.send(body, close=True)

        mark = ctx.timed if fastpath else ctx.span
        with mark("transfer", environment=environment, size=size,
                  seed=seed, leg="on" if fastpath else "off") as span:
            net = TwoHostNetwork(ENVIRONMENTS[environment], seed=seed,
                                 jitter=0.02, modem_compression=False,
                                 fastpath=fastpath)
            net.server.listen(80, on_accept)
            client = net.client.connect(SERVER_HOST, 80)
            net.run()
        return net, ctx.corrected(span), client.bytes_received == size

    def run_pass(self, ctx: Any) -> PassOutcome:
        digest = hashlib.sha256()
        transfers = failed = packets = events = heap_peak = 0
        spans = synthesized = declined = 0
        on_wall_shared = off_wall = 0.0
        off_transfers = off_events = off_packets = 0
        for seed in self.seeds:
            for environment, sizes in _BULK_CELLS:
                for size in sizes:
                    net, wall, complete = self._transfer(
                        ctx, environment, size, seed, fastpath=True)
                    transfers += 1
                    failed += not complete
                    perf, summary = net.sim.perf, net.trace.summary()
                    digest.update(
                        f"{environment} {size} {seed} {summary.packets} "
                        f"{summary.payload_bytes} {summary.duration!r}\n"
                        .encode())
                    packets += summary.packets
                    events += perf.events_processed
                    heap_peak = max(heap_peak, perf.heap_peak)
                    spans += perf.fastforward_spans
                    synthesized += perf.segments_synthesized
                    declined += perf.fastforward_spans == 0
                    if seed not in self.shared_seeds:
                        continue
                    digest.update(net.trace.format_trace().encode())
                    off, off_leg_wall, complete = self._transfer(
                        ctx, environment, size, seed, fastpath=False)
                    off_transfers += 1
                    failed += not (complete and
                                   off.trace.records == net.trace.records)
                    on_wall_shared += wall
                    off_wall += off_leg_wall
                    off_events += off.sim.perf.events_processed
                    off_packets += len(off.trace)
        outcome = PassOutcome(
            digest=digest.hexdigest(),
            attempted=transfers + off_transfers, failed=failed,
            units=transfers,
            counters={
                "simnet.link.packets": packets,
                "simnet.engine.events_processed": events,
                "simnet.engine.heap_peak": heap_peak,
                "simnet.fastforward.spans": spans,
                "simnet.fastforward.segments_synthesized": synthesized,
                "simnet.fastforward.declined_transfers": declined,
                "simnet.per_segment.wall_s": off_wall,
                "simnet.per_segment.events_per_s": off_events / off_wall,
                "simnet.per_segment.us_per_packet":
                    off_wall / off_packets * 1e6,
                "simnet.fastforward.speedup": off_wall / on_wall_shared,
            })
        if failed:
            outcome.problems.append(
                f"{failed} transfer(s) truncated or diverged between "
                f"fastpath on and off")
        return outcome


WORKLOAD_CLASSES = {
    "paper_grid": PaperGrid,
    "fleet_wan": FleetWan,
    "fleet_reval_contended": FleetRevalContended,
    "bulk_kernel": BulkKernel,
}
