"""The benchmark's catalogue: workloads, metrics, units, directions, bounds.

Single source of truth for ``BENCHMARK.json`` (:func:`manifest` renders
it; ``bench/tests`` asserts the committed file matches) and for every
name the harness may emit — a workload reporting a metric that is not
listed here is a bug, caught by :func:`bench.harness.finish_metrics`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

#: Seconds one driver-invoked run spends in its timed passes.
RUN_SECONDS = 20

#: Cold site builds timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: (name, why) — one line each, copied verbatim into BENCHMARK.json.
WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("paper_grid",
     "python -m repro report over the paper's fixed grid, cold cache: the "
     "only workload where simnet.modem, content encoders, analysis and "
     "the matrix harness carry weight"),
    ("fleet_wan",
     "first-time fetches by 250 users on 4 cohort simulators, uncontended:"
     " http/content/client re-parse identical bytes per session on top of"
     " the simnet.tcp/engine per-packet path"),
    ("fleet_reval_contended",
     "120 revalidating users behind a saturated accept gate and 1.5 Mbit/s"
     " bottleneck, 2 share rounds: smallest messages, so per-request and "
     "queueing costs dominate"),
    ("bulk_kernel",
     "raw 64 KB-4 MB transfers on LAN/WAN/PPP with no application layer: "
     "simnet.fastforward does the work on-leg and none off-leg, so kernel"
     " and veto changes show here only"),
)


@dataclasses.dataclass(frozen=True)
class Metric:
    """One named number the benchmark emits."""

    name: str
    unit: str
    #: ``"lower"`` or ``"higher"``.
    better: str
    #: End-to-end only: share of the parent's median by which the metric
    #: may worsen before ``compare`` (and the driver) call it a regression.
    bound: Optional[float] = None
    #: Deterministic for a given commit, seed and scale: ``compare``
    #: checks these for exact equality instead of a ratio.
    exact: bool = False


#: What a user of the system waits on or pays for, on every workload.
#: All seconds are host-corrected (:mod:`bench.hostspeed`).  The bounds
#: are about three times the widest spread (IQR / median over ten seeds)
#: seen in this sandbox after correction: 5 % for the timings, 7 % for
#: set-up, 12 % for RSS (the same report peaks at 47, 51 or 55 MB).
END_TO_END: Tuple[Metric, ...] = (
    # Median over a run's passes of the pass's timed body.
    Metric("wall_s", "s", "lower", bound=0.15),
    # process_time over the same window.
    Metric("cpu_s", "s", "lower", bound=0.15),
    # Work units per minute of timed body: matrix units (paper_grid),
    # users (fleets), transfers (bulk_kernel).
    Metric("units_per_min", "1/min", "higher", bound=0.15),
    # The workload process's ru_maxrss.
    Metric("peak_rss_mb", "MB", "lower", bound=0.25),
    # Median of SETUP_REPEATS cold site builds against an empty
    # artifact store.
    Metric("setup_s", "s", "lower", bound=0.25),
)

#: The sampler's fixed layer map (see :mod:`bench.tracing`): files under
#: ``repro/simnet/`` split by module, every other package is one layer.
SIMNET_MODULES = ("engine", "link", "tcp", "trace", "fastforward", "modem")
PACKAGE_LAYERS = ("http", "content", "server", "client", "core", "matrix",
                  "fleet", "faults", "analysis", "lint")
LAYERS: Tuple[str, ...] = (
    tuple(f"simnet.{module}" for module in SIMNET_MODULES)
    + ("simnet.other",) + PACKAGE_LAYERS
    # Files directly under repro/ (perf.py counters); and samples whose
    # innermost project frame is the benchmark's own.
    + ("other", "bench"))

_SAMPLED: Tuple[Metric, ...] = (
    tuple(Metric(f"{layer}.self_s", "s", "lower") for layer in LAYERS)
    + (Metric("trace.samples", "count", "higher"),
       Metric("trace.overhead_ratio", "ratio", "lower")))


def _count(name: str, better: str = "lower") -> Metric:
    return Metric(name, "count", better, exact=True)


#: Public counters and host-time figures read off the workloads' results.
#: A metric that does not apply to a workload reads 0 there.
_COUNTERS: Tuple[Metric, ...] = (
    # matrix harness (paper_grid; on fleets a unit is one cohort round)
    _count("matrix.units"),
    _count("matrix.cells"),
    _count("matrix.sim_runs"),
    _count("matrix.cache_hits_replay", "higher"),
    _count("matrix.artifact_hits", "higher"),
    _count("matrix.artifact_misses"),
    _count("matrix.unit_retries"),
    Metric("matrix.unit_wall_ms_p50", "ms", "lower"),
    Metric("matrix.unit_wall_ms_p95", "ms", "lower"),
    Metric("matrix.replay_wall_s", "s", "lower"),
    Metric("matrix.replay_units_per_s", "1/s", "higher"),
    # fidelity of Tables 4-9 against analysis.PROTOCOL_TABLES
    Metric("analysis.fidelity_packets_gmean_err", "ratio", "lower",
           exact=True),
    Metric("analysis.fidelity_bytes_gmean_err", "ratio", "lower",
           exact=True),
    Metric("analysis.fidelity_seconds_gmean_err", "ratio", "lower",
           exact=True),
    _count("analysis.cells_outside_2x"),
    # fleets: simulated outcomes (*_sim_s are simulated seconds)
    _count("fleet.pages_completed", "higher"),
    _count("fleet.session_errors"),
    Metric("fleet.page_time_p50_sim_s", "s", "lower", exact=True),
    Metric("fleet.page_time_p95_sim_s", "s", "lower", exact=True),
    Metric("fleet.page_time_p99_sim_s", "s", "lower", exact=True),
    Metric("fleet.fairness", "ratio", "higher", exact=True),
    _count("server.queued_connections"),
    Metric("server.queue_wait_p95_sim_s", "s", "lower", exact=True),
    Metric("server.cpu_busy_sim_s", "s", "lower", exact=True),
    _count("server.connections_accepted"),
    _count("server.requests_served"),
    # simulator kernel
    _count("simnet.link.packets"),
    _count("simnet.fastforward.spans", "higher"),
    _count("simnet.fastforward.segments_synthesized", "higher"),
    _count("simnet.fastforward.declined_transfers"),
    _count("simnet.engine.events_processed"),
    _count("simnet.engine.heap_peak"),
    # bulk_kernel off-leg (fastpath=False) on the shared seeds
    Metric("simnet.per_segment.wall_s", "s", "lower"),
    Metric("simnet.per_segment.events_per_s", "1/s", "higher"),
    Metric("simnet.per_segment.us_per_packet", "us", "lower"),
    Metric("simnet.fastforward.speedup", "ratio", "higher"),
)

#: The host: uncorrected seconds of the timed body, and the median time
#: of the reference kernel the corrections are made with.
_HOST: Tuple[Metric, ...] = (
    Metric("host.wall_raw_s", "s", "lower"),
    Metric("host.ref_kernel_ms", "ms", "lower"),
)

PER_LAYER: Tuple[Metric, ...] = _SAMPLED + _COUNTERS + _HOST

#: The counters every workload's passes report (0 where not applicable).
COUNTER_NAMES = frozenset(metric.name for metric in _COUNTERS)

BY_NAME: Dict[str, Metric] = {
    metric.name: metric for metric in END_TO_END + PER_LAYER}


def manifest() -> Dict[str, object]:
    """The exact content of ``BENCHMARK.json``."""
    end_to_end: List[Dict[str, object]] = [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in END_TO_END]
    per_layer = [{"name": m.name, "unit": m.unit, "better": m.better}
                 for m in PER_LAYER]
    return {
        "command": ["bash", "bench/run.sh"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
