"""Layer probes: best-of-N of one public call on fixed inputs.

A probe answers "what does this layer cost per operation?" for a layer
the workloads only show in aggregate; each names the workload whose
wall time it explains.  Probes are not in ``BENCHMARK.json``: they take
~15 s together and are identical whatever the workload, so the pipeline
does not pay for them on every traced run.  ``python -m bench probes``
runs them in one isolated child (see :func:`bench.harness.spawn_child`).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Tuple

from repro.analysis import reproduce_content_experiments
from repro.content import artifacts, build_microscape_site, tokenize
from repro.core import (reset_default_site, run_experiment,
                        warm_default_site)
from repro.fleet import FleetSpec
from repro.http import (Headers, Request, RequestParser, ResponseParser)
from repro.matrix import (ExperimentMatrix, ExperimentSpec, MatrixRunner,
                          ResultCache, RunJournal, run_unit)
from repro.server import APACHE, ResourceStore, build_response
from repro.simnet import LzwEncoder

__all__ = ["PROBES", "probes_child_main"]

#: The cell every ``core.*`` / ``lint.*`` / ``faults.*`` probe anchors on.
_ANCHOR = dict(environment="WAN", profile="Apache")

#: name -> (unit, better, workload it explains).
PROBES: Dict[str, Tuple[str, str, str]] = {
    "content.site_build_cold_s": ("s", "lower", "setup_s (all)"),
    "content.tokenize_html_ms": ("ms", "lower", "fleets"),
    "content.experiments_s": (
        "s", "lower", "paper_grid matrix.replay_wall_s"),
    "http.parse_response_us": ("us", "lower", "fleets"),
    "http.parse_request_us": ("us", "lower", "fleets"),
    "server.build_response_us": (
        "us", "lower", "fleets, fleet_reval_contended most"),
    "simnet.modem.lzw_encode_mb_per_s": ("MB/s", "higher", "paper_grid"),
    "core.cell_wan_ms": ("ms", "lower", "paper_grid"),
    "core.cell_ppp_ms": ("ms", "lower", "paper_grid"),
    "core.cell_lan_reval_ms": ("ms", "lower", "paper_grid"),
    "lint.sanitize_overhead_ratio": ("ratio", "lower", "paper_grid"),
    "faults.cell_bursty_loss_ms": ("ms", "lower", "paper_grid"),
    "matrix.cache_put_us": ("us", "lower", "paper_grid"),
    "matrix.cache_get_us": (
        "us", "lower", "paper_grid matrix.replay_wall_s"),
    "matrix.journal_record_us": ("us", "lower", "paper_grid"),
    "matrix.journal_load_ms": ("ms", "lower", "paper_grid"),
    # The only pool/IPC number; too noisy on 2 shared cores to gate.
    "matrix.jobs2_speedup": ("ratio", "higher", "paper_grid (info)"),
    "fleet.compile_population_ms": ("ms", "lower", "fleets"),
}


def _best(call: Callable[[], Any], repeats: int,
          before: Callable[[], Any] = lambda: None) -> float:
    """Smallest wall time of ``call()`` over ``repeats`` tries."""
    best = float("inf")
    for _ in range(repeats):
        before()
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def _cold_site() -> None:
    artifacts.get_store().clear()
    reset_default_site()


def measure(repeats: int) -> Dict[str, float]:
    """Every probe's value, keyed by name."""
    values: Dict[str, float] = {}
    values["content.site_build_cold_s"] = _best(
        warm_default_site, repeats, before=_cold_site)

    site = build_microscape_site()
    store = ResourceStore.from_site(site)
    html = site.html.body
    html_text = html.decode("latin-1")
    values["content.tokenize_html_ms"] = 1e3 * _best(
        lambda: tokenize(html_text), repeats)
    values["content.experiments_s"] = _best(
        reproduce_content_experiments, repeats)

    request = Request("GET", site.html_url, (1, 1), Headers([
        ("Host", "www26.w3.org"),
        ("User-Agent", "W3CRobot/5.1 libwww/5.1"), ("Accept", "*/*"),
        ("If-None-Match", store.get(site.html_url).etag)]))
    request_bytes = request.to_bytes()
    response_bytes = build_response(store, request, APACHE).to_bytes()

    def parse_response() -> None:
        parser = ResponseParser()
        parser.expect("GET")
        assert len(parser.feed(response_bytes)) == 1

    values["http.parse_response_us"] = 1e6 * _best(parse_response, repeats)
    values["http.parse_request_us"] = 1e6 * _best(
        lambda: RequestParser().feed(request_bytes), repeats)
    values["server.build_response_us"] = 1e6 * _best(
        lambda: build_response(store, request, APACHE), repeats)
    values["simnet.modem.lzw_encode_mb_per_s"] = len(html) / 1e6 / _best(
        lambda: LzwEncoder().encode(html), repeats)

    def cell(mode: str = "pipelined", scenario: str = "first-time",
             **overrides: Any) -> float:
        fields = {**_ANCHOR, **overrides}
        return 1e3 * _best(
            lambda: run_experiment(mode, scenario, **fields), repeats)

    values["core.cell_wan_ms"] = cell()
    values["core.cell_ppp_ms"] = cell(environment="PPP")
    values["core.cell_lan_reval_ms"] = cell(scenario="revalidate",
                                            environment="LAN")
    values["lint.sanitize_overhead_ratio"] = (
        cell(sanitize=True) / values["core.cell_wan_ms"])
    values["faults.cell_bursty_loss_ms"] = cell(faults="bursty-loss")

    spec = ExperimentSpec(mode="pipelined", scenario="first-time",
                          environment="WAN", server="Apache")
    result, _ = run_unit(spec, 0)
    cache = ResultCache("probe-cache")
    values["matrix.cache_put_us"] = 1e6 * _best(
        lambda: cache.put(spec, 0, result), repeats)
    values["matrix.cache_get_us"] = 1e6 * _best(
        lambda: cache.get(spec, 0), repeats)
    journal = RunJournal("probe", root="probe-runs")
    values["matrix.journal_record_us"] = 1e6 * _best(
        lambda: journal.record_result(spec, 0, result), repeats)
    for seed in range(200):
        journal.record_result(spec, seed, result)
    values["matrix.journal_load_ms"] = 1e3 * _best(journal.load, repeats)

    grid = ExperimentMatrix(servers=("Apache",), seeds=(0,)).expand()
    walls = {}
    for jobs in (1, 2):
        with MatrixRunner(jobs=jobs) as runner:
            runner.run_many(grid)  # spawn and warm the pool, untimed
            walls[jobs] = _best(lambda: runner.run_many(grid), repeats)
    values["matrix.jobs2_speedup"] = walls[1] / walls[2]

    fleet = FleetSpec(users=1000, cohorts=16)
    values["fleet.compile_population_ms"] = 1e3 * _best(
        fleet.compile_population, repeats)
    return values


def probes_child_main(args: argparse.Namespace) -> int:
    values = measure(1 if args.quick else 5)
    record = {name: {"value": values[name], "unit": unit,
                     "better": better, "explains": explains}
              for name, (unit, better, explains) in PROBES.items()}
    Path(args.result).write_text(json.dumps(record))
    return 0
