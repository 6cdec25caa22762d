"""Reproduction drivers: run every experiment, render every table.

Each ``reproduce_*`` function runs one of the paper's tables or
figures end to end and returns both the structured results and a
rendered text table with the paper's numbers alongside.
:func:`generate_experiments_report` strings them all together into the
EXPERIMENTS.md document.

The claims ledger (:mod:`repro.analysis.claims`) shares the spec
builders and future-work helpers: a claim is judged on exactly the
cells and quantities a table prints.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..client.robot import ClientConfig
from ..content import (apply_all_transforms, banner_replacement,
                       build_microscape_site, bytes_for_coverage,
                       change_tag_case, encode_gif, encode_once,
                       encode_png, gif_area_coverage, png_area_coverage)
from ..core.browsers import BROWSERS
from ..core.modes import (HTTP10_MODE, HTTP11_PERSISTENT,
                          HTTP11_PIPELINED,
                          initial_tuning_client_config)
from ..core.registry import (TABLE_CELLS, modes_for_environment,
                             resolve_environment, resolve_mode,
                             resolve_profile)
from ..core.render import RenderMetrics, measure_render
from ..core.runner import MAX_SIM_TIME, AveragedResult
from ..core.scenarios import FIRST_TIME, REVALIDATE
from ..http import (HTTP10, HTTP11, DeltaStreamEncoder, Headers, Request,
                    compression_ratio)
from ..matrix import ExperimentSpec, MatrixRunner
from ..matrix.cache import register_dataclass_codec
from ..server.static import ResourceStore
from .paperdata import (BROWSER_TABLES, CONTENT_NUMBERS, MODEM_TABLE,
                        PROTOCOL_TABLES, TABLE3)
from .tables import (ComparisonRow, format_comparison_table,
                     format_simple_table)

__all__ = [
    "reproduce_protocol_table", "reproduce_table3",
    "reproduce_browser_table", "reproduce_modem_experiment",
    "reproduce_content_experiments", "reproduce_robustness",
    "reproduce_modern_modes",
    "format_fleet_report",
    "generate_experiments_report",
    "TABLE_NUMBERS",
]

#: Paper table number for each (server, environment) pair.
TABLE_NUMBERS: Dict[Tuple[str, str], int] = {
    cell: number for number, cell in TABLE_CELLS.items()}


def _runner(runner: Optional[MatrixRunner]) -> MatrixRunner:
    return runner if runner is not None else MatrixRunner()


def measure_cells(specs: Dict, runner: Optional[MatrixRunner]) -> Dict:
    """``specs`` (label → spec) run as one batch: label → result."""
    return dict(zip(specs, _runner(runner).run_many(list(specs.values()))))


def protocol_table_specs(server_name: str, environment_name: str,
                         runs: int = 5
                         ) -> Dict[Tuple[str, str], ExperimentSpec]:
    """The cells of one of Tables 4–9, keyed (mode, scenario)."""
    return {
        (mode.name, scenario): ExperimentSpec(
            mode=mode.name, scenario=scenario,
            environment=environment_name, server=server_name,
            seeds=tuple(range(runs)))
        for mode in modes_for_environment(environment_name,
                                          paper_only=True)
        for scenario in (FIRST_TIME, REVALIDATE)}


def protocol_table_rows(server_name: str, environment_name: str,
                        measured: Dict[Tuple[str, str], AveragedResult]
                        ) -> List[ComparisonRow]:
    """Measured (mode, scenario) cells next to the paper's."""
    paper = PROTOCOL_TABLES[(server_name, environment_name)]
    return [ComparisonRow(mode, scenario, result,
                          paper.get((mode, scenario)))
            for (mode, scenario), result in measured.items()]


def reproduce_protocol_table(server_name: str, environment_name: str,
                             *, runs: int = 5,
                             runner: Optional[MatrixRunner] = None
                             ) -> Tuple[List[ComparisonRow], str]:
    """Reproduce one of Tables 4–9."""
    rows = protocol_table_rows(server_name, environment_name, measure_cells(
        protocol_table_specs(server_name, environment_name, runs), runner))
    number = TABLE_NUMBERS[(server_name, environment_name)]
    title = (f"Table {number} - {server_name} - {environment_name} "
             f"(mean of {runs} runs)")
    return rows, format_comparison_table(title, rows)


def table3_specs(runs: int = 5) -> Dict[str, ExperimentSpec]:
    """Table 3's pre-tuning LAN revalidation cells, keyed by mode."""
    return {
        mode.name: ExperimentSpec.for_client_config(
            mode, REVALIDATE, "LAN", "Jigsaw-initial",
            initial_tuning_client_config(mode),
            seeds=tuple(range(runs)))
        for mode in (HTTP10_MODE, HTTP11_PERSISTENT, HTTP11_PIPELINED)}


def reproduce_table3(*, runs: int = 5,
                     runner: Optional[MatrixRunner] = None
                     ) -> Tuple[List[dict], str]:
    """Reproduce Table 3: the pre-tuning LAN revalidation comparison."""
    results = [
        {"mode": mode, "measured": result, "paper": TABLE3[mode]}
        for mode, result in measure_cells(table3_specs(runs), runner).items()]
    header = ["mode", "sockets", "c->s", "s->c", "Pa", "Sec",
              "Pa(paper)", "Sec(paper)"]
    table_rows = []
    for entry in results:
        m, p = entry["measured"], entry["paper"]
        table_rows.append([
            entry["mode"], f"{m.connections_used:.0f}",
            f"{m.packets_client_to_server:.0f}",
            f"{m.packets_server_to_client:.0f}",
            f"{m.packets:.0f}", f"{m.elapsed:.2f}",
            f"{p.total_packets}", f"{p.seconds:.2f}"])
    text = format_simple_table(
        f"Table 3 - Jigsaw - initial LAN cache revalidation "
        f"(mean of {runs} runs)", header, table_rows)
    return results, text


def browser_table_specs(server_name: str, runs: int = 3
                        ) -> Dict[Tuple[str, str], ExperimentSpec]:
    """Table 10 / 11's cells, keyed (browser, scenario)."""
    return {
        (browser.name, scenario): ExperimentSpec.for_client_config(
            HTTP10_MODE, scenario, "PPP", server_name,
            browser.client_config(), seeds=tuple(range(runs)))
        for browser in BROWSERS
        for scenario in (FIRST_TIME, REVALIDATE)}


def reproduce_browser_table(server_name: str, *, runs: int = 3,
                            runner: Optional[MatrixRunner] = None
                            ) -> Tuple[List[ComparisonRow], str]:
    """Reproduce Table 10 (Jigsaw) or 11 (Apache): browsers over PPP."""
    paper = BROWSER_TABLES[server_name]
    rows = [
        ComparisonRow(name, scenario, result, paper.get((name, scenario)))
        for (name, scenario), result in measure_cells(
            browser_table_specs(server_name, runs), runner).items()]
    number = 10 if server_name == "Jigsaw" else 11
    title = (f"Table {number} - {server_name} - Navigator and IE, PPP "
             f"(mean of {runs} runs)")
    return rows, format_comparison_table(title, rows)


def modem_specs(runs: int = 5) -> Dict[Tuple[str, str], ExperimentSpec]:
    """§8.2.1's HTML-only GETs, keyed (server, variant)."""
    return {
        (server_name, variant): ExperimentSpec.for_client_config(
            HTTP11_PERSISTENT, FIRST_TIME, "PPP", server_name,
            ClientConfig(pipeline=False,
                         accept_deflate=variant == "compressed",
                         follow_images=False),
            seeds=tuple(range(runs)))
        for server_name in ("Jigsaw", "Apache")
        for variant in ("uncompressed", "compressed")}


def modem_savings(plain: AveragedResult, deflated: AveragedResult
                  ) -> Tuple[float, float]:
    """(packet, time) share deflate saves on the HTML-only GET."""
    return (1 - deflated.packets / plain.packets,
            1 - deflated.elapsed / plain.elapsed)


def reproduce_modem_experiment(*, runs: int = 5,
                               runner: Optional[MatrixRunner] = None
                               ) -> Tuple[List[dict], str]:
    """Reproduce §8.2.1: HTML-only GET over 28.8k, ±deflate."""
    cells = measure_cells(modem_specs(runs), runner)
    results = [
        {"server": server_name, "variant": variant, "measured": measured,
         "paper": MODEM_TABLE[(server_name, variant)]}
        for (server_name, variant), measured in cells.items()]
    header = ["server", "variant", "Pa", "Sec", "Pa(paper)",
              "Sec(paper)"]
    table_rows = [[r["server"], r["variant"],
                   f"{r['measured'].packets:.1f}",
                   f"{r['measured'].elapsed:.2f}",
                   f"{r['paper'][0]:.0f}", f"{r['paper'][1]:.2f}"]
                  for r in results]
    text = format_simple_table(
        f"Modem compression (section 8.2.1, mean of {runs} runs)",
        header, table_rows)
    return results, text + "\n" + _modem_savings(cells)


def _modem_savings(cells: Dict[Tuple[str, str], AveragedResult]) -> str:
    lines = []
    for server_name in ("Jigsaw", "Apache"):
        pa_saving, sec_saving = modem_savings(
            cells[(server_name, "uncompressed")],
            cells[(server_name, "compressed")])
        lines.append(f"{server_name}: saved {pa_saving:.1%} packets, "
                     f"{sec_saving:.1%} time "
                     f"(paper: 68.7% packets, ~64.5% time)")
    return "\n".join(lines)


def reproduce_content_experiments() -> Tuple[dict, str]:
    """Reproduce the content sections: Figure 1, CSS, PNG/MNG, deflate."""
    site = build_microscape_site()
    figure1 = banner_replacement("solutions")
    combined = apply_all_transforms(site)
    png, css = combined.png_report, combined.css_report
    html = site.html.body
    html_text = html.decode("latin-1")
    ratios = {
        mode: compression_ratio(
            change_tag_case(html_text, mode).encode("latin-1"))
        for mode in ("lower", "mixed")}
    results = {
        "site_html_bytes": site.html.size,
        "site_image_bytes": site.total_image_bytes,
        "static_gif_total": png.static_gif_total,
        "static_png_total": png.static_png_total,
        "animation_gif_total": png.animation_gif_total,
        "animation_mng_total": png.animation_mng_total,
        "images_grown": len(png.grew()),
        "figure1_replacement_bytes": figure1.byte_size,
        "css_requests_saved": css.requests_saved,
        "css_net_bytes_saved": css.net_bytes_saved,
        "combined_payload": combined.total_payload,
        "combined_requests": combined.request_count,
        "deflate_ratio_lower": ratios["lower"],
        "deflate_ratio_mixed": ratios["mixed"],
    }
    paper = CONTENT_NUMBERS
    rows = [
        ["HTML bytes", results["site_html_bytes"], paper["html_bytes"]],
        ["image bytes (42 GIFs)", results["site_image_bytes"],
         paper["image_bytes"]],
        ["static GIF total", results["static_gif_total"],
         paper["static_gif_bytes"]],
        ["static PNG total", results["static_png_total"],
         paper["static_png_bytes"]],
        ["animated GIF total", results["animation_gif_total"],
         paper["animation_gif_bytes"]],
        ["MNG total", results["animation_mng_total"],
         paper["animation_mng_bytes"]],
        ["Figure 1 CSS bytes (vs 682 GIF)",
         results["figure1_replacement_bytes"],
         paper["figure1_css_bytes"]],
        ["CSS: requests saved", results["css_requests_saved"], "(many)"],
        ["CSS: net bytes saved", results["css_net_bytes_saved"], "-"],
        ["deflate ratio, lowercase tags",
         f"{results['deflate_ratio_lower']:.2f}",
         paper["deflate_ratio_lowercase"]],
        ["deflate ratio, mixed-case tags",
         f"{results['deflate_ratio_mixed']:.2f}",
         paper["deflate_ratio_mixedcase"]],
        ["combined page payload", results["combined_payload"], "-"],
        ["combined page requests", results["combined_requests"], "-"],
    ]
    text = format_simple_table("Content experiments (CSS1, PNG, MNG)",
                               ["quantity", "measured", "paper"], rows)
    return results, text


def ablation_cell(mode, scenario: str, environment: str,
                  server: str = "Apache", **client_fields
                  ) -> ExperimentSpec:
    """A single-seed cell, ``mode``'s client with ``client_fields`` set:
    the shape of every beyond-the-tables measurement (future work and
    the ledger's ablations)."""
    mode = resolve_mode(mode)
    return ExperimentSpec.for_client_config(
        mode, scenario, environment, server,
        dataclasses.replace(mode.client_config(), **client_fields),
        seeds=(0,))


def compact_revalidation_stream(site) -> Tuple[List[bytes], List[bytes],
                                               DeltaStreamEncoder]:
    """The robot's revalidation requests through the compact encoding:
    (raw request messages, their encoded frames, the encoder)."""
    store = ResourceStore.from_site(site)
    encoder = DeltaStreamEncoder()
    messages = [
        Request("GET", url, (1, 1), Headers([
            ("Host", "www26.w3.org"),
            ("User-Agent", "W3CRobot/5.1 libwww/5.1"),
            ("Accept", "*/*"),
            ("If-None-Match", store.get(url).etag)])).to_bytes()
        for url in site.all_urls()]
    return messages, [encoder.encode(m) for m in messages], encoder


def server_cpu_saving(http10: AveragedResult,
                      pipelined: AveragedResult) -> float:
    """Share of HTTP/1.0's server CPU-busy time pipelining saves."""
    return 1 - pipelined.server_cpu_seconds / http10.server_cpu_seconds


#: The time-to-render strategies compared on the 28.8k PPP link.
RENDER_STRATEGIES: Dict[str, ClientConfig] = {
    "HTTP/1.0 x4 connections": ClientConfig(http_version=HTTP10,
                                            max_connections=4),
    "HTTP/1.1 persistent": ClientConfig(http_version=HTTP11),
    "HTTP/1.1 pipelined": ClientConfig(http_version=HTTP11,
                                       pipeline=True),
    "pipelined + range prefixes": ClientConfig(
        http_version=HTTP11, pipeline=True, range_prefix_bytes=256),
}


@dataclasses.dataclass(frozen=True)
class RenderSpec:
    """One strategy's first-time rendering timeline (Apache, PPP, no
    jitter) as a matrix unit with a :class:`RenderMetrics` result.

    It duck-types the unit surface as
    :class:`~repro.fleet.spec.FleetUnitSpec` does, and lives here
    because :mod:`repro.core` does not import the matrix engine.
    """

    strategy: str
    seeds = (0,)
    runs = 1
    max_sim_time = MAX_SIM_TIME

    def __post_init__(self) -> None:
        if self.strategy not in RENDER_STRATEGIES:
            raise ValueError(f"unknown render strategy {self.strategy!r}")

    @property
    def label(self) -> str:
        return f"render | {self.strategy} | PPP | Apache"

    def canonical_dict(self) -> Dict[str, str]:
        return {"kind": "render", "strategy": self.strategy}

    def execute_unit(self, seed: int) -> RenderMetrics:
        return measure_render(RENDER_STRATEGIES[self.strategy],
                              resolve_environment("PPP"),
                              resolve_profile("Apache"), seed=seed)


register_dataclass_codec("render", RenderMetrics)


def bytes_for_90_percent_area(site, codec: str, *,
                              interlace: bool) -> float:
    """File fraction of Microscape's hero image (its largest) needed
    before 90 % of the display area can paint."""
    hero = next(o for o in site.image_objects
                if o.url.endswith("hero.gif")).image
    encode, coverage = {"gif": (encode_gif, gif_area_coverage),
                        "png": (encode_png, png_area_coverage)}[codec]
    return bytes_for_coverage(
        encode_once(codec, encode, hero, interlace=interlace),
        coverage, 0.9)


def packet_train_ratio(many: AveragedResult, one: AveragedResult) -> float:
    """Mean packets per connection, several connections over one."""
    return (many.mean_packets_per_connection
            / one.mean_packets_per_connection)


def reproduce_future_work(*, runner: Optional[MatrixRunner] = None
                          ) -> Tuple[dict, str]:
    """Quantify the paper's future-work claims (single-seed units, one
    matrix batch).

    * compact wire representation: "an additional factor of five or
      ten" on pipelined revalidation requests,
    * server CPU savings of HTTP/1.1 ("could now be quantified"),
    * time to render over a single connection with range requests,
    * progressive-rendering byte fractions (PNG vs GIF),
    * the two-connection allowance's effect on packet trains.
    """
    site = build_microscape_site()
    http10, pipelined, plain, ranged, two, one = _runner(runner).run_many([
        ablation_cell(HTTP10_MODE, FIRST_TIME, "LAN"),
        ablation_cell(HTTP11_PIPELINED, FIRST_TIME, "LAN"),
        RenderSpec("HTTP/1.1 pipelined"),
        RenderSpec("pipelined + range prefixes"),
        ablation_cell(HTTP11_PIPELINED, FIRST_TIME, "WAN",
                      max_connections=2),
        ablation_cell(HTTP11_PIPELINED, FIRST_TIME, "WAN")])
    results = {
        "compact_http_factor": compact_revalidation_stream(site)[2].ratio,
        "server_cpu_saving": server_cpu_saving(http10, pipelined),
        "layout_plain": plain.runs[0].layout_complete,
        "layout_ranged": ranged.runs[0].layout_complete,
        "gif_interlace_90": bytes_for_90_percent_area(
            site, "gif", interlace=True),
        "png_adam7_90": bytes_for_90_percent_area(
            site, "png", interlace=True),
        "train_ratio": packet_train_ratio(two, one)}
    rows = [
        ["compact HTTP on reval requests",
         f"{results['compact_http_factor']:.1f}x", "5-10x (envelope)"],
        ["server CPU saved by pipelining (first visit)",
         f"{results['server_cpu_saving']:.0%}", '"very substantial"'],
        ["time-to-layout, pipelined (PPP)",
         f"{results['layout_plain']:.1f} s", "-"],
        ["time-to-layout, + range prefixes",
         f"{results['layout_ranged']:.1f} s",
         '"can perform well over a single connection"'],
        ["bytes for 90% area, interlaced GIF",
         f"{results['gif_interlace_90']:.0%}", "-"],
        ["bytes for 90% area, PNG Adam7",
         f"{results['png_adam7_90']:.0%}",
         '"time to render benefits relative to GIF"'],
        ["packet-train length, 2 conns vs 1",
         f"{results['train_ratio']:.2f}x", '"down by a factor of two"']]
    text = format_simple_table(
        "Beyond the tables: the paper's future work, quantified",
        ["quantity", "measured", "paper's words"], rows)
    return results, text


def reproduce_robustness(*, runner: Optional[MatrixRunner] = None
                         ) -> Tuple[List[dict], str]:
    """Pipelined WAN first-time fetches under the fault plans.

    Every row retrieves the full Microscape site byte-identical; the
    columns show what it cost the transport and the robot to get there
    (drops split by cause, TCP repair actions, client retries).  The
    clean row doubles as the zero-fault anchor: all fault counters must
    read zero there.
    """
    plans = (None, "bursty-loss", "wire-chaos", "flaky-server",
             "hostile-server")
    specs = [
        ExperimentSpec(mode=HTTP11_PIPELINED.name, scenario=FIRST_TIME,
                       environment="WAN", server="Apache", seeds=(0,),
                       faults=plan)
        for plan in plans]
    measured = _runner(runner).run_many(specs)
    results = [
        {"plan": plan or "(none)", "measured": result}
        for plan, result in zip(plans, measured)]
    header = ["fault plan", "Sec", "retries", "lost", "ovfl", "retx",
              "RTO", "fastrtx", "cksum"]
    rows = [[r["plan"], f"{r['measured'].elapsed:.2f}",
             f"{r['measured'].retries:.0f}",
             f"{r['measured'].dropped_loss:.0f}",
             f"{r['measured'].dropped_overflow:.0f}",
             f"{r['measured'].retransmissions:.0f}",
             f"{r['measured'].timeouts:.0f}",
             f"{r['measured'].fast_retransmits:.0f}",
             f"{r['measured'].checksum_drops:.0f}"]
            for r in results]
    text = format_simple_table(
        "Robustness: pipelined WAN fetches under injected faults "
        "(all byte-identical)", header, rows)
    return results, text


def reproduce_modern_modes(*, runs: int = 3,
                           runner: Optional[MatrixRunner] = None
                           ) -> Tuple[List[dict], str]:
    """Every registered mode — the paper's four plus the post-paper
    transports — on a first-time Apache fetch across LAN/WAN/PPP.

    This is the "would HTTP/2 have beaten pipelining on the 1997
    Microscape site?" table: multiplexed streams, server push and
    domain sharding measured with exactly the paper's content,
    methodology and environments.  The headline number is the
    MUX-vs-pipelined elapsed ratio on each environment.
    """
    environments = ("LAN", "WAN", "PPP")
    labelled = [
        (environment, mode.name,
         ExperimentSpec(mode=mode.name, scenario=FIRST_TIME,
                        environment=environment, server="Apache",
                        seeds=tuple(range(runs))))
        for environment in environments
        for mode in modes_for_environment(environment)]
    measured = _runner(runner).run_many([s for _, _, s in labelled])
    results = [
        {"environment": environment, "mode": mode, "measured": result}
        for (environment, mode, _), result in zip(labelled, measured)]
    header = ["env", "mode", "conns", "Pa", "c->s", "s->c", "%ov",
              "Sec"]
    rows = [[r["environment"], r["mode"],
             f"{r['measured'].connections_used:.0f}",
             f"{r['measured'].packets:.0f}",
             f"{r['measured'].packets_client_to_server:.0f}",
             f"{r['measured'].packets_server_to_client:.0f}",
             f"{r['measured'].percent_overhead:.1f}",
             f"{r['measured'].elapsed:.2f}"]
            for r in results]
    by_cell = {(r["environment"], r["mode"]): r["measured"]
               for r in results}
    headlines = []
    for environment in environments:
        mux = by_cell[(environment, "HTTP/MUX")]
        pipelined = by_cell[(environment, "HTTP/1.1 Pipelined")]
        ratio = mux.elapsed / pipelined.elapsed
        headlines.append(
            f"{environment}: MUX runs at {ratio:.2f}x pipelined's "
            f"elapsed time ({mux.elapsed:.2f}s vs "
            f"{pipelined.elapsed:.2f}s)")
    text = format_simple_table(
        f"Modern protocol modes - Apache, first-time fetch "
        f"(mean of {runs} runs)", header, rows)
    return results, text + "\n" + "\n".join(headlines)


def format_fleet_report(result) -> str:
    """Render a fleet run's tail-latency / fairness / queueing section.

    ``result`` is a :class:`~repro.fleet.runner.FleetResult`.  The
    section leads with nearest-rank page-load percentiles (overall and
    per protocol mode), then the Jain fairness index over per-session
    means, then the server's accept-backlog queueing record — the three
    population-scale views a single-robot table cannot show.
    """
    from ..core.runner import nearest_rank
    spec = result.spec
    lines: List[str] = []
    lines.append(f"Fleet population: {spec.users} users in "
                 f"{spec.cohorts} cohorts on {spec.environment}, "
                 f"scenario {spec.scenario}, seed {spec.seed}")
    capacity = ("unbounded" if spec.server_capacity is None
                else str(spec.server_capacity))
    lines.append(f"  Poisson arrivals {spec.arrival_rate:g}/s, "
                 f"{spec.pages_per_user} pages/user, mean think "
                 f"{spec.think_time:g} s, server capacity {capacity} "
                 f"concurrent, {spec.rounds} fixed-point round(s)")
    lines.append("")
    lines.append("Page-load time (s), nearest-rank percentiles:")
    lines.append(f"  {'mode':34s} {'pages':>6s} {'p50':>8s} "
                 f"{'p95':>8s} {'p99':>8s} {'mean':>8s}")

    def _row(label: str, times: List[float]) -> str:
        mean = sum(times) / len(times) if times else float("nan")
        return (f"  {label:34s} {len(times):6d} "
                f"{nearest_rank(times, 50):8.3f} "
                f"{nearest_rank(times, 95):8.3f} "
                f"{nearest_rank(times, 99):8.3f} {mean:8.3f}")

    lines.append(_row("ALL", result.page_times))
    for mode_name, times in result.per_mode_page_times().items():
        lines.append(_row(mode_name, times))
    lines.append("")
    lines.append(f"Fairness (Jain's index over per-session mean PLT): "
                 f"{result.fairness_index:.4f}")
    errors = result.errors
    lines.append(f"Sessions simulated: {result.users_simulated} "
                 f"({errors} page error(s))")
    waits = result.queue_waits
    accepted = sum(cohort.connections_accepted
                   for cohort in result.cohorts if cohort is not None)
    if waits:
        lines.append(
            f"Server queueing: {len(waits)}/{accepted} connections "
            f"parked; wait mean {sum(waits) / len(waits):.3f} s, "
            f"p95 {nearest_rank(waits, 95):.3f} s, "
            f"max {max(waits):.3f} s")
    else:
        lines.append(f"Server queueing: 0/{accepted} connections "
                     f"parked (capacity never filled)")
    lines.append(f"Server CPU busy: {result.server_cpu_seconds:.2f} s "
                 f"simulated")
    if result.failures:
        lines.append(f"Quarantined cohort units: "
                     f"{len(result.failures)} (excluded from all "
                     f"statistics above)")
    return "\n".join(lines)


def generate_experiments_report(*, runs: int = 5,
                                browser_runs: int = 3,
                                runner: Optional[MatrixRunner] = None
                                ) -> str:
    """Render the full paper-vs-measured report (EXPERIMENTS.md body).

    A shared ``runner`` threads one :class:`MatrixRunner` (its worker
    processes, cache and statistics) through every section.
    """
    run = _runner(runner)
    sections: List[str] = []
    _, table3 = reproduce_table3(runs=runs, runner=run)
    sections.append(table3)
    for server_name in ("Jigsaw", "Apache"):
        for environment_name in ("LAN", "WAN", "PPP"):
            _, text = reproduce_protocol_table(server_name,
                                               environment_name,
                                               runs=runs, runner=run)
            sections.append(text)
    for server_name in ("Jigsaw", "Apache"):
        _, text = reproduce_browser_table(server_name,
                                          runs=browser_runs, runner=run)
        sections.append(text)
    _, modem = reproduce_modem_experiment(runs=runs, runner=run)
    sections.append(modem)
    _, content = reproduce_content_experiments()
    sections.append(content)
    _, future = reproduce_future_work(runner=run)
    sections.append(future)
    _, robustness = reproduce_robustness(runner=run)
    sections.append(robustness)
    _, modern = reproduce_modern_modes(runs=min(runs, 3), runner=run)
    sections.append(modern)
    return "\n\n".join(sections)
