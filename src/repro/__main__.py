"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table N``
    Reproduce one of the paper's tables (3–11) and print it next to the
    published numbers.
``run``
    Run a single experiment cell with explicit mode / scenario /
    environment / server: one protocol-checked matrix unit.
``modem``
    The §8.2.1 modem-compression comparison.
``content``
    The CSS1 / PNG / MNG / deflate content experiments.
``site``
    Print the synthetic Microscape site inventory.
``report``
    Regenerate the full paper-vs-measured report (EXPERIMENTS.md body).
``claims``
    Evaluate the claims ledger — every paper claim and ablation, each
    with its measured value, bound and verdict — then the fidelity
    score against the paper's Tables 4–9; exit 0 iff every row passes.
``fleet``
    Population-scale runs: cohorts of robot sessions contending for a
    shared bottleneck and a finite-capacity server, with nearest-rank
    tail percentiles, Jain fairness and server-queueing stats
    (byte-identical across ``--jobs`` counts and journal replays).
``chaos``
    Sweep the deterministic fault-injection grid (fault plans × modes ×
    environments) and assert every run still retrieves the full site
    byte-identical within the retry budget.
``lint``
    Run the determinism linter over the source tree (``--deep`` adds
    the whole-program passes).  The TCP protocol check is not a verb:
    every simulated unit ends with it.

``table``, ``modem``, ``report``, ``claims``, ``fleet`` and ``chaos``
all run their units on one :class:`~repro.matrix.runner.MatrixRunner`
and share its flags (:mod:`repro.matrix.cli`): ``--jobs N`` (parallel
worker processes), ``--cache`` (reuse results from ``.repro-cache/``)
and ``--cache-dir PATH``.  The environment variable
``REPRO_ARTIFACT_CACHE=0`` disables the content-addressed encode memo
under ``.repro-cache/artifacts/`` for every verb.  Host-time
measurement is not a verb here: ``bash bench/run.sh`` is the repo's
one benchmark.

Supervised execution (the same six verbs): a failing unit is retried
a fixed number of times before it is quarantined,
``--unit-deadline S`` (> 0) bounds a unit's wall-clock time in a
worker (a slower host needs more), and
``--journal [RUN_ID]`` records every resolved unit into a crash-safe
run journal under ``<cache dir>/runs/RUN_ID/`` (default RUN_ID: the
verb's name) and replays the units it already holds byte-identically,
so an interrupted run simulates only what is missing.  Any of the six
exits 1 when a unit was quarantined (its output still printed).

All name resolution goes through the same
:mod:`repro.core.registry` the library API uses, so every spelling
accepted here ("pipelined", "1.1", "ppp", "jigsaw") works in code too.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import (generate_experiments_report,
                       reproduce_browser_table,
                       reproduce_content_experiments,
                       reproduce_modem_experiment,
                       reproduce_protocol_table, reproduce_table3)
from .core import TABLE_CELLS, UnknownNameError
from .matrix import ExperimentSpec, MatrixRunner
from .matrix.cli import add_runner_flags, finish, make_runner


def _positive_int(text: str) -> int:
    """argparse type of ``--runs``: a usage error, not a traceback."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _cmd_table(args: argparse.Namespace) -> int:
    number = args.number
    runner = make_runner(args)
    if number == 3:
        _, text = reproduce_table3(runs=args.runs, runner=runner)
    elif number in TABLE_CELLS:
        server, environment = TABLE_CELLS[number]
        _, text = reproduce_protocol_table(server, environment,
                                           runs=args.runs, runner=runner)
    else:
        server = "Jigsaw" if number == 10 else "Apache"
        _, text = reproduce_browser_table(server, runs=args.runs,
                                          runner=runner)
    print(text)
    return finish(runner)


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        spec = ExperimentSpec(mode=args.mode, scenario=args.scenario,
                              environment=args.environment,
                              server=args.server, seeds=(args.seed,))
    except UnknownNameError as exc:
        print(exc, file=sys.stderr)
        return 2
    runner = MatrixRunner()
    cell = runner.run(spec)
    for failure in cell.failures:
        print(failure.summary(), file=sys.stderr)
    if not cell.runs:
        return finish(runner)
    result = cell.runs[0]
    print(f"mode:        {spec.mode}")
    print(f"scenario:    {spec.scenario}")
    print(f"environment: {spec.environment}")
    print(f"server:      {spec.server}")
    print(f"packets:     {result.packets} "
          f"({result.packets_client_to_server} c->s, "
          f"{result.packets_server_to_client} s->c)")
    print(f"bytes:       {result.payload_bytes}")
    print(f"elapsed:     {result.elapsed:.3f} s")
    print(f"overhead:    {result.percent_overhead:.1f} %")
    print(f"connections: {result.connections_used} "
          f"(max {result.max_parallel_connections} parallel)")
    return finish(runner)


def _cmd_modem(args: argparse.Namespace) -> int:
    runner = make_runner(args)
    _, text = reproduce_modem_experiment(runs=args.runs, runner=runner)
    print(text)
    return finish(runner)


def _cmd_content(_args: argparse.Namespace) -> int:
    _, text = reproduce_content_experiments()
    print(text)
    return 0


def _cmd_site(_args: argparse.Namespace) -> int:
    from .content import build_microscape_site
    site = build_microscape_site()
    print(f"{'url':30s} {'type':10s} {'bytes':>7s} role")
    print(f"{site.html_url:30s} {'text/html':10s} "
          f"{site.html.size:7d} -")
    for obj in site.image_objects:
        print(f"{obj.url:30s} {'image/gif':10s} {obj.size:7d} "
              f"{obj.role.value}")
    print(f"{'TOTAL':30s} {'':10s} "
          f"{site.html.size + site.total_image_bytes:7d}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    runner = make_runner(args)
    print(generate_experiments_report(runs=args.runs,
                                      browser_runs=min(args.runs, 3),
                                      runner=runner))
    return finish(runner)


def _cmd_claims(args: argparse.Namespace) -> int:
    from .analysis.claims import evaluate_claims, format_claims_report
    runner = make_runner(args)
    ledger = evaluate_claims(runner)
    print(format_claims_report(ledger))
    return max(finish(runner), 0 if ledger.ok else 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Network Performance Effects of "
                    "HTTP/1.1, CSS1, and PNG' (SIGCOMM '97)")
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="reproduce a paper table (3-11)")
    table.add_argument("number", type=int, choices=range(3, 12),
                       metavar="N")
    table.add_argument("--runs", type=_positive_int, default=3)
    add_runner_flags(table)
    table.set_defaults(fn=_cmd_table)

    run = sub.add_parser("run", help="run one experiment cell")
    for axis, default in (("mode", "pipelined"),
                          ("scenario", "first-time"),
                          ("environment", "LAN"), ("server", "Apache")):
        run.add_argument(f"--{axis}", default=default,
                         help=f"{axis}: any name or alias "
                              f"repro.core.registry resolves")
    run.add_argument("--seed", type=int, default=0)
    run.set_defaults(fn=_cmd_run)

    modem = sub.add_parser("modem", help="the 8.2.1 modem experiment")
    modem.add_argument("--runs", type=_positive_int, default=3)
    add_runner_flags(modem)
    modem.set_defaults(fn=_cmd_modem)

    content = sub.add_parser("content",
                             help="CSS/PNG/MNG/deflate experiments")
    content.set_defaults(fn=_cmd_content)

    site = sub.add_parser("site", help="print the Microscape inventory")
    site.set_defaults(fn=_cmd_site)

    report = sub.add_parser("report",
                            help="full paper-vs-measured report")
    report.add_argument("--runs", type=_positive_int, default=5)
    add_runner_flags(report)
    report.set_defaults(fn=_cmd_report)

    claims = sub.add_parser("claims",
                            help="the claims ledger and fidelity score")
    add_runner_flags(claims)
    claims.set_defaults(fn=_cmd_claims)

    from .fleet.cli import add_fleet_parser
    add_fleet_parser(sub)

    from .faults.chaos import add_chaos_parser
    add_chaos_parser(sub)

    from .lint.cli import add_lint_parser
    add_lint_parser(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
