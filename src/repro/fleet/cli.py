"""The ``python -m repro fleet`` verb.

Wires a :class:`~repro.fleet.spec.FleetSpec` from command-line flags,
builds the matrix machinery from the runner flags every matrix verb
shares (:mod:`repro.matrix.cli`), runs the population through
:func:`~repro.fleet.runner.run_fleet` and prints the tail-latency /
fairness / server-queueing report.

Its ``--journal`` defaults to the run id ``fleet``: every cohort unit
is keyed by its spec, so populations that differ only in spelling
(``--server apache`` / ``Apache``) replay one another's units and
different populations never collide.
"""

from __future__ import annotations

import argparse
import sys

from ..matrix.cli import add_runner_flags, finish, make_runner
from .runner import run_fleet
from .spec import FleetSpec

__all__ = ["add_fleet_parser"]


def _cmd_fleet(args: argparse.Namespace) -> int:
    try:
        spec = FleetSpec(
            users=args.users, cohorts=args.cohorts,
            environment=args.environment, scenario=args.scenario,
            server=args.server, arrival_rate=args.arrival_rate,
            think_time=args.think_time,
            pages_per_user=args.pages_per_user,
            server_capacity=(None if args.server_capacity == 0
                             else args.server_capacity),
            backbone_bps=args.backbone_bps, epoch=args.epoch,
            rounds=args.rounds, max_sim_time=args.max_sim_time,
            seed=args.seed)
    except ValueError as exc:
        print(f"fleet: {exc}", file=sys.stderr)
        return 2
    runner = make_runner(args)
    with runner:
        result = run_fleet(spec, runner=runner)
    from ..analysis.report import format_fleet_report
    print(format_fleet_report(result))
    return finish(runner)


def add_fleet_parser(sub) -> None:
    """Register the ``fleet`` subcommand on the CLI's subparsers."""
    fleet = sub.add_parser(
        "fleet",
        help="population-scale runs: cohorts of robot sessions on a "
             "shared bottleneck")
    fleet.add_argument("--users", type=int, default=200, metavar="N",
                       help="population size (default 200)")
    fleet.add_argument("--cohorts", type=int, default=4, metavar="K",
                       help="cohorts the population shards into; one "
                            "simulator (= one matrix unit) per cohort "
                            "per round (default 4)")
    for axis, default in (("environment", "WAN"),
                          ("scenario", "first-time"),
                          ("server", "apache")):
        fleet.add_argument(f"--{axis}", default=default,
                           help=f"{axis}: any name or alias "
                                f"repro.core.registry resolves")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--arrival-rate", type=float, default=2.0,
                       metavar="R",
                       help="Poisson arrivals per simulated second "
                            "(default 2.0)")
    fleet.add_argument("--think-time", type=float, default=5.0,
                       metavar="S",
                       help="mean exponential think-time between a "
                            "user's pages (default 5.0 s)")
    fleet.add_argument("--pages-per-user", type=int, default=2,
                       metavar="N")
    fleet.add_argument("--server-capacity", type=int, default=32,
                       metavar="N",
                       help="concurrent connections each cohort's "
                            "server handles before parking accepts "
                            "(per cohort, not fleet-wide; 0 = "
                            "unbounded; default 32)")
    fleet.add_argument("--backbone-bps", type=float, default=None,
                       metavar="BPS",
                       help="shared backbone capacity split across "
                            "cohorts (default: the environment's link "
                            "bandwidth)")
    fleet.add_argument("--epoch", type=float, default=30.0,
                       metavar="S",
                       help="capacity-share epoch in simulated seconds "
                            "(default 30)")
    fleet.add_argument("--rounds", type=int, default=2, metavar="N",
                       help="fixed-point share-exchange rounds "
                            "(default 2; 1 = static equal split)")
    fleet.add_argument("--max-sim-time", type=float, default=600.0,
                       metavar="S")
    add_runner_flags(fleet)
    fleet.set_defaults(fn=_cmd_fleet)
