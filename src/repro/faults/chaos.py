"""The ``python -m repro chaos`` verb: sweep a seeded fault grid.

The grid is every registered fault plan × {pipelined, persistent,
HTTP/1.0, MUX, MUX+push, sharded} × {WAN, PPP} against Apache on a
first-time fetch — 48 cells by default.  Every cell must complete: the run verifier checks that all
43 Microscape resources arrive with status 200 and byte-identical
bodies, within the robot's retry budget.  The grid is deterministic in
``--seed``, so a failing cell reproduces from its coordinates alone;
``--only plan:mode:env`` reruns exactly one cell.

LAN is excluded on purpose: its sub-millisecond RTT makes stall/abort
timings trivial, and the paper's robustness lessons are about slow
paths.  Seeds are derived per-cell (stable hash of the coordinates plus
the base seed) so no two cells share a fault schedule.

Each cell is one :class:`~repro.matrix.spec.ExperimentSpec` unit run
by a :class:`~repro.matrix.runner.MatrixRunner`, so the sweep takes the
runner flags every matrix verb shares (``--jobs``, ``--cache``,
``--journal [RUN_ID]``, …; default run id ``chaos``): rows
print from the result's measurement columns whether the unit was
simulated, cached or replayed, and a cell the engine quarantines prints
as ``FAILED`` with its reproduce command.
"""

from __future__ import annotations

import argparse
import sys
import zlib
from typing import List, Optional, Tuple

from ..matrix import ExperimentSpec, MatrixRunner
from ..matrix.cli import add_runner_flags, finish, make_runner
from .plan import FAULT_PLANS
from .recovery import summarize_counts

__all__ = ["chaos_cells", "run_chaos", "add_chaos_parser"]

#: Protocol modes and environments swept by the grid.  The post-paper
#: transports (MUX, MUX+push, sharded) are in the grid so every fault
#: plan also exercises frame recovery, push cancellation under loss,
#: and multi-origin re-dials.
CHAOS_MODES: Tuple[str, ...] = ("pipelined", "http/1.1", "http/1.0",
                                "mux", "mux-push", "sharded")
CHAOS_ENVIRONMENTS: Tuple[str, ...] = ("WAN", "PPP")
CHAOS_SERVER = "Apache"
CHAOS_SCENARIO = "first-time"


def chaos_cells() -> List[Tuple[str, str, str]]:
    """The (plan, mode, environment) grid, in stable order."""
    return [(plan, mode, environment)
            for plan in sorted(FAULT_PLANS)
            for mode in CHAOS_MODES
            for environment in CHAOS_ENVIRONMENTS]


def _cell_seed(base_seed: int, plan: str, mode: str,
               environment: str) -> int:
    """A stable per-cell seed (so no two cells share fault draws)."""
    tag = f"{plan}:{mode}:{environment}".encode("ascii")
    return base_seed + zlib.crc32(tag) % 100_000


def run_chaos(seed: int = 1997, only: Optional[str] = None,
              out=None, runner: Optional[MatrixRunner] = None) -> int:
    """Run the chaos grid; returns a process exit status.

    ``runner`` is the :class:`~repro.matrix.runner.MatrixRunner` the
    cells run on (default: a serial, uncached one).
    """
    if out is None:
        out = sys.stdout
    cells = chaos_cells()
    if only is not None:
        try:
            plan, mode, environment = only.split(":")
        except ValueError:
            print(f"--only wants PLAN:MODE:ENV, got {only!r}",
                  file=sys.stderr)
            return 2
        cells = [(p, m, e) for p, m, e in cells
                 if p == plan and m.lower() == mode.lower()
                 and e.upper() == environment.upper()]
        if not cells:
            print(f"no chaos cell matches {only!r}", file=sys.stderr)
            return 2
    specs = [ExperimentSpec(
                 mode=mode, scenario=CHAOS_SCENARIO,
                 environment=environment, server=CHAOS_SERVER,
                 seeds=(_cell_seed(seed, plan, mode, environment),),
                 faults=plan)
             for plan, mode, environment in cells]
    if runner is None:
        runner = MatrixRunner()
    header = (f"{'plan':15s} {'mode':20s} {'env':4s} {'elapsed':>8s} "
              f"{'retries':>7s} {'retx':>5s} {'drops':>6s} recovery")
    print(header, file=out)
    print("-" * len(header), file=out)
    failures = 0
    for (plan, mode, environment), cell in zip(cells,
                                               runner.run_many(specs)):
        label = f"{plan:15s} {mode:20s} {environment:4s}"
        if cell.failures:
            failures += 1
            print(f"{label} {'FAILED':>8s}  {cell.failures[0].error}",
                  file=out)
            print(f"  reproduce: python -m repro chaos --seed {seed} "
                  f"--only {plan}:{mode}:{environment}", file=out)
            continue
        run = cell.runs[0]
        print(f"{label} {run.elapsed:8.2f} {run.retries:7d} "
              f"{run.retransmissions:5d} "
              f"{run.dropped_loss + run.dropped_overflow:6d} "
              f"{summarize_counts(run.recovery)}", file=out)
    total = len(cells)
    if failures:
        print(f"\n{failures}/{total} cells FAILED (seed {seed})",
              file=out)
        return 1
    print(f"\nall {total} cells recovered every resource byte-identical "
          f"(seed {seed})", file=out)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    runner = make_runner(args)
    with runner:
        status = run_chaos(seed=args.seed, only=args.only, runner=runner)
    if status == 2:    # a usage error ran nothing
        return status
    return max(status, finish(runner))


def add_chaos_parser(sub) -> None:
    """Register the ``chaos`` subcommand on an argparse subparsers."""
    chaos = sub.add_parser(
        "chaos",
        help="sweep the fault-injection grid (plans x modes x envs)")
    chaos.add_argument("--seed", type=int, default=1997,
                       help="base seed for the deterministic fault grid")
    chaos.add_argument("--only", default=None, metavar="PLAN:MODE:ENV",
                       help="run a single cell, e.g. "
                            "bursty-loss:pipelined:WAN")
    add_runner_flags(chaos)
    chaos.set_defaults(fn=_cmd_chaos)
