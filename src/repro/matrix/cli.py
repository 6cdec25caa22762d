"""The runner flags every matrix-driven CLI verb shares.

``table`` / ``modem`` / ``report`` / ``claims`` / ``fleet`` / ``chaos``
all hand their work to a :class:`~repro.matrix.runner.MatrixRunner`;
the flags that configure it (each validated by argparse: a value that
makes no sense is a usage error, exit 2), the ``--progress`` printer,
the "args → runner" factory and the one exit rule — 1 when any unit
was quarantined, with the output still printed — are defined here,
once.
"""

from __future__ import annotations

import argparse
import math
import sys

from .cache import ResultCache
from .journal import RunJournal
from .runner import CellEvent, MatrixRunner
from .supervisor import DEFAULT_RETRY_BUDGET

__all__ = ["add_runner_flags", "make_runner", "finish"]


def _non_negative_int(text: str) -> int:
    """argparse type of ``--jobs`` (0 = one worker per CPU) and
    ``--retry-budget`` (0 = quarantine without a retry)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    """argparse type of ``--unit-deadline``: a wall-clock budget."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds, got {text}")
    return value


def _print_progress(event: CellEvent) -> None:
    if event.status == "hit":
        tag = "cache"
    elif event.status == "failed":
        tag = f"FAIL attempt {event.attempt}"
    elif event.status == "retried":
        tag = f"retry attempt {event.attempt}"
    else:
        tag = f"{event.wall_time:5.2f}s"
    print(f"  [{event.completed}/{event.total}] {event.label} "
          f"seed={event.seed} ({tag})", file=sys.stderr)


def add_runner_flags(parser: argparse.ArgumentParser) -> None:
    """Add the parallel / cache / supervision / journal flags."""
    parser.add_argument("--jobs", type=_non_negative_int, default=1,
                        metavar="N",
                        help="worker processes (0 = one per CPU)")
    parser.add_argument("--cache", action="store_true",
                        help="reuse cached results (.repro-cache/)")
    parser.add_argument("--cache-dir", default=None, metavar="PATH",
                        help="cache directory (implies --cache)")
    parser.add_argument("--progress", action="store_true",
                        help="print per-unit progress to stderr")
    parser.add_argument("--retry-budget", type=_non_negative_int,
                        default=DEFAULT_RETRY_BUDGET, metavar="N",
                        help="parallel re-dispatches allowed per "
                             "failing unit before downgrade/quarantine "
                             f"(default {DEFAULT_RETRY_BUDGET})")
    parser.add_argument("--unit-deadline", type=_positive_seconds,
                        default=None, metavar="SECONDS",
                        help="wall-clock budget per unit in a worker "
                             "(default: derived from the unit's "
                             "max_sim_time)")
    parser.add_argument("--journal", action="store_true",
                        help="record resolved units into a crash-safe "
                             "run journal (.repro-cache/runs/)")
    parser.add_argument("--resume", default=None, nargs="?", const="",
                        metavar="RUN_ID",
                        help="resume a journaled run: replay recorded "
                             "units byte-identically, simulate only "
                             "the rest (implies --journal; no RUN_ID = "
                             "the id derived from this workload)")


def make_runner(args: argparse.Namespace, run_id: str) -> MatrixRunner:
    """Build the :class:`MatrixRunner` the runner flags ask for.

    ``run_id`` is the journal id derived from the verb's workload, used
    when ``--journal`` / a bare ``--resume`` names none.
    """
    cache = None
    if args.cache or args.cache_dir is not None:
        cache = (ResultCache(args.cache_dir) if args.cache_dir
                 else ResultCache())
    journal = None
    if args.resume is not None or args.journal:
        journal = RunJournal(args.resume or run_id)
        print(f"journal: {journal.run_id}", file=sys.stderr)
    return MatrixRunner(
        jobs=args.jobs, cache=cache,
        progress=_print_progress if args.progress else None,
        journal=journal, retry_budget=args.retry_budget,
        unit_deadline=args.unit_deadline)


def finish(runner: MatrixRunner) -> int:
    """Print the runner's stats line to stderr and return the verb's
    exit status: 1 when any unit was quarantined (its cells print
    ``nan`` or ``FAILED``), else 0."""
    print(runner.stats.summary(), file=sys.stderr)
    return 1 if runner.stats.failures else 0
