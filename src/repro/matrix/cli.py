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
import re
import sys
from pathlib import Path

from .cache import DEFAULT_CACHE_DIR, ResultCache
from .journal import RunJournal
from .runner import CellEvent, MatrixRunner

__all__ = ["add_runner_flags", "make_runner", "finish"]

_RUN_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,99}$")


def _non_negative_int(text: str) -> int:
    """argparse type of ``--jobs`` (0 = one worker per CPU)."""
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


def _run_id(text: str) -> str:
    """argparse type of ``--journal``'s RUN_ID: one directory name."""
    if not _RUN_ID_RE.match(text):
        raise argparse.ArgumentTypeError(
            f"run id {text!r} must be filename-safe (a letter or digit, "
            f"then letters, digits, '.', '_', '-')")
    return text


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
    parser.add_argument("--unit-deadline", type=_positive_seconds,
                        default=None, metavar="SECONDS",
                        help="wall-clock budget per unit in a worker "
                             "(default: derived from the unit's "
                             "max_sim_time)")
    # A subparser's prog is "repro <verb>": a bare --journal names the
    # verb's journal.
    parser.add_argument("--journal", type=_run_id, default=None,
                        nargs="?", const=parser.prog.split()[-1],
                        metavar="RUN_ID",
                        help="record resolved units into a crash-safe "
                             "run journal under <cache dir>/runs/RUN_ID/ "
                             "and replay the ones it already holds "
                             "byte-identically (default RUN_ID: the "
                             "verb's name)")


def make_runner(args: argparse.Namespace) -> MatrixRunner:
    """Build the :class:`MatrixRunner` the runner flags ask for."""
    cache_dir = Path(args.cache_dir or DEFAULT_CACHE_DIR)
    cache = None
    if args.cache or args.cache_dir is not None:
        cache = ResultCache(cache_dir)
    journal = None
    if args.journal is not None:
        journal = RunJournal(args.journal, cache_dir / "runs")
        print(f"journal: {journal.run_id}", file=sys.stderr)
    return MatrixRunner(
        jobs=args.jobs, cache=cache,
        progress=_print_progress if args.progress else None,
        journal=journal, unit_deadline=args.unit_deadline)


def finish(runner: MatrixRunner) -> int:
    """Print the runner's stats line to stderr and return the verb's
    exit status: 1 when any unit was quarantined (its cells print
    ``nan`` or ``FAILED``), else 0."""
    print(runner.stats.summary(), file=sys.stderr)
    return 1 if runner.stats.failures else 0
