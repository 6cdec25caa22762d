#!/usr/bin/env python3
"""Which executable lines under ``src/repro`` does no traffic run?

Runs every command of a command list (default:
``scripts/line_trace_commands.txt``, the format is described at its
top) in a child interpreter under ``sys.settrace``, collects the
``(file, line)`` pairs executed under ``src/repro`` — in forked worker
processes too — and prints, per package, how many executable lines never
ran.  An executable line is one a compiled code object of the module
names (``co_lines``), so blank lines, comments and the inside of a
multi-line string do not count.

Every child runs in the run's own scratch directory (``{tmp}`` of the
command list; paths into the checkout are written ``{repo}/...``), so
what the checkout holds — a warm ``.repro-cache/artifacts`` above all —
cannot change the table.

This is an evidence tool, not a gate: a deletion quotes its
before/after table.  It exits 0 whatever it finds; a command that
exits non-zero is reported on stderr and its lines still count.

    python scripts/line_trace.py                 # the per-package table
    python scripts/line_trace.py --list lint     # + lint's unrun lines
    python scripts/line_trace.py --commands my_commands.txt
"""

from __future__ import annotations

import argparse
import atexit
import collections
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile
import time
from typing import Dict, Iterator, List, Set, Tuple

SCRIPT = pathlib.Path(__file__).resolve()
REPO = SCRIPT.parents[1]
SRC = REPO / "src" / "repro"
DEFAULT_COMMANDS = REPO / "scripts" / "line_trace_commands.txt"


# ----------------------------------------------------------------------
# Child: run one command under the tracer
# ----------------------------------------------------------------------

class _Executed(collections.defaultdict):
    """file -> executed lines (a subclass: the fork hook holds a weakref)."""


def _child(out_dir: str, kind: str, args: List[str]) -> None:
    prefix = str(SRC) + os.sep
    executed: Dict[str, Set[int]] = _Executed(set)

    def local(frame, event, _arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, _event, _arg):
        if frame.f_code.co_filename.startswith(prefix):
            executed[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    def dump() -> None:
        sys.settrace(None)
        path = pathlib.Path(out_dir) / f"{os.getpid()}-{time.time_ns()}.txt"
        with open(path, "w", encoding="utf-8") as out:
            for filename, lines in executed.items():
                for line in lines:
                    out.write(f"{filename}\t{line}\n")

    import multiprocessing.util as mp_util

    def after_fork(_state) -> None:
        # A forked worker leaves through os._exit, which skips atexit;
        # the multiprocessing finalizers still run.
        executed.clear()
        mp_util.Finalize(None, dump, exitpriority=100)

    mp_util.register_after_fork(executed, after_fork)
    atexit.register(dump)
    import threading
    threading.settrace(global_)
    sys.settrace(global_)
    if kind == "repro":
        from repro.__main__ import main
        sys.exit(main(args))
    import runpy
    sys.argv = [args[0]]
    runpy.run_path(args[0], run_name="__main__")


# ----------------------------------------------------------------------
# Parent: run the list, then compare against the executable lines
# ----------------------------------------------------------------------

def _commands(path: pathlib.Path, tmp: str
              ) -> Iterator[Tuple[Dict[str, str], str, List[str]]]:
    for raw in path.read_text(encoding="utf-8").splitlines():
        words = shlex.split(raw.replace("{tmp}", tmp).replace(
            "{repo}", str(REPO)), comments=True)
        env = {}
        while words and "=" in words[0]:
            name, _, value = words.pop(0).partition("=")
            env[name] = value
        if words:
            if words[0] not in ("repro", "example"):
                raise SystemExit(f"line_trace: unknown command {raw!r}")
            yield env, words[0], words[1:]


def _executable_lines(path: pathlib.Path) -> Set[int]:
    lines: Set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines()
                     if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _package(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).parts
    return parts[0] if len(parts) > 1 else "(top level)"


def _run(commands: pathlib.Path, listing: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = pathlib.Path(tmp) / "lines"
        out_dir.mkdir()
        started = time.monotonic()
        for env, kind, args in _commands(commands, tmp):
            child_env = dict(os.environ, PYTHONPATH=str(REPO / "src"),
                             **env)
            status = subprocess.call(
                [sys.executable, str(SCRIPT), "--child", str(out_dir),
                 kind, *args], cwd=tmp, env=child_env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            if status != 0:
                print(f"line_trace: exit {status}: {kind} "
                      f"{' '.join(args)}", file=sys.stderr)
        executed: Dict[str, Set[int]] = collections.defaultdict(set)
        for dump in out_dir.iterdir():
            for row in dump.read_text(encoding="utf-8").splitlines():
                filename, line = row.split("\t")
                executed[os.path.realpath(filename)].add(int(line))
        elapsed = time.monotonic() - started

    totals: Dict[str, List[int]] = collections.defaultdict(lambda: [0, 0])
    unrun_lines: List[str] = []
    for path in sorted(SRC.rglob("*.py")):
        lines = _executable_lines(path)
        missing = sorted(lines - executed.get(os.path.realpath(path),
                                              set()))
        package = _package(path)
        totals[package][0] += len(missing)
        totals[package][1] += len(lines)
        if listing in (package, "all"):
            unrun_lines += [f"{path.relative_to(REPO)}:{line}"
                            for line in missing]
    print("| package | never run / executable |")
    print("|---|---|")
    for package, (missing, total) in sorted(
            totals.items(), key=lambda item: (-item[1][0], item[0])):
        print(f"| {package} | {missing:,} / {total:,} |")
    missing = sum(m for m, _ in totals.values())
    total = sum(t for _, t in totals.values())
    print(f"| **all** | {missing:,} / {total:,} |")
    print(f"line_trace: {elapsed:.0f} s", file=sys.stderr)
    if unrun_lines:
        print()
        print("\n".join(unrun_lines))


def main() -> None:
    if len(sys.argv) > 2 and sys.argv[1] == "--child":
        _child(sys.argv[2], sys.argv[3], sys.argv[4:])
        return
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commands", type=pathlib.Path,
                        default=DEFAULT_COMMANDS,
                        help="the command list to trace")
    parser.add_argument("--list", default="", metavar="PACKAGE",
                        help="also print PATH:LINE for every unrun line "
                             "of PACKAGE (or 'all')")
    args = parser.parse_args()
    _run(args.commands, args.list)


if __name__ == "__main__":
    main()
