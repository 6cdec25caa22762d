"""``python -m bench`` — run, trace, probes, compare.

``run`` with ``--workload NAME`` is the form the pipeline drives: its
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
Without ``--workload`` every workload runs in turn.  Either way the full
record — medians, IQRs, sample counts, counters, environment — is
written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional

from . import OUT_DIR
from .compare import compare_files
from .harness import (BenchError, child_main, environment_record,
                      metric_lines, run_workload, spawn_child)
from .spec import RUN_SECONDS, WORKLOADS

WORKLOAD_NAMES = [name for name, _ in WORKLOADS]


def _cmd_run(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    results: Dict[str, Any] = {}
    for name in names:
        result = run_workload(name, seed=args.seed, seconds=args.seconds,
                              trace=bool(args.trace), quick=args.quick)
        results[name] = result
        print("\n".join(metric_lines(result)))
        print(f"{name:22s} sim_digest {result['sim_digest']}  "
              f"passes={result['passes']} attempted={result['attempted']}"
              f" failed={result['failed']}")
        for problem in result["problems"]:
            print(f"{name}: INCORRECT: {problem}", file=sys.stderr)
    record = {"environment": environment_record(), "seed": args.seed,
              "seconds": args.seconds, "quick": args.quick,
              "written": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
              "workloads": results}
    out = args.out or str(OUT_DIR / "run.json")
    with open(out, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    if args.workload:
        result = results[args.workload]
        section = "per_layer" if args.trace else "end_to_end"
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": entry["value"],
                               "unit": entry["unit"]}
                        for name, entry in result[section].items()}}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def _cmd_probes(args: argparse.Namespace) -> int:
    record = spawn_child(
        "probes", ["probes-child"] + ["--quick"] * args.quick)
    for name, entry in record.items():
        print(f"{name:36s} {entry['value']:14.6g} {entry['unit']:6s} "
              f"explains {entry['explains']}")
    out = args.out or str(OUT_DIR / "probes.json")
    with open(out, "w") as handle:
        json.dump({"environment": environment_record(), "probes": record},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


def _probes_child(args: argparse.Namespace) -> int:
    from .probes import probes_child_main  # imports repro: child only
    return probes_child_main(args)


def _cmd_compare(args: argparse.Namespace) -> int:
    lines, regressed = compare_files(args.base, args.change)
    print("\n".join(lines))
    return 1 if regressed else 0


def _add_run_flags(parser: argparse.ArgumentParser, *,
                   trace_default: int) -> None:
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1997,
                        help="FleetSpec.seed and the bulk base seed; "
                             "paper_grid is the paper's fixed grid and "
                             "ignores it")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="time budget of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        default=trace_default,
                        help="1: add a sampled pass and report the "
                             "per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test scale: tiny workloads, one pass")
    parser.add_argument("--out", help="where to write the full JSON "
                                      "(default bench/out/run.json)")
    parser.set_defaults(fn=_cmd_run)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_flags(sub.add_parser(
        "run", help="end-to-end metrics from untraced passes"),
        trace_default=0)
    _add_run_flags(sub.add_parser(
        "trace", help="run, plus one sampled pass per workload"),
        trace_default=1)
    probes = sub.add_parser("probes", help="single-call layer probes")
    probes.add_argument("--quick", action="store_true")
    probes.add_argument("--out")
    probes.set_defaults(fn=_cmd_probes)
    compare = sub.add_parser(
        "compare", help="base run vs change run, against the bounds")
    compare.add_argument("base")
    compare.add_argument("change")
    compare.set_defaults(fn=_cmd_compare)

    # The isolated processes the verbs above spawn; not for direct use.
    child = sub.add_parser("child")
    child.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--seconds", type=float, required=True)
    child.add_argument("--trace", type=int, required=True)
    child.add_argument("--quick", action="store_true")
    child.add_argument("--result", required=True)
    child.set_defaults(fn=child_main)
    probes_child = sub.add_parser("probes-child")
    probes_child.add_argument("--quick", action="store_true")
    probes_child.add_argument("--result", required=True)
    probes_child.set_defaults(fn=_probes_child)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
