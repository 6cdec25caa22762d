#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: run every experiment, record vs paper.

Rewrites the fenced report block — the ``report`` tables, then the
``claims`` ledger and fidelity score judged on the same cells — and the
wall-time footer of the existing file; the prose above the block is the
file's own and is left untouched.

Run:  python scripts/generate_experiments.py [--runs N] [--out PATH]
"""

import argparse
import time

from repro.analysis import generate_experiments_report
from repro.analysis.claims import evaluate_claims, format_claims_report

#: The line that opens (and closes) the fenced report block.
FENCE = "\n```\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--browser-runs", type=int, default=3)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    args = parser.parse_args()

    with open(args.out) as handle:
        prose, fence, _ = handle.read().partition(FENCE)
    if not fence:
        parser.error(f"{args.out} has no fenced report block to rewrite")

    start = time.time()
    body = generate_experiments_report(runs=args.runs,
                                       browser_runs=args.browser_runs)
    body += "\n\n" + format_claims_report(evaluate_claims())
    elapsed = time.time() - start

    with open(args.out, "w") as handle:
        handle.write(
            f"{prose}{FENCE}"
            f"Protocol cells are means of {args.runs} seeded simulation "
            f"runs (the paper averaged 5 real runs); browser tables use "
            f"{args.browser_runs} runs (the paper used 3).\n\n"
            f"{body}{FENCE}\n"
            f"*Generated in {elapsed:.0f} s of wall time "
            f"(simulated hours of 1997 network traffic).*\n")
    print(f"wrote {args.out} ({elapsed:.0f} s)")


if __name__ == "__main__":
    main()
