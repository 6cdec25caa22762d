#!/bin/sh
# Determinism lint over the source tree — the per-file rules (host
# clock, set order, float clock compares, mutable defaults, hot-path
# __slots__, stray worker pools) and the whole-program passes (cache
# key, RNG seeds and streams) in one parse.
# Global-RNG draws, OS entropy and worker-global writes are the
# identity tests' job (scripts/check.sh).  The TCP protocol check is
# not a lint: every simulated unit ends with it, and the golden trace
# fixtures are checked as the live cells they came from
# (tests/simnet/test_golden_traces.py).
# Exit 0 means the tree is determinism-clean.
#
#   scripts/lint.sh                 # src/repro
#   scripts/lint.sh path/to/code    # lint other paths instead
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH=src

python -m repro lint --deep -- "$@"
