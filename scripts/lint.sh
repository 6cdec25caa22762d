#!/bin/sh
# Determinism lint over the source tree — the per-file rules (host
# clock, set order, float clock compares, mutable defaults, hot-path
# __slots__, stray worker pools) and the whole-program passes (cache
# key, RNG seeds and streams) in one parse — then the unit-end TCP
# protocol check (repro.simnet.checks) over the trace fixtures.
# Global-RNG draws, OS entropy and worker-global writes are the
# identity tests' job (scripts/check.sh).
# Exit 0 means the tree is determinism-clean and every golden trace
# satisfies the paper's TCP invariants (handshake order, sequence
# monotonicity, Nagle, delayed-ACK deadlines, independent half-close);
# lossy_* fixtures (captured under fault injection) validate as a
# faulty run, which still enforces the structural invariants.
#
#   scripts/lint.sh                 # src/repro + all fixtures
#   scripts/lint.sh path/to/code    # lint other paths instead
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH=src

python -m repro lint --deep --sanitize-traces -- "$@"
