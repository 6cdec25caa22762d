#!/usr/bin/env bash
# The one entry point for the pipeline and for humans:
#   bench/run.sh                        every workload
#   bench/run.sh --workload paper_grid  one workload
# Flags are those of `python -m bench run` (--seed --seconds --trace ...).
set -eu
cd "$(dirname "$0")/.."
PYTHONPATH=src exec python3 -m bench run "$@"
