"""The repo benchmark: four workloads, host-time metrics, per-layer attribution.

Run it from the repository root::

    bench/run.sh                       # every workload, one JSON
    bench/run.sh --workload paper_grid # one workload
    python -m bench trace              # + sampled per-layer attribution
    python -m bench probes             # single-call layer probes
    python -m bench compare A.json B.json

The package measures ``repro`` strictly from outside, through the public
names its packages export; ``bench/README.md`` lists that surface, the
metric glossary and why each workload exists.  ``BENCHMARK.json`` at the
repository root is the machine-readable contract (:mod:`bench.spec` is
its source of truth).
"""

from pathlib import Path

#: This package's directory, the repository root and the ``repro`` sources.
BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"

#: Everything a run leaves behind lives here (gitignored).
OUT_DIR = BENCH_DIR / "out"
