#!/bin/sh
# Repo health check: the tier-1 test suite plus a parallel, cached
# smoke run of the full report through the CLI.
#
#   scripts/check.sh            # everything
#   FAST=1 scripts/check.sh     # skip the slow whole-grid sweeps
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH=src

# Static determinism lint + golden-trace sanitization run in every
# mode, FAST included: they are cheap and guard the properties (bit
# reproducibility, TCP invariants) everything else rests on.
sh scripts/lint.sh

# Whole-program deep lint: cache-key completeness, RNG-stream
# discipline, pool purity — gated against the committed baseline.
# Fixed findings must be removed from DEEP_BASELINE.json (stale
# entries fail the run); new findings fail outright.  The analyzer
# runs on every check, so it also carries a wall-time budget — if it
# ever creeps past DEEP_LINT_BUDGET seconds it is no longer a
# pre-commit tool and the graph construction needs attention.
python - <<'EOF'
import os
import subprocess
import sys
import time

budget = float(os.environ.get("DEEP_LINT_BUDGET", "10"))
start = time.monotonic()
proc = subprocess.run([sys.executable, "-m", "repro", "lint", "--deep",
                       "--baseline", "DEEP_BASELINE.json"])
elapsed = time.monotonic() - start
if proc.returncode != 0:
    sys.exit(proc.returncode)
if elapsed > budget:
    print(f"check.sh: deep lint took {elapsed:.1f}s, over the "
          f"{budget:.0f}s budget (DEEP_LINT_BUDGET)", file=sys.stderr)
    sys.exit(1)
EOF

if [ "${FAST:-0}" = "1" ]; then
    python -m pytest -x -q -m "not slow"
else
    python -m pytest -x -q
    # The repo benchmark reaches src/ through public names only and
    # requires cold == replay on every pass: its own tests and a
    # smoke-scale run of all four workloads catch a src/ change that
    # breaks either before the pipeline does.
    python -m pytest bench/tests -q
    bash bench/run.sh --quick > /dev/null
fi

# Exercise the experiment-matrix engine end to end: two worker
# processes, results cached under a throwaway directory.
SMOKE_CACHE=".repro-cache/check-smoke"
rm -rf "$SMOKE_CACHE"
python -m repro report --runs 1 --jobs 2 --cache \
    --cache-dir "$SMOKE_CACHE" > /dev/null
# A second pass must be pure cache hits (zero simulation runs).  The
# runner stats land on stderr; capture both streams explicitly rather
# than relying on redirection order tricks (`2>&1 >/dev/null |` pipes
# only stderr, which reads as a typo for the common swap-and-discard
# idiom and silently greps nothing if the stats ever move to stdout).
SMOKE_OUT="$SMOKE_CACHE/second-pass.out"
python -m repro report --runs 1 --jobs 2 --cache \
    --cache-dir "$SMOKE_CACHE" > "$SMOKE_OUT" 2>&1
grep -q " 0 simulated" "$SMOKE_OUT" \
    || { echo "check.sh: cached report re-ran simulations" >&2; exit 1; }
rm -rf "$SMOKE_CACHE"

# Post-paper protocol modes: one sanitized WAN cell per mode.  The
# --sanitize flag runs the live TCP sanitizer, the mode's trace rules
# (connection counts, origin ports), and — for the MUX modes — the
# frame-stream validator over every frame on the wire.
python -m repro run --mode mux --environment WAN --sanitize > /dev/null
python -m repro run --mode mux-push --environment WAN --sanitize \
    > /dev/null
python -m repro run --mode sharded --environment WAN --sanitize \
    > /dev/null

# Chaos smoke: fault-injected cells (one link plan, one server plan,
# one cell per post-paper mode) must still retrieve the full site
# byte-identical within the robot's retry budget.  The full 48-cell
# grid is the slow-marked test.
python -m repro chaos --seed 1997 --only bursty-loss:pipelined:WAN \
    > /dev/null
python -m repro chaos --seed 1997 --only flaky-server:http/1.1:WAN \
    > /dev/null
python -m repro chaos --seed 1997 --only bursty-loss:mux:WAN \
    > /dev/null
python -m repro chaos --seed 1997 --only wire-chaos:mux-push:WAN \
    > /dev/null
python -m repro chaos --seed 1997 --only hostile-server:sharded:WAN \
    > /dev/null

# Harness-chaos smoke: SIGKILL a pool worker mid-chunk during a
# 12-unit grid and require the supervisor to respawn the pool, retry
# the lost units, and finish with numbers byte-identical to an
# undisturbed serial run — inside a wall-time budget (default 120 s;
# a wedged drain would otherwise hang this script forever).
python - <<'EOF'
import os
import time

from repro.faults import HarnessFaultPlan
from repro.matrix import ExperimentSpec, MatrixRunner

specs = [ExperimentSpec(mode=mode, scenario="revalidate",
                        environment="LAN", server=server,
                        seeds=(0, 1, 2))
         for mode in ("pipelined", "HTTP/1.1")
         for server in ("Apache", "Jigsaw")]

serial = MatrixRunner(jobs=1).run_many(specs)

budget = float(os.environ.get("HARNESS_CHAOS_BUDGET", "120"))
plan = HarnessFaultPlan(name="smoke-kill", kill_unit=4)
start = time.monotonic()
with MatrixRunner(jobs=2, chunk_size=2, harness_faults=plan,
                  unit_deadline=30.0) as runner:
    supervised = runner.run_many(specs)
    stats = runner.stats
elapsed = time.monotonic() - start

if elapsed > budget:
    raise SystemExit(f"check.sh: harness-chaos smoke took "
                     f"{elapsed:.1f}s, over the {budget:.0f}s budget")
if stats.pool_respawns < 1:
    raise SystemExit("check.sh: worker kill never triggered a "
                     "pool respawn")
if stats.failures:
    raise SystemExit(f"check.sh: {stats.failures} unit(s) were "
                     f"quarantined instead of recovered")
for a, b in zip(serial, supervised):
    if a.packets != b.packets or a.elapsed != b.elapsed \
            or a.percent_overhead != b.percent_overhead:
        raise SystemExit(f"check.sh: supervised recovery diverged "
                         f"from serial on {b.runs and b.runs[0]}")
print(f"harness-chaos smoke: recovered from worker kill in "
      f"{elapsed:.1f}s ({stats.pool_respawns} respawn(s), "
      f"{stats.unit_retries} retries)")
EOF

# Fast-path identity — the fast-forward driver must be byte-invisible —
# needs no smoke here: the pytest run above (full and FAST=1 alike)
# includes tests/simnet/test_fastforward.py, which asserts it for a
# full-stack HTTP cell on the decline path
# (test_http_pipelined_run_byte_identical) and for bulk transfers that
# must engage the driver on a clean WAN link and on PPP behind the
# compressing modem (test_wan_bulk_byte_identical_and_engages,
# test_ppp_bulk_byte_identical_with_modem_compression).

# Benchmark smoke: one repetition per cell into a throwaway file, then
# validate the emitted JSON against the schema the repo's tooling reads
# and gate wall time against the committed baseline.  The threshold is
# generous (25% by default) because --quick takes one sample per cell;
# override with BENCH_REGRESSION_THRESHOLD=0.5 on noisy machines.
BENCH_SMOKE=".repro-cache/check-bench.json"
rm -f "$BENCH_SMOKE"
python -m repro bench --quick --output "$BENCH_SMOKE" > /dev/null
python - "$BENCH_SMOKE" <<'EOF'
import json, os, sys
from repro.perf import check_bench_regression, validate_bench_payload
with open(sys.argv[1]) as fh:
    payload = json.load(fh)
problems = validate_bench_payload(payload)
if not problems and os.path.exists("BENCH_simnet.json"):
    with open("BENCH_simnet.json") as fh:
        committed = json.load(fh)
    threshold = float(os.environ.get("BENCH_REGRESSION_THRESHOLD", "0.25"))
    problems = check_bench_regression(payload["current"]["cells"],
                                      committed["baseline"]["cells"],
                                      threshold=threshold)
for problem in problems:
    print(f"check.sh: bench problem: {problem}", file=sys.stderr)
sys.exit(1 if problems else 0)
EOF
rm -f "$BENCH_SMOKE"

# Fleet smoke: a 200-user population on two jobs must finish inside
# the wall-time budget (default 180 s) and report percentiles
# byte-identical to the same population run serially — the determinism
# contract the fleet engine commits to at any job count.
python - <<'EOF'
import os
import time

from repro.fleet import FleetSpec, run_fleet
from repro.matrix import MatrixRunner

budget = float(os.environ.get("FLEET_SMOKE_BUDGET", "180"))
spec = FleetSpec(users=200, cohorts=4, environment="WAN",
                 arrival_rate=4.0, think_time=2.0, pages_per_user=1,
                 rounds=2, max_sim_time=240.0, backbone_bps=20e6)
start = time.monotonic()
with MatrixRunner(jobs=2) as runner:
    parallel = run_fleet(spec, runner=runner)
elapsed = time.monotonic() - start
with MatrixRunner(jobs=1) as runner:
    serial = run_fleet(spec, runner=runner)

if elapsed > budget:
    raise SystemExit(f"check.sh: fleet smoke took {elapsed:.1f}s, "
                     f"over the {budget:.0f}s budget")
if parallel.cohorts != serial.cohorts:
    raise SystemExit("check.sh: fleet cohort results differ between "
                     "--jobs 2 and --jobs 1")
for p in (50, 95, 99):
    if parallel.percentile(p) != serial.percentile(p):
        raise SystemExit(f"check.sh: fleet p{p} differs between "
                         f"--jobs 2 and --jobs 1")
if not parallel.page_times:
    raise SystemExit("check.sh: fleet smoke completed zero pages")
print(f"fleet smoke: {spec.users} users in {elapsed:.1f}s, "
      f"p50={parallel.percentile(50):.2f}s "
      f"p99={parallel.percentile(99):.2f}s, serial-identical")
EOF

# The committed benchmark file must carry a valid fleet section (the
# population-scale throughput record `python -m repro bench --fleet`
# maintains) meeting the >=1000 users/minute commitment.
python - <<'EOF'
import json
import sys

from repro.perf import validate_bench_payload

with open("BENCH_simnet.json") as fh:
    payload = json.load(fh)
problems = validate_bench_payload(payload)
fleet = payload.get("fleet")
if fleet is None:
    problems.append("committed BENCH_simnet.json has no fleet section "
                    "(run: python -m repro bench --fleet)")
elif fleet.get("users_per_minute", 0) < 1000:
    problems.append(f"committed fleet bench below 1000 users/minute "
                    f"({fleet.get('users_per_minute')})")
for problem in problems:
    print(f"check.sh: fleet bench problem: {problem}", file=sys.stderr)
sys.exit(1 if problems else 0)
EOF

echo "check.sh: all green"
