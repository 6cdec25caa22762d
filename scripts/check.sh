#!/bin/sh
# Repo health check: a list of commands, each of which must exit 0.
# Anything that needs more than an exit status is a pytest test.
#
#   scripts/check.sh            # everything
#   FAST=1 scripts/check.sh     # skip the slow whole-grid sweeps
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH=src

# Determinism lint (per-file rules and the whole-program passes, one
# parse of each file) runs in every mode, FAST included, and so does the
# golden-trace check in the pytest run below
# (tests/simnet/test_golden_traces.py, not slow-marked): they are cheap
# and guard the properties (bit reproducibility, TCP invariants)
# everything else rests on.  The lint
# keeps only the defect classes no identity test below reliably sees:
# the host clock, set order (forked workers share the parent's hash
# secret), float clock compares, mutable defaults, hot-path __slots__,
# stray worker processes, the cache key and RNG seeds and streams.
sh scripts/lint.sh

# Every example runs to a zero exit, FAST included (the four take a few
# seconds together), so a docstring never cites an example that is gone
# or broken.  proxy_keepalive.py also drives ResponseParser through the
# blind proxy.
for example in examples/*.py; do
    python "$example" > /dev/null \
        || { echo "check.sh: $example exited non-zero" >&2; exit 1; }
done

# The pytest run carries the identity and recovery gates.  They alone
# catch a global-RNG draw, OS entropy and a module-global write on the
# worker path (no lint rule does):
#   same seed -> same result, different seeds -> different results —
#     tests/core/test_runner.py::test_same_seed_same_result and
#     ::test_different_seeds_vary_elapsed,
#     tests/faults/test_injector.py::test_same_seed_same_fault_schedule
#     and ::test_unit_seed_reaches_the_fault_injector,
#     tests/fleet/test_spec.py::test_population_is_deterministic
#   serial == parallel — tests/matrix/test_matrix_runner.py::
#     test_parallel_equals_serial_across_cells,
#     tests/faults/test_chaos.py::test_jobs_do_not_change_the_sweep
#   cached or journaled == fresh — tests/matrix/test_journal.py::
#     test_resume_replays_byte_identical,
#     tests/content/test_artifacts.py::
#     test_site_build_is_byte_identical_warm_and_disabled
#   fast-forward is byte-invisible (full-stack decline path, WAN and
#     PPP+modem bulk engagement) — tests/simnet/test_fastforward.py,
#     the full stack against a per-segment Network (no run option turns
#     fast-forward off) — ::test_http_pipelined_run_byte_identical,
#     with seeds 1-3 x LAN/WAN/PPP at 256 KB (each seed draws its own
#     jitter) — ::test_bulk_byte_identical_across_seeds — and the trace
#     read mid-span (row count and payload total at every delivery) —
#     ::test_mid_span_trace_reads_match_per_segment
#   a SIGKILLed worker is replaced alone and the grid finishes
#     byte-identical to serial — tests/matrix/test_supervisor.py::
#     test_sigkilled_worker_recovers_byte_identical
#   the event heap fires what a list sorted by (time, seq) fires, with
#     exact pending counts, across random schedules, cancels, runs and
#     fast-forward extract/reinsert — tests/simnet/test_engine_perf.py::
#     test_random_programs_match_a_sorted_reference
#   fleet results do not depend on --jobs — tests/fleet/test_runner.py::
#     test_jobs_do_not_change_results (LAN) and ..._wan (slow-marked,
#     48 WAN users contending for a 6 Mbit/s backbone)
#   memo-cold is byte-invisible (every declared memo held to one entry:
#     Tables 3-11, modem, eight chaos cells, a contended fleet) —
#     tests/test_memo.py::test_memo_cold_output_is_byte_identical
#     (not slow-marked: FAST=1 keeps it)
#   response heads that differ only in their leading Date (the one rule,
#     http/parser.py _cut_date) share one memo entry, and a
#     repeated first-time WAN fleet parses no new head —
#     tests/test_memo.py::
#     test_response_heads_that_differ_only_in_date_share_an_entry
#     (not slow-marked: FAST=1 keeps it)
#   every served response, cold or from its template, is cmp-equal to
#     build_response + a first Date + a last Connection field through
#     Response.to_bytes (every status, HEAD, each Connection rule, the
#     503 fault, split header writes, a MUX HEADERS frame), and a
#     template hit builds no Response or Headers —
#     tests/server/test_served_bytes.py (not slow-marked)
#   every request the robot sends, in every shape (first-time and
#     revalidate, HTTP/1.0 Keep-Alive, pipelined, downgraded to close,
#     a Range prefix and its tail, get-plus-head, conditional-or-head,
#     the Date fallback, a MUX HEADERS payload), is cmp-equal to
#     Request(...).to_bytes() of its fields on an empty serializer
#     memo, and a warm request builds no Request or Headers —
#     tests/client/test_request_bytes.py (not slow-marked)
#   the encode kernels are byte-identical: a site built with no
#     artifact store (so the GIF LZW and pixel generators really run,
#     not blobs an earlier encoder wrote) hashes to the pinned digest —
#     tests/content/test_kernels.py::test_cold_site_digest_is_pinned
#     (not slow-marked: FAST=1 keeps it)
#   no repro object is ever cyclic garbage (every mode x scenario, a
#     chaos cell per plan, the proxy chain, a render run, a contended
#     fleet under gc.DEBUG_SAVEALL) — tests/test_object_lifetime.py
#     (not slow-marked: FAST=1 keeps it)
#   the robot's connection ledger holds: after every handled response
#     its live list is exactly its open, un-retired states in opening
#     order (every mode x scenario on WAN, a chaos cell per fault plan
#     for pipelined and MUX) — tests/client/test_ledger.py
#     (not slow-marked: FAST=1 keeps it)
#   a page is complete when nothing it asked for is unhandled: at every
#     completion check of an unfinished robot an empty unhandled set
#     leaves nothing pending, queued or outstanding and the HTML
#     complete (the same runs as the ledger's) —
#     tests/client/test_completion.py (not slow-marked: FAST=1 keeps it)
#   nothing under src/repro is kept alive only by its tests: every
#     module backs a verb, every definition is named from src/ or
#     bench/, and every option (a defaulted __init__ parameter or
#     dataclass field, a spec's cache-key fields included: no spec
#     exemption) is set there —
#     tests/test_reachability.py::test_every_option_is_set_outside_its_tests
#     — and every attribute a class stores on self is read somewhere —
#     ::test_every_stored_attribute_is_read (not slow-marked: FAST=1
#     keeps them)
#   repro.lint is the static lint and nothing else: no module outside
#     lint/ but the __main__ root imports it —
#     tests/test_reachability.py::test_only_lint_imports_repro_lint —,
#     lint/ imports only itself and the standard library —
#     ::test_lint_imports_only_lint — and a checked MUX unit in a fresh
#     process loads no repro.lint module — tests/simnet/test_checks.py::
#     test_checked_unit_loads_no_lint (none slow-marked)
#   every golden trace fixture is its live cell: each of the eight
#     (seven golden, one captured under the flaky-server fault plan)
#     re-runs with the unit-end TCP check under the config the runner
#     derives for that cell, then is cmp-equal to the committed bytes —
#     tests/simnet/test_golden_traces.py (not slow-marked: FAST=1
#     keeps it)
#   every unit is content-checked, §8.2.1's HTML-only modem GETs
#     included (a served HTML that differs from the site's quarantines
#     the cell) — tests/core/test_runner.py::
#     test_the_modem_cells_are_content_checked
# ... and src/ never tunes the collector instead (the stats line's
# `gc K collected` reads gc.get_stats() only):
if grep -rnE "gc\.(disable|enable|freeze|unfreeze|set_threshold|collect)" src/
then
    echo "check.sh: collector tuning in src/ (DESIGN.md, Object lifetime)" >&2
    exit 1
fi
# A runner flag that makes no sense is an argparse usage error (exit 2)
# before anything runs — not a grid of quarantined units.
status=0
python -m repro table 4 --runs 1 --unit-deadline 0 > /dev/null 2>&1 \
    || status=$?
if [ "$status" -ne 2 ]; then
    echo "check.sh: --unit-deadline 0 exited $status, not 2" >&2
    exit 1
fi
# So is a journal RUN_ID that is not one directory name.
status=0
python -m repro table 4 --runs 1 --journal ../x > /dev/null 2>&1 \
    || status=$?
if [ "$status" -ne 2 ]; then
    echo "check.sh: --journal ../x exited $status, not 2" >&2
    exit 1
fi
# And a fleet spec with a number that is not finite.
status=0
python -m repro fleet --epoch nan > /dev/null 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
    echo "check.sh: fleet --epoch nan exited $status, not 2" >&2
    exit 1
fi
if [ "${FAST:-0}" = "1" ]; then
    python -m pytest -x -q -m "not slow"
else
    python -m pytest -x -q
    # The repo benchmark reaches src/ through public names only and
    # requires cold == replay and a repeating sim_digest on every
    # pass: its own tests and a smoke-scale run of all four workloads
    # catch a src/ change that breaks either before the pipeline does.
    # The smoke adds the traced pass: the only one that replays the
    # whole report from a warm cache and runs under the layer sampler.
    # Host time is measured by `bash bench/run.sh` and gated by the
    # pipeline against BENCHMARK.json's bounds, not here.
    python -m pytest bench/tests -q
    bash bench/run.sh --quick --trace 1 > /dev/null
fi

# Exercise the experiment-matrix engine end to end: two worker
# processes, results cached and journaled under a throwaway directory
# (the journal lands in "$SMOKE_CACHE/runs/report/").
SMOKE_CACHE=".repro-cache/check-smoke"
rm -rf "$SMOKE_CACHE"
mkdir -p "$SMOKE_CACHE"
python -m repro report --runs 1 --jobs 2 --cache-dir "$SMOKE_CACHE" \
    --journal > "$SMOKE_CACHE/first.out" 2> /dev/null
# A second pass must replay every unit from the journal (zero
# simulation runs) and print the same report.  The runner stats land
# on stderr; capture both streams explicitly rather than relying on
# redirection order tricks.
python -m repro report --runs 1 --jobs 2 --cache-dir "$SMOKE_CACHE" \
    --journal > "$SMOKE_CACHE/second.out" 2> "$SMOKE_CACHE/second.err"
grep -q " 0 simulated" "$SMOKE_CACHE/second.err" \
    || { echo "check.sh: journaled report re-ran simulations" >&2; exit 1; }
if grep -q " 0 journal hits" "$SMOKE_CACHE/second.err"; then
    echo "check.sh: journaled report replayed nothing" >&2
    exit 1
fi
cmp -s "$SMOKE_CACHE/first.out" "$SMOKE_CACHE/second.out" \
    || { echo "check.sh: journal replay printed another report" >&2; exit 1; }
rm -rf "$SMOKE_CACHE"

# Every unit the smokes above and below run ends with the TCP protocol
# check.  A naive close under pipelining resets the connection: `run`
# must quarantine that unit as an `invariant` failure and exit 1.
NAIVE_ERR="$(mktemp)"
if python -m repro run --mode pipelined --environment WAN \
        --server NaiveClose > /dev/null 2> "$NAIVE_ERR"; then
    echo "check.sh: a NaiveClose pipelined WAN run passed its check" >&2
    exit 1
fi
grep -q ": invariant after " "$NAIVE_ERR" \
    || { echo "check.sh: NaiveClose run was not an invariant quarantine" >&2
         exit 1; }
rm -f "$NAIVE_ERR"

# Chaos smoke: the whole 48-cell fault grid (~3 s serial) on two
# workers — every cell must still retrieve the full site byte-identical
# within the robot's retry budget, and the worker path gets exercised.
python -m repro chaos --seed 1997 --jobs 2 > /dev/null

# Claims gate: every paper claim and ablation the repo asserts, on two
# workers — the exit status is 0 only if every row of the ledger is
# PASS (about the cost of the report smoke above).  Every simulation
# but the proxy chain is a matrix unit, so the cached second pass, as
# the report smoke's, simulates nothing and prints the same ledger.
CLAIMS_CACHE=".repro-cache/check-claims"
rm -rf "$CLAIMS_CACHE"
mkdir -p "$CLAIMS_CACHE"
python -m repro claims --jobs 2 --cache --cache-dir "$CLAIMS_CACHE" \
    > "$CLAIMS_CACHE/cold.out"
python -m repro claims --jobs 2 --cache --cache-dir "$CLAIMS_CACHE" \
    > "$CLAIMS_CACHE/cached.out" 2> "$CLAIMS_CACHE/cached.err"
grep -q " 0 simulated" "$CLAIMS_CACHE/cached.err" \
    || { echo "check.sh: cached claims re-ran simulations" >&2; exit 1; }
cmp -s "$CLAIMS_CACHE/cold.out" "$CLAIMS_CACHE/cached.out" \
    || { echo "check.sh: cached claims printed another ledger" >&2; exit 1; }
rm -rf "$CLAIMS_CACHE"

echo "check.sh: all green"
