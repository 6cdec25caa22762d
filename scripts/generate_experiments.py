#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: run every experiment, record vs paper.

Run:  python scripts/generate_experiments.py [--runs N] [--out PATH]
"""

import argparse
import io
import time

from repro.analysis import generate_experiments_report

PREAMBLE = """\
# EXPERIMENTS — paper vs. measured

Every table and figure of *Network Performance Effects of HTTP/1.1,
CSS1, and PNG* (SIGCOMM '97), reproduced by this library and printed
next to the published numbers.  Regenerate with:

    python scripts/generate_experiments.py

Columns: `Pa` packets (both directions), `Bytes` application payload,
`Sec` elapsed time, `%ov` TCP/IP header overhead share; `(p)`/`(paper)`
columns are the published values; ratio columns are measured/paper.
Protocol cells are means of {runs} seeded simulation runs (the paper
averaged 5 real runs); browser tables use {browser_runs} runs (the
paper used 3).

## Reading guide

The reproduction targets *shape*, not absolute equality: who wins, by
roughly what factor, where the crossovers sit.  The substrate is a
deterministic TCP simulator calibrated with a handful of constants
(server CPU costs, WAN bottleneck rate, modem efficiency — see
DESIGN.md); everything else is emergent from real TCP mechanics, real
HTTP bytes, and real image codecs.

Headline checks (all enforced by `benchmarks/`):

* pipelined HTTP/1.1 vs HTTP/1.0-with-4-connections: ≥2× fewer packets
  on first retrieval, ~10× on revalidation, lower elapsed time in every
  environment;
* HTTP/1.1 *without* pipelining: far fewer packets than HTTP/1.0 but
  **higher elapsed time** (Tables 3, 6, 7);
* deflate: ~3× on the HTML, ~16 % of packets and ~12 % of time on first
  retrieval, ~68 %/~64 % on the HTML-only modem test;
* GIF→PNG ≈ 10 % smaller overall with the sub-200 B images *growing*;
  animations→MNG ≈ 35 % smaller;
* Figure 1: ≥4× byte reduction from HTML+CSS, one request saved.

A final section quantifies the paper's *future work*: the compact HTTP
wire representation (its "factor of five or ten" envelope), the server
CPU savings it said "could now be quantified", rendering timelines with
range-request multiplexing, progressive-format byte fractions, and the
two-connection packet-train effect.

## Robustness under injected faults

The closing robustness table re-runs the pipelined WAN first-time
fetch under each named fault plan (`repro.faults`): Gilbert–Elliott
bursty segment loss, combined wire chaos (loss + reordering +
duplication + payload corruption caught by the receiver's checksum),
a flaky server (scripted 503s and mid-body aborts), and a hostile
server (close-after-one-response plus a long stall).  Every row still
retrieves all 43 resources byte-identically; the columns show what the
recovery cost — drops split by cause, TCP retransmissions / RTO fires /
fast retransmits, checksum discards, and client-level retries.

The full sweep is `python -m repro chaos`: every fault plan × protocol
mode (pipelined, persistent, HTTP/1.0, MUX, MUX push, sharded) ×
environment (WAN, PPP), 48 cells, deterministic in `--seed` (default
1997; per-cell seeds are derived from the cell coordinates, so no two
cells share a fault schedule).  A failing cell reproduces in isolation
from its printed coordinates alone:

    python -m repro chaos --seed 1997 --only bursty-loss:pipelined:WAN

With `faults=None` (the default everywhere) the injector is never
installed and the seven golden WAN traces remain byte-identical.

### Robustness of the harness itself

The faults above attack the simulated network and server; a second
layer (`repro.faults.harness`) attacks the experiment harness — the
worker processes that execute the grid.  `HarnessFaultPlan` scripts
three machine faults deterministically by unit ordinal, seed and
attempt number: a worker that SIGKILLs itself mid-chunk (an OOM kill
or segfault), a cell that hangs far past any reasonable wall budget
(a wedged syscall), and a poison cell that raises on every attempt (a
deterministic bug).

The matrix supervisor (`repro.matrix.supervisor`) must absorb all
three.  Dispatched chunks carry per-unit wall-clock deadlines
(`--unit-deadline`, defaulting to a fraction of the cell's
`max_sim_time`); a liveness watch on the pool's worker processes
notices a dead worker within one poll tick.  On either signal the
pool is terminated and respawned and the lost chunks are
re-dispatched under a capped retry budget (`--retry-budget`, default
2), walking the same downgrade ladder as the fetch robot: parallel
retry → serial in-parent retry → quarantine.  Only exception failures
reach the serial rung — a unit that hangs or kills its worker would
do the same to the parent.  A quarantined unit becomes a structured
`UnitFailure` (exception text, traceback digest, attempt count) on
its cell's `AveragedResult` instead of aborting the grid, so one
poisoned cell costs one row, not the run.

Because a unit's computation is independent of where and how often it
runs, recovery is *byte-identical*: a grid that survives a worker
kill produces exactly the numbers of an undisturbed serial run
(`tests/matrix/test_supervisor.py` enforces this on every check), and
the supervised machinery leaves the seven golden WAN traces and the
48-cell chaos grid untouched.

Interrupted runs resume rather than restart: `--journal` records
every resolved unit (measurements *and* quarantine verdicts) into a
crash-safe append-only journal under `.repro-cache/runs/<RUN_ID>/`,
each record written temp-then-rename so a crash at any instant leaves
a complete record or none.  `--resume RUN_ID` replays journaled units
byte-for-byte and simulates only what is missing; `chaos --journal` /
`chaos --resume` do the same at cell granularity.

## Modern protocol modes

The paper closes by pointing past pipelining — at multiplexed
transports ("HTTP-NG"), server push, and the workarounds deployed
while the world waited.  Three post-paper modes put numbers on that
future against the same 1997 networks (the "Modern protocol modes"
table below; also `python -m repro report`):

* **HTTP/MUX** (`--mode mux`) — one TCP connection carrying
  HTTP/2-shaped frames: every request opens an odd-numbered stream,
  responses interleave as flow-controlled `DATA` frames (16 KB initial
  window, 4 KB max frame), so the 35 KB hero GIF no longer blocks the
  small images behind it.
* **HTTP/MUX Push** (`--mode mux-push`) — after a 200 HTML response
  the server speculatively promises and frames all 42 inline GIFs on
  even-numbered streams; the client refuses duplicates with `CANCEL`
  (cancel-on-duplicate), so a warm cache costs only a promise frame,
  never a transfer.
* **HTTP/1.1 Sharded x4** (`--mode sharded`) — the late-90s workaround
  the MUX modes obsolete: content hashed across 4 origins (ports
  80–83), 2 redundant persistent connections each.  More parallelism,
  8 slow-start ramps, and 8 connections' worth of per-packet overhead.

The headline matches the history: on the WAN, MUX framing costs about
as much as disciplined pipelining buys (the frame headers are the %ov
delta), push saves the request packets on first visits and stays
dormant on revalidation, and sharding wins only where parallel server
CPU beats connection overhead (the LAN) — which is why HTTP/2
multiplexes one connection instead.

Modes are an open registry, not an enum: a transport plugs in with

    from repro.core.modes import ProtocolMode
    from repro.core.registry import register_mode
    register_mode(ProtocolMode("HTTP/FANCY", HTTP11, transport=...),
                  aliases=("fancy",), environments=("LAN", "WAN"))

and immediately resolves everywhere a mode is named — `run_experiment`,
`ExperimentMatrix`, the chaos planner, the sanitizer (each transport
contributes its own trace rules: "exactly one connection" for MUX,
"every origin port dialed, ≤2 handshakes each" for sharding, frame
legality and flow-control accounting for both MUX modes), and the
report tables.

## Performance

The whole reproduction is wall-time-bounded by the simulator kernel,
so the kernel carries an opt-in **flow-level fast-forward**
(`repro.simnet.fastforward`): when the TCP layer flags a
window-limited sender in steady bulk transfer — ESTABLISHED, no loss
or recovery in sight, a deep send queue, the receiver a pure sink
with textbook delayed-ACK state — the driver lifts the flow's
in-flight deliveries and timer standings off the event heap and
replays the per-segment arithmetic (cwnd growth, RTT estimation,
delayed ACKs, FIFO link serialization with the same RNG jitter draws,
V.42bis dictionary updates) in a tight local loop, synthesizing the
exact packet records per-segment execution would have produced.  Any
discontinuity — another flow's event, an application callback doing
anything at all, an RTO deadline, the send queue running low, an
exact event-time tie — ends the span and hands back to per-segment
execution.  A span pays a heap scan and two heap rebuilds, so a flow
whose first span synthesizes almost nothing (request/response traffic
where the application's next request breaks every span immediately)
is vetoed and runs per-segment for the rest of its life — the HTTP
cells pay at most one probe span per connection.

Traces are byte-identical by construction and by gate:
`tests/simnet/test_fastforward.py` compares a full-stack HTTP cell
and WAN and PPP bulk transfers against `fastpath=False`, the seven
golden WAN fixtures and the 48-cell chaos grid run with the driver
enabled, and the `bulk_kernel` workload of the repo benchmark
re-verifies identity record by record before reporting timings.
Measured on the bulk-transfer cells when the driver landed (PR 7,
best of 3; re-measure with `bash bench/run.sh --workload bulk_kernel`,
metric `simnet.fastforward.speedup`):

    cell                        on        off      speedup
    bulk-8MB | LAN              34 ms     132 ms   3.9x
    bulk-4MB | WAN              16 ms      69 ms   4.3x
    bulk-2MB no-modem | PPP     10 ms      46 ms   4.8x
    bulk-1MB no-modem | PPP      6 ms      22 ms   3.6x

`fastpath` is a cache-key dimension of `ExperimentSpec` and an escape
hatch everywhere a run is configured: `python -m repro run
--no-fastpath`, `run_experiment(..., fastpath=False)`,
`TcpConfig(fastpath=False)`.

Every number above that came out of the result cache is only as
trustworthy as the cache key, and every averaged run only as
reproducible as its RNG streams — so both properties are now
machine-checked: `python -m repro lint --deep` (run by
`scripts/check.sh` against the committed `DEEP_BASELINE.json`)
verifies that each run-affecting spec field and `run_experiment`
parameter is cache-keyed or explicitly waived, that every
`random.Random` seed derives from the experiment seed, and that
worker-pool code touches no unsanctioned module state.  Fix a
baselined finding, delete its entry, and the gate holds the line;
refresh with `--write-baseline DEEP_BASELINE.json` only after
reviewing what changed.

## Population-scale experiments

The paper's tables measure one robot against one server.  The fleet
engine (`repro.fleet`) scales the same simulator to whole populations:

    python -m repro fleet --users 1000 --cohorts 16 --environment WAN \\
        --arrival-rate 10 --pages-per-user 1 --backbone-bps 45e6 \\
        --max-sim-time 300 --jobs 4 --cache --progress

A `FleetSpec` compiles into per-user plans — Poisson arrivals, a
weighted protocol-mode mix (plain-HTTP modes only: a cohort shares
one port-80 listener), exponential think-times between pages — all
drawn from one seeded RNG stream in strict user-index order, so the
schedule is a pure function of the spec.  The population shards into
cohorts; one simulator hosts each cohort end to end (N client stacks,
one finite-capacity server, a shared bottleneck link), and cohorts
interact only through an analytic bottleneck model: each fixed-point
round the parent water-fills the backbone capacity over the cohorts'
measured per-epoch downlink demands (max-min fair; ≥90 % use of a
grant reads as saturation, bounded demands get 25 % headroom over a
5 %-of-equal-split floor) and re-simulates every cohort under its new
shares.  Shares are integer-quantized bits/second *before* unit
construction, and the quantized share vector + cohort index + every
`FleetSpec` field (`FLEET_CACHE_KEY_FIELDS`, held complete by the
deep linter's cache-key pass) form the unit's cache identity — so a
10k-user run is just a grid of cacheable, journaled matrix units, and
`--resume` of a killed run hydrates byte-identically, as do `--jobs 1`
vs `--jobs N`.

Two semantics deliberately differ from the single-robot runner:
`max_sim_time` is a *hard* deadline (an overloaded population would
otherwise run for unbounded simulated time), with pages still in
flight at the cutoff counted as session errors; and a failed page
ends its session, the way real users give up.

The fleet report leads with what single-robot tables cannot show:
nearest-rank p50/p95/p99 page-load time overall and per protocol
mode, Jain's fairness index over per-session means, and the server's
accept-backlog queueing record.  Throughput when the fleet engine
landed (PR 10, serial): 1000 WAN users in 16 cohorts simulate in
~13 s of wall time — ~4700 users/minute — at p50 1.33 s / p95 6.23 s /
p99 6.60 s with zero errors.  Re-measure with `bash bench/run.sh
--workload fleet_wan` (the same population at quarter scale, metric
`units_per_min`).

## Known deviations

* **HTTP/1.0 first-retrieval byte counts** run ~12 % below the paper's
  (≈188 KB vs ≈216 KB).  The paper's old libwww 4.1D client evidently
  sent even fatter requests than our reconstruction; the orderings and
  every packet count are unaffected.
* **Jigsaw revalidation bytes** are ~10–15 % low for the same reason
  (exact 1997 Jigsaw response headers are not recoverable).
* **Mixed-case deflate penalty** reproduces in direction (mixed > lower)
  but smaller than the paper's 0.35-vs-0.27 because the synthetic page
  is less tag-dense than the real Netscape/Microsoft merge.
* **Table 3 / Table 10 elapsed times** depend on unpublished details
  (libwww's disk-cache latency, browser scheduling); we model the
  paper's stated mechanisms and match within ~2× where the paper's own
  explanation is qualitative.
* The robot's mean request size is ~120–150 B against the paper's
  ~190 B: our synthetic URLs are shorter than real 1997 paths.

---

"""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--browser-runs", type=int, default=3)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    args = parser.parse_args()

    start = time.time()
    body = generate_experiments_report(runs=args.runs,
                                       browser_runs=args.browser_runs)
    elapsed = time.time() - start

    out = io.StringIO()
    out.write(PREAMBLE.format(runs=args.runs,
                              browser_runs=args.browser_runs))
    out.write("```\n")
    out.write(body)
    out.write("\n```\n\n")
    out.write(f"*Generated in {elapsed:.0f} s of wall time "
              f"(simulated hours of 1997 network traffic).*\n")
    with open(args.out, "w") as handle:
        handle.write(out.getvalue())
    print(f"wrote {args.out} ({elapsed:.0f} s)")


if __name__ == "__main__":
    main()
