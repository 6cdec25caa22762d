"""The experiment runner: one fetch of Microscape, fully measured.

:class:`Testbed` is the one session assembly: the site and its resource
store, a :class:`~repro.simnet.network.Network` whose server host runs
the paper's Solaris stack, the protocol mode's listener(s), and one
robot per page fetched.  :func:`run_experiment` runs one robot on it to
quiescence, verifies the transfer was correct, and reduces the packet
trace to the paper's Pa / Bytes / Sec / %ov columns;
:func:`~repro.core.render.measure_render` and a fleet cohort
(:func:`~repro.fleet.engine.run_cohort`) drive the same assembly.
:class:`AveragedResult` is the mean of seeded runs, as every number in
Tables 3–11 is; the matrix engine builds one per cell.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import statistics
import traceback
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from ..client.robot import ClientConfig, FetchResult, Robot
from ..faults import (FaultInjector, FaultPlan, FaultyProfile, RecoveryLog,
                      resolve_fault_plan)
from ..content.microscape import MicroscapeSite, build_microscape_site
from ..http import MemoryCache
from ..server.profiles import ServerProfile
from ..server.static import ResourceStore
from ..simnet.checks import (InvariantViolationError, SanitizerConfig,
                             validate_rows)
from ..simnet.link import NetworkEnvironment
from ..simnet.network import SERVER_HOST, Network
from ..simnet.tcp import TcpConfig, TcpStack
from .modes import ProtocolMode
from .registry import (resolve_environment, resolve_mode, resolve_profile,
                       resolve_scenario)
from .scenarios import FIRST_TIME, REVALIDATE, prefill_cache
from .transport import FrameStreamValidator, Transport

__all__ = ["RunResult", "RESULT_FIELDS", "PAYLOAD_FIELDS",
           "AveragedResult", "ExperimentError", "MAX_SIM_TIME",
           "UnitFailure", "Testbed", "run_experiment",
           "warm_default_site", "reset_default_site", "nearest_rank"]


def nearest_rank(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with ≥ p% at or below.

    The estimator every fleet tail statistic uses: always an observed
    sample (no interpolation, so aggregates stay byte-reproducible
    across jobs counts and resumes), NaN on an empty sample.  ``p`` is
    in percent (50 → median, 99 → p99).
    """
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    if rank < 1:
        rank = 1
    elif rank > len(ordered):
        rank = len(ordered)
    return ordered[rank - 1]

#: Default jitter: a small seeded variation standing in for the network
#: fluctuations the paper averaged over five runs.
DEFAULT_JITTER = 0.02

#: How long a run may simulate before the robot is declared stuck:
#: every cell of the paper, PPP included, finishes well inside it.
MAX_SIM_TIME = 1200.0

#: The Microscape site and its resource store, built once per process
#: and held strongly together: every testbed serves this pair.
_DEFAULT_SITE_AND_STORE: Optional[Tuple[MicroscapeSite,
                                        ResourceStore]] = None


class ExperimentError(RuntimeError):
    """Raised when a run does not complete or returns wrong content."""


@dataclasses.dataclass
class RunResult:
    """Measurements from a single run (one row-cell of a table).

    The one declaration of the measurement row: every field except the
    in-process attachments (:data:`_TRANSIENT`) is a column of the
    cache / journal payload (:data:`PAYLOAD_FIELDS`), and every numeric
    column (:data:`RESULT_FIELDS`) is averaged by
    :class:`AveragedResult`.
    """

    packets: int
    payload_bytes: int
    percent_overhead: float
    elapsed: float
    packets_client_to_server: int
    packets_server_to_client: int
    connections_used: int
    max_parallel_connections: int
    retries: int
    #: Server CPU-busy seconds (the paper's future-work quantification).
    server_cpu_seconds: float
    mean_packets_per_connection: float
    mean_packet_size: float
    mean_request_bytes: float
    statuses: Dict[int, int]
    fetch: FetchResult
    #: Link drops split by cause, and TCP sender recovery totals (all
    #: zero on the paper's clean links; nonzero under fault injection).
    dropped_loss: int = 0
    dropped_overflow: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    fast_retransmits: int = 0
    checksum_drops: int = 0
    #: Fault / recovery event counts keyed ``"source.kind"``
    #: (:attr:`RecoveryLog.counts <repro.faults.RecoveryLog.counts>`;
    #: empty on clean runs).
    recovery: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Simulator work counters
    #: (:meth:`PerfCounters.as_dict <repro.perf.PerfCounters.as_dict>`).
    perf: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Full tcpdump-style trace lines (only when ``keep_trace=True``).
    trace_lines: Optional[str] = None


#: In-process attachments: live simulation objects and the raw trace
#: text, stripped from matrix results and never serialized.
_TRANSIENT = frozenset(("fetch", "trace_lines"))

#: The columns a cache / journal entry preserves.
PAYLOAD_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(RunResult)
    if f.name not in _TRANSIENT)

#: The numeric columns, the ones a table averages over seeded runs
#: (annotations are strings under ``from __future__ import annotations``).
RESULT_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(RunResult)
    if f.type in ("int", "float"))


@dataclasses.dataclass(frozen=True)
class UnitFailure:
    """A (cell, seed) work unit the engine could not complete.

    Failed units no longer abort a grid: the supervised
    :class:`~repro.matrix.runner.MatrixRunner` quarantines the unit as
    one of these — exception text, a stable digest of the traceback,
    the attempt count the retry ladder spent — and sibling units keep
    running.  Failures ride along in :attr:`AveragedResult.failures`
    and are excluded from every averaged measurement column.
    """

    label: str
    seed: int
    #: ``"invariant"`` (its trace broke a protocol invariant),
    #: ``"exception"`` (the unit raised anything else), ``"deadline"``
    #: (its worker blew the wall-clock budget) or ``"worker-lost"`` (its
    #: worker process died mid-chunk).
    kind: str
    #: ``ExceptionType: message`` for exception failures, else a short
    #: description of what the matrix runner observed.
    error: str
    #: First 12 hex digits of the SHA-256 of the formatted traceback
    #: ("" when there was no Python-level exception).  Stable across
    #: processes, so identical crashes dedupe by digest.
    traceback_digest: str
    #: Total attempts the retry ladder made before quarantining.
    attempts: int

    @classmethod
    def from_exception(cls, label: str, seed: int, exc: BaseException,
                       *, attempts: int = 1) -> "UnitFailure":
        text = "".join(traceback.format_exception(
            type(exc), exc, exc.__traceback__))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
        kind = ("invariant" if isinstance(exc, InvariantViolationError)
                else "exception")
        return cls(label=label, seed=int(seed), kind=kind,
                   error=f"{type(exc).__name__}: {exc}",
                   traceback_digest=digest, attempts=int(attempts))

    def summary(self) -> str:
        return (f"{self.label} seed={self.seed}: {self.kind} after "
                f"{self.attempts} attempt(s): {self.error}")


@dataclasses.dataclass
class AveragedResult:
    """Mean of several seeded runs — what the paper's tables print.

    Quarantined units arrive as :class:`UnitFailure` entries in
    :attr:`failures`; the averaged properties cover the successful runs
    only (and read as NaN when every unit of the cell failed, so a
    wrecked cell is loud in any table instead of silently zero).
    """

    runs: List[RunResult]
    failures: List[UnitFailure] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every requested unit produced a measurement."""
        return not self.failures

    def __getattr__(self, name: str) -> float:
        """Each numeric :class:`RunResult` column, averaged over the runs.

        ``max_parallel_connections`` reports the worst run instead of
        the mean.
        """
        if name not in RESULT_FIELDS:
            raise AttributeError(name)
        if not self.runs:
            return math.nan
        reduce = (max if name == "max_parallel_connections"
                  else statistics.fmean)
        return reduce(getattr(r, name) for r in self.runs)

    def percentile(self, p: float, attribute: str = "elapsed") -> float:
        """Nearest-rank percentile of ``attribute`` over successful runs.

        Quarantined units (:attr:`failures`) are skipped entirely — a
        partially-quarantined cell reports the percentile of the runs
        that *did* measure, deterministically, instead of poisoning the
        tail with NaN.  An all-failed cell still reads NaN (loud, like
        the means).
        """
        return nearest_rank([getattr(r, attribute) for r in self.runs], p)


def _default_site_and_store() -> Tuple[MicroscapeSite, ResourceStore]:
    global _DEFAULT_SITE_AND_STORE
    if _DEFAULT_SITE_AND_STORE is None:
        site = build_microscape_site()
        # Worker-global by design: the worker warm-up
        # (warm_default_site) builds this pair in the parent before the
        # fork and in every worker as it starts, so each process holds
        # the same one.
        _DEFAULT_SITE_AND_STORE = (site, ResourceStore.from_site(site))
    return _DEFAULT_SITE_AND_STORE


def warm_default_site() -> None:
    """Pre-build the default site and resource store.

    Worker warm-up hook: the parent calls this before forking workers
    (so the built site is shared copy-on-write) and each worker calls
    it as it starts, moving the one-time build cost off
    the first dispatched unit's critical path.  Idempotent and cheap
    when the artifact store is warm.
    """
    _default_site_and_store()


def reset_default_site() -> None:
    """Drop the process-wide site/store memo (and the build LRU).

    For benchmarks and tests that need the next :func:`run_experiment`
    to pay the true cold synthesis cost, as a fresh process would.
    """
    global _DEFAULT_SITE_AND_STORE
    _DEFAULT_SITE_AND_STORE = None
    build_microscape_site.cache_clear()


class Testbed:
    """The one session assembly: a site served across one network.

    Parameters
    ----------
    environment, profile:
        The (resolved) network environment and server profile.
    transport:
        The :class:`~repro.core.transport.Transport` whose listener(s)
        the server host starts.
    server_capacity:
        The listeners' accept-gate capacity (``None`` = unbounded).
    seed, jitter, network_options:
        Passed to :class:`~repro.simnet.network.Network`
        (``network_options``: a cohort's ``client_hosts`` and capacity
        schedule).
    """

    __slots__ = ("net", "site", "store", "profile", "servers")

    def __init__(self, environment: NetworkEnvironment,
                 profile: ServerProfile, transport: Transport, *,
                 seed: int = 0, jitter: float = 0.0,
                 server_capacity: Optional[int] = None,
                 **network_options) -> None:
        self.site, self.store = _default_site_and_store()
        self.profile = profile
        # The server host ran Solaris 2.5, whose delayed-ACK timer is
        # 50 ms (the clients were BSD-derived 200 ms stacks).
        self.net = Network(
            environment, seed=seed, jitter=jitter,
            server_config=TcpConfig(
                mss=environment.mss, delack_delay=0.050,
                initial_cwnd_segments=profile.initial_cwnd_segments),
            **network_options)
        self.servers = transport.start_servers(
            self.net.sim, self.net.server, self.store, profile,
            max_concurrent=server_capacity)

    def fetch_page(self, transport: Transport, config: ClientConfig,
                   scenario: str, *, stack: Optional[TcpStack] = None,
                   attach: Optional[Callable[[Robot], None]] = None
                   ) -> FetchResult:
        """Start one robot on the site's page; returns its live result.

        The per-page client step: a fresh cache (for a revalidation,
        adopting the validator prefill the store keeps per profile and
        site, built once however many testbeds use the store), the
        transport's client on ``stack`` (default: the first client host)
        talking to the primary listener, ``attach(robot)`` for callers
        that hook instrumentation in before the first segment leaves,
        then the fetch.  The caller runs the simulator.
        """
        cache = MemoryCache()
        known = self.site.all_urls() if scenario == REVALIDATE else None
        if known is not None:
            cache.adopt(self.store.derived(
                ("prefill", self.profile, tuple(known)),
                lambda: prefill_cache(MemoryCache(), self.store,
                                      self.site, self.profile)))
        robot = transport.create_client(
            self.net.sim, stack or self.net.client, SERVER_HOST,
            self.servers[0].port, config, cache)
        if attach is not None:
            attach(robot)
        return robot.fetch(self.site.html_url, scenario, known_urls=known)

    def check_trace(self, transport: Transport, config: ClientConfig, *,
                    faulty: bool, frames=None) -> None:
        """The unit-end protocol check, once the simulation has drained.

        Replays the collector's rows through
        :func:`~repro.simnet.checks.validate_rows` under the
        ``SanitizerConfig.for_run`` of this cell with the transport's
        trace rules; ``faulty`` (a run under a fault plan) allows the
        resets and re-dials recovery makes and skips the teardown and
        trace rules.  ``frames`` is a clean MUX run's
        :class:`~repro.core.transport.FrameStreamValidator`, finished
        here.  A violation raises
        :class:`~repro.simnet.checks.InvariantViolationError` naming
        the first five; the check never changes a result.
        """
        net = self.net
        checks = SanitizerConfig.for_run(
            environment=net.environment,
            server_nodelay=self.profile.nodelay,
            client_delack=net.client.config.delack_delay,
            server_delack=net.server.config.delack_delay,
            max_parallel=config.max_connections, faulty=faulty,
            mode_rules=transport.trace_rules(config))
        violations = validate_rows(net.trace.rows(), checks)
        if frames is not None:
            frames.finish(net.sim.now)
            violations += frames.violations
        if violations:
            raise InvariantViolationError(
                "; ".join(v.format() for v in violations[:5]))

    def close(self) -> None:
        """Release the network once the unit has its results; every
        ``Testbed(...)`` is followed by a ``finally`` that calls this."""
        self.net.close()


def run_experiment(mode: Union[str, ProtocolMode],
                   scenario: str, *,
                   environment: Union[str, NetworkEnvironment],
                   profile: Union[str, ServerProfile],
                   seed: int = 0,
                   client_config: Optional[ClientConfig] = None,
                   keep_trace: bool = False,
                   sanitize: bool = False,
                   faults: Union[None, str, FaultPlan] = None
                   ) -> RunResult:
    """Run one (mode, scenario, environment, server) cell.

    ``mode``, ``scenario``, ``environment`` and ``profile`` accept
    either the objects themselves or their canonical string names
    ("pipelined", "revalidate", "WAN", "Apache"), resolved through
    :mod:`repro.core.registry`.  ``environment`` and ``profile`` are
    keyword-only.

    ``client_config`` overrides the mode-derived configuration for
    ablations (flush policies, Nagle, buffer sizes).  The site is the
    process's memoized Microscape site and resource store.  Every run
    draws :data:`DEFAULT_JITTER` link jitter from ``seed``, simulates
    up to :data:`MAX_SIM_TIME` and then drains, and ends by checking
    it retrieved exactly the site's content (:func:`_verify`); a short
    or wrong transfer raises :class:`ExperimentError`.
    ``keep_trace=True`` preserves the full tcpdump-style trace as
    :attr:`RunResult.trace_lines` (the golden-trace tests rely on it).
    ``sanitize=True`` — what every matrix unit passes — ends the run
    with :meth:`Testbed.check_trace`: the captured trace is replayed
    through the TCP invariants (handshake order, sequence monotonicity,
    Nagle, delayed-ACK deadlines, half-close) and the mode's trace
    rules, and a MUX run's frames through the frame-stream rules (clean
    runs only: a re-dial under a fault plan restarts stream ids), and a
    violation raises
    :class:`~repro.simnet.checks.InvariantViolationError`.  The
    check never changes a result; ``sanitize=False`` skips it, so its
    cost can be measured.

    ``faults`` names a :class:`~repro.faults.FaultPlan` (or passes one
    directly): link faults are injected by a seeded
    :class:`~repro.faults.FaultInjector`, server faults wrap ``profile``
    in a :class:`~repro.faults.FaultyProfile`, and the client config is
    hardened (watchdog + downgrade ladder).
    With ``faults=None`` nothing changes: no injector is installed, no
    extra events are scheduled, and runs stay bit-identical to the
    golden traces.
    """
    mode = resolve_mode(mode)
    scenario = resolve_scenario(scenario)
    environment = resolve_environment(environment)
    profile = resolve_profile(profile)
    config = client_config or mode.client_config()
    plan = resolve_fault_plan(faults)
    recovery: Optional[RecoveryLog] = None
    if plan is not None:
        recovery = RecoveryLog()
        if plan.server.active:
            profile = FaultyProfile.wrap(profile, plan.server)
        config = _fault_hardened_config(config, environment)
    transport = mode.transport
    testbed = Testbed(environment, profile, transport, seed=seed,
                      jitter=DEFAULT_JITTER)
    try:
        net, servers, site = testbed.net, testbed.servers, testbed.site
        if plan is not None and plan.link.active:
            # A private RNG stream (offset from the run seed) so injecting
            # faults never perturbs the link's jitter draw sequence.
            FaultInjector(net.link, plan.link, seed=seed + 7919,
                          recovery=recovery)
        for srv in servers:
            srv.recovery = recovery
        frame_validator = None
        if sanitize and transport.mux and plan is None:
            frame_validator = FrameStreamValidator(
                push_allowed=transport.push)
            for srv in servers:
                srv.frame_tap = frame_validator.observe

        def attach(robot: Robot) -> None:
            if frame_validator is not None:
                robot.frame_tap = frame_validator.observe
            if recovery is not None:
                # One shared log: injector, server and robot all write to it.
                robot.result.recovery = recovery

        result = testbed.fetch_page(transport, config, scenario, attach=attach)
        net.run(until=MAX_SIM_TIME)
        net.sim.run()   # drain any residual timers/ACKs past the deadline
        if sanitize:
            testbed.check_trace(transport, config, faulty=plan is not None,
                                frames=frame_validator)
        if not result.complete:
            detail = (f" (terminal: {result.terminal_error})"
                      if result.terminal_error else "")
            raise ExperimentError(
                f"fetch did not complete{detail}: "
                f"{len(result.responses)} responses, "
                f"errors={result.errors}")
        _verify(result, scenario, config, site)
        statuses: Dict[int, int] = {}
        for response in result.responses.values():
            statuses[response.status] = statuses.get(response.status, 0) + 1
        trace = net.trace.summary()
        client, server = net.client, net.server
        return RunResult(
            **{name: getattr(trace, name) for name in RESULT_FIELDS
               if hasattr(trace, name)},
            retransmissions=(client.retransmissions
                             + server.retransmissions),
            timeouts=client.timeouts + server.timeouts,
            fast_retransmits=(client.fast_retransmits
                              + server.fast_retransmits),
            checksum_drops=client.checksum_drops + server.checksum_drops,
            elapsed=result.elapsed or 0.0,
            connections_used=result.connections_used,
            max_parallel_connections=result.max_parallel_connections,
            retries=result.retries,
            server_cpu_seconds=sum(s.cpu_busy_seconds for s in servers),
            mean_request_bytes=result.mean_request_bytes,
            statuses=statuses,
            fetch=result,
            recovery=dict(recovery.counts) if recovery else {},
            perf=trace.perf.as_dict(),
            trace_lines=net.trace.format_trace() if keep_trace else None)
    finally:
        testbed.close()


def _fault_hardened_config(config: ClientConfig,
                           environment: NetworkEnvironment) -> ClientConfig:
    """The hardening a run under fault injection adds: a watchdog that
    scales with the environment's RTT (so slow modem links are not
    mistaken for stalled servers) and the downgrade ladder."""
    return dataclasses.replace(
        config, watchdog_timeout=10.0 + 40.0 * environment.rtt,
        downgrade_after=2)


def _verify(result: FetchResult, scenario: str, config: ClientConfig,
            site: MicroscapeSite) -> None:
    """Check the run retrieved exactly the right content.

    That is every site URL, except that a first-time fetch which does
    not follow images (§8.2.1's HTML-only GET) asks for the HTML alone;
    a revalidation re-checks the robot's whole cache either way.
    """
    if scenario == FIRST_TIME and not config.follow_images:
        expected_urls = {site.html_url}
    else:
        expected_urls = set(site.all_urls())
    got_urls = set(result.responses)
    if got_urls != expected_urls:
        raise ExperimentError(
            f"missing responses for {sorted(expected_urls - got_urls)}; "
            f"unexpected responses for {sorted(got_urls - expected_urls)}")
    for url, response in result.responses.items():
        if scenario == FIRST_TIME:
            if response.status != 200:
                raise ExperimentError(f"{url}: status {response.status}")
            if response.request_method == "GET" \
                    and response.body != site.objects[url].body:
                raise ExperimentError(f"{url}: body mismatch")
        else:
            if response.status not in (200, 304):
                raise ExperimentError(f"{url}: status {response.status}")
