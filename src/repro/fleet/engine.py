"""Cohort execution: one simulator hosts a whole slice of the fleet.

:func:`run_cohort` is the fleet's work unit.  It builds the same
:class:`~repro.core.runner.Testbed` a single-robot experiment runs on —
here with N client hosts sharing the server's bottleneck link, whose
per-epoch capacity schedule encodes the shares other cohorts claim,
and a plain-HTTP listener with finite service capacity — and drives
every user of the cohort through their compiled
:class:`~repro.fleet.spec.UserPlan`: arrive, fetch a page
(:meth:`Testbed.fetch_page <repro.core.runner.Testbed.fetch_page>`,
the paper's robot), think, fetch the next.

The result is a :class:`CohortResult`: per-session page-load times,
per-epoch downlink demand (what the parent's fixed-point pass feeds
on), and the server's queueing record.  A JSON codec is registered
with the matrix cache at import, so cohort results ride the result
cache and the run journal byte-identically.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from ..core.registry import (resolve_environment, resolve_mode,
                             resolve_profile)
from ..core.runner import Testbed
from ..core.transport import Transport
from ..matrix.cache import register_dataclass_codec
from ..simnet.network import SERVER_HOST, fleet_client_host
from .spec import FleetUnitSpec, UserPlan

__all__ = ["SessionStats", "CohortResult", "run_cohort"]

#: Link jitter of every cohort: none, so a page time moves only with
#: the population's arrivals, think times and contention.
JITTER = 0.0


@dataclasses.dataclass(frozen=True)
class SessionStats:
    """One user's measured session."""

    user: int
    mode: str
    arrival: float
    #: Completed page-load times, in page order.
    page_times: Tuple[float, ...]
    pages_started: int
    #: Pages that failed or never finished before the deadline.
    errors: int

    @property
    def mean_page_time(self) -> float:
        if not self.page_times:
            return float("nan")
        return sum(self.page_times) / len(self.page_times)


@dataclasses.dataclass(frozen=True)
class CohortResult:
    """Everything one cohort simulation measured."""

    cohort: int
    users: int
    sessions: Tuple[SessionStats, ...]
    epoch: float
    #: Server→clients wire bytes per capacity epoch (the downlink
    #: demand signal the fixed-point share exchange consumes).
    epoch_bytes_down: Tuple[float, ...]
    #: Accept-backlog waits, one per connection that had to park.
    queue_waits: Tuple[float, ...]
    server_cpu_seconds: float
    connections_accepted: int
    requests_served: int
    packets: int
    sim_time: float
    fastforward_spans: int

    @property
    def page_times(self) -> List[float]:
        """Completed page-load times across the cohort, session order."""
        return [elapsed for session in self.sessions
                for elapsed in session.page_times]

    @property
    def errors(self) -> int:
        return sum(session.errors for session in self.sessions)


class _Session:
    """One user's page-fetch loop inside the cohort simulator."""

    __slots__ = ("testbed", "stack", "plan", "fleet", "transport",
                 "config", "page_times", "pages_started", "errors")

    def __init__(self, testbed: Testbed, stack, plan: UserPlan,
                 fleet) -> None:
        self.testbed = testbed
        self.stack = stack
        self.plan = plan
        self.fleet = fleet
        mode = resolve_mode(plan.mode)
        self.transport = mode.transport
        self.config = mode.client_config()
        self.page_times: List[float] = []
        self.pages_started = 0
        self.errors = 0

    def fetch_page(self) -> None:
        self.pages_started += 1
        self.testbed.fetch_page(self.transport, self.config,
                                self.fleet.scenario, stack=self.stack,
                                attach=self._attach)

    def _attach(self, robot) -> None:
        robot.on_complete = self._page_done

    def _page_done(self, result) -> None:
        if not result.complete:
            # A failed page ends the session: real users give up.
            self.errors += 1
            return
        self.page_times.append(result.elapsed)
        if self.pages_started < self.fleet.pages_per_user:
            think = self.plan.think_times[self.pages_started - 1]
            self.testbed.net.sim.schedule(think, self.fetch_page)

    def stats(self) -> SessionStats:
        # Pages still in flight when the deadline hit never fired
        # on_complete; they count as errors so totals reconcile.
        unfinished = (self.pages_started - len(self.page_times)
                      - self.errors)
        return SessionStats(
            user=self.plan.index, mode=self.plan.mode,
            arrival=self.plan.arrival,
            page_times=tuple(self.page_times),
            pages_started=self.pages_started,
            errors=self.errors + max(0, unfinished))


def run_cohort(unit: FleetUnitSpec, seed: int) -> CohortResult:
    """Simulate one cohort under its granted capacity shares."""
    fleet = unit.fleet
    plans = fleet.cohort_plans(unit.cohort)
    # Every fleet mode speaks plain HTTP to the one port-80 listener
    # (the mode mix names no other), so the base transport serves all.
    testbed = Testbed(
        resolve_environment(fleet.environment),
        resolve_profile(fleet.server), Transport(),
        seed=seed, jitter=JITTER,
        server_capacity=fleet.server_capacity,
        client_hosts=[fleet_client_host(i) for i in range(len(plans))],
        capacity_epoch=fleet.epoch, capacity_shares=unit.shares)
    try:
        net, server = testbed.net, testbed.servers[0]
        sessions: List[_Session] = []
        for stack, plan in zip(net.clients, plans):
            session = _Session(testbed, stack, plan, fleet)
            sessions.append(session)
            net.sim.schedule_at(plan.arrival, session.fetch_page)
        # The deadline is *hard* (unlike the single-robot runner's drain):
        # an overloaded population would otherwise run for unbounded
        # simulated time.  Pages still in flight count as session errors.
        net.run(until=fleet.max_sim_time)
        return CohortResult(
            cohort=unit.cohort,
            users=len(plans),
            sessions=tuple(session.stats() for session in sessions),
            epoch=fleet.epoch,
            epoch_bytes_down=tuple(net.trace.wire_bytes_per_epoch(
                SERVER_HOST, fleet.epoch, len(unit.shares))),
            queue_waits=tuple(server.queue_waits),
            server_cpu_seconds=server.cpu_busy_seconds,
            connections_accepted=server.connections_accepted,
            requests_served=server.requests_served,
            packets=len(net.trace),
            sim_time=net.sim.now,
            fastforward_spans=net.sim.perf.fastforward_spans)
    finally:
        testbed.close()


register_dataclass_codec("fleet-cohort", CohortResult)
