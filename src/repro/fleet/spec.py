"""Declarative population specifications for fleet runs.

A :class:`FleetSpec` describes a whole robot *population*: how many
users, how they arrive (a seeded Poisson process), which protocol mode
each runs (a draw from the fixed :data:`DEFAULT_MODE_MIX`), how they
think between pages, and the shared-bottleneck regime they contend
under (cohort count, per-epoch capacity schedule, finite server
capacity).  :meth:`compile_population`
expands the spec into per-user :class:`UserPlan` rows — every draw
comes from one seeded ``random.Random`` stream in user-index order, so
the schedule is a pure function of the spec and identical across
``--jobs 1`` / ``--jobs N`` / a ``--journal`` replay.

A :class:`FleetUnitSpec` is one *cohort* of that population at one
fixed-point round: the unit of work the matrix engine dispatches,
caches and journals.  Its cache identity covers every
:class:`FleetSpec` field (derived from the dataclass by
:func:`~repro.matrix.spec.canonical_fields`, so a new population
dimension keys the cache by default) plus the cohort index and the
integer-quantized per-epoch capacity shares, so each fixed-point round
is a distinct cacheable unit and a resumed run hydrates
byte-identically.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from ..core.registry import (resolve_environment, resolve_profile,
                             resolve_scenario)
from ..matrix.spec import canonical_fields, registered_name

__all__ = ["DEFAULT_MODE_MIX", "UserPlan", "FleetSpec", "FleetUnitSpec"]

#: The population's mode mix: mostly tuned HTTP/1.1 users with an
#: HTTP/1.0 legacy tail (plain-HTTP modes only — a fleet cohort shares
#: one port-80 listener, which MUX/sharded modes cannot use).
DEFAULT_MODE_MIX: Tuple[Tuple[str, float], ...] = (
    ("HTTP/1.1 Pipelined", 0.5),
    ("HTTP/1.1", 0.3),
    ("HTTP/1.0", 0.2),
)


@dataclasses.dataclass(frozen=True)
class UserPlan:
    """One user's compiled schedule: when they arrive, what they run."""

    index: int
    cohort: int
    arrival: float
    mode: str
    #: Think-time before each follow-up page (``pages_per_user - 1``
    #: entries).
    think_times: Tuple[float, ...]


@dataclasses.dataclass(frozen=True)
class FleetSpec:
    """A population of robot sessions contending for one bottleneck."""

    #: Weighted (mode name, weight) mix every population draws from.
    modes: ClassVar[Tuple[Tuple[str, float], ...]] = DEFAULT_MODE_MIX

    users: int = 200
    cohorts: int = 4
    environment: str = "WAN"
    scenario: str = "first-time"
    server: str = "Apache"
    #: Poisson arrival rate, users per second of simulated time.
    arrival_rate: float = 2.0
    #: Mean exponential think-time between a user's pages (seconds);
    #: 0 disables thinking (back-to-back pages).
    think_time: float = 5.0
    pages_per_user: int = 2
    #: Finite server capacity **per cohort** (each cohort simulates its
    #: own server): concurrent connections handled before excess accepts
    #: park in the FIFO backlog (None = unbounded).
    server_capacity: Optional[int] = 32
    #: Shared backbone capacity split across cohorts (bits/second);
    #: None = the environment's own link bandwidth.
    backbone_bps: Optional[float] = None
    #: Capacity-share epoch: the granularity (simulated seconds) at
    #: which cohorts exchange bottleneck shares.
    epoch: float = 30.0
    #: Fixed-point rounds of the share exchange (1 = static equal split).
    rounds: int = 2
    max_sim_time: float = 600.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "environment", registered_name(
            self.environment, resolve_environment))
        object.__setattr__(self, "scenario",
                           resolve_scenario(self.scenario))
        object.__setattr__(self, "server",
                           registered_name(self.server, resolve_profile))
        if self.users <= 0:
            raise ValueError("a fleet needs at least one user")
        if not 0 < self.cohorts <= self.users:
            raise ValueError(f"cohorts must be in 1..users "
                             f"({self.cohorts} vs {self.users} users)")
        for name in ("arrival_rate", "think_time", "backbone_bps", "epoch",
                     "max_sim_time"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value}")
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if self.think_time < 0:
            raise ValueError("think_time must be >= 0")
        if self.pages_per_user < 1:
            raise ValueError("pages_per_user must be >= 1")
        if self.server_capacity is not None and self.server_capacity < 1:
            raise ValueError("server_capacity must be >= 1 (or None)")
        if self.backbone_bps is not None and self.backbone_bps <= 0:
            raise ValueError("backbone_bps must be positive (or None)")
        if self.epoch <= 0:
            raise ValueError("epoch must be positive")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.max_sim_time <= 0:
            raise ValueError("max_sim_time must be positive")

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def n_epochs(self) -> int:
        """How many capacity epochs cover ``max_sim_time``."""
        return max(1, int(math.ceil(self.max_sim_time / self.epoch)))

    def backbone_bandwidth(self) -> float:
        """The shared capacity cohorts split (bits per second)."""
        if self.backbone_bps is not None:
            return float(self.backbone_bps)
        return resolve_environment(self.environment).bandwidth_bps

    @property
    def label(self) -> str:
        return (f"fleet {self.users}u/{self.cohorts}c "
                f"{self.environment} seed={self.seed}")

    # ------------------------------------------------------------------
    # Population compilation
    # ------------------------------------------------------------------
    def compile_population(self) -> List[UserPlan]:
        """Expand the spec into per-user plans, deterministically.

        One seeded RNG stream, consumed strictly in user-index order
        (arrival gap, then mode, then think-times), so the schedule
        never depends on job count, dispatch order or resume state.
        """
        seed = self.seed
        rng = random.Random(seed)
        names = [name for name, _ in self.modes]
        weights = [weight for _, weight in self.modes]
        arrival = 0.0
        plans: List[UserPlan] = []
        for index in range(self.users):
            arrival += rng.expovariate(self.arrival_rate)
            mode = rng.choices(names, weights)[0]
            if self.think_time > 0:
                thinks = tuple(rng.expovariate(1.0 / self.think_time)
                               for _ in range(self.pages_per_user - 1))
            else:
                thinks = (0.0,) * (self.pages_per_user - 1)
            plans.append(UserPlan(index=index,
                                  cohort=index % self.cohorts,
                                  arrival=arrival, mode=mode,
                                  think_times=thinks))
        return plans

    def cohort_plans(self, cohort: int) -> List[UserPlan]:
        """The plans of one cohort, in user-index order."""
        if not 0 <= cohort < self.cohorts:
            raise ValueError(f"cohort {cohort} out of range "
                             f"0..{self.cohorts - 1}")
        return [plan for plan in self.compile_population()
                if plan.cohort == cohort]

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def canonical_dict(self) -> Dict[str, Any]:
        """JSON-stable identity covering every population dimension."""
        return canonical_fields(self)

    def replace(self, **changes: Any) -> "FleetSpec":
        return dataclasses.replace(self, **changes)


@dataclasses.dataclass(frozen=True)
class FleetUnitSpec:
    """One cohort at one fixed-point round: a matrix work unit.

    Duck-types the :class:`~repro.matrix.spec.ExperimentSpec` surface
    the matrix engine relies on (``label`` / ``seeds`` / ``runs`` /
    ``max_sim_time`` / ``canonical_dict`` / picklability) and carries
    ``execute_unit`` so :func:`~repro.matrix.runner.run_unit`
    dispatches here instead of :func:`~repro.core.runner
    .run_experiment`.  ``shares`` are integer-quantized bits/second per
    epoch — quantized *before* unit construction, so the cache key and
    the simulated schedule can never disagree.
    """

    fleet: FleetSpec
    cohort: int
    #: Per-epoch downlink capacity granted to this cohort (bps).
    shares: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.cohort < self.fleet.cohorts:
            raise ValueError(f"cohort {self.cohort} out of range")
        if len(self.shares) != self.fleet.n_epochs:
            raise ValueError(
                f"need {self.fleet.n_epochs} epoch shares, "
                f"got {len(self.shares)}")
        quantized = tuple(float(int(round(share)))
                          for share in self.shares)
        for share in quantized:
            if share <= 0:
                raise ValueError("capacity shares must be positive")
        object.__setattr__(self, "shares", quantized)

    @property
    def label(self) -> str:
        return f"{self.fleet.label} cohort {self.cohort}"

    @property
    def seeds(self) -> Tuple[int, ...]:
        return (self.fleet.seed,)

    @property
    def runs(self) -> int:
        return 1

    @property
    def max_sim_time(self) -> float:
        return self.fleet.max_sim_time

    def canonical_dict(self) -> Dict[str, Any]:
        return {
            "kind": "fleet-cohort",
            "fleet": self.fleet.canonical_dict(),
            "cohort": self.cohort,
            "shares": [int(share) for share in self.shares],
        }

    def execute_unit(self, seed: int) -> Any:
        """Simulate this cohort (the matrix engine's dispatch hook)."""
        from .engine import run_cohort
        return run_cohort(self, seed)
