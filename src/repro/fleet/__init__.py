"""Population-scale experiments: cohort-sharded robot fleets.

The paper measured one robot against one server.  This package scales
that regime to whole populations: a :class:`FleetSpec` compiles a
deterministic arrival process and protocol-mode mix into cohorts of
robot sessions; each cohort runs as one simulator (N clients + a
finite-capacity server behind a shared bottleneck link) dispatched as
a cacheable, journaled matrix unit; and across cohorts the parent runs
an analytic fixed-point exchange of per-epoch bottleneck capacity
shares.  Results are byte-identical across job counts and resumes.

Importing this package registers the cohort-result codec with the
matrix cache, so journals and caches written by a fleet run hydrate in
any process that imported :mod:`repro.fleet`.
"""

from .engine import CohortResult, SessionStats, run_cohort
from .runner import FleetResult, run_fleet
from .spec import DEFAULT_MODE_MIX, FleetSpec, FleetUnitSpec, UserPlan

__all__ = [
    "DEFAULT_MODE_MIX",
    "UserPlan", "FleetSpec", "FleetUnitSpec",
    "SessionStats", "CohortResult", "run_cohort",
    "FleetResult", "run_fleet",
]
