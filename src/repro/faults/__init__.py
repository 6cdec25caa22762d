"""repro.faults: deterministic fault injection and recovery logging.

Three layers of adversity for the simulated testbed, all seeded and
reproducible:

* :mod:`~repro.faults.injector` — link faults (Gilbert–Elliott bursty
  loss, bounded reordering, duplication, payload corruption);
* :mod:`~repro.faults.server` — misbehaving-server profiles (503s,
  mid-response aborts, stalls, close-after-one-response);
* :mod:`~repro.faults.plan` — named plans combining both, swept by the
  ``python -m repro chaos`` verb (:mod:`~repro.faults.chaos`, imported
  only by the CLI to keep this package free of runner dependencies).

:mod:`~repro.faults.recovery` holds the shared :class:`RecoveryLog`
that every layer writes fault hits and recovery actions into.
"""

from .injector import FaultInjector, LinkFaultConfig
from .plan import FAULT_PLANS, FaultPlan, resolve_fault_plan
from .recovery import RecoveryEvent, RecoveryLog
from .server import FaultyProfile, ServerFaultConfig

__all__ = [
    "FaultInjector",
    "LinkFaultConfig",
    "FaultPlan",
    "FAULT_PLANS",
    "resolve_fault_plan",
    "RecoveryEvent",
    "RecoveryLog",
    "FaultyProfile",
    "ServerFaultConfig",
]
