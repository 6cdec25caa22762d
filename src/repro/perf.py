"""Performance counters for the simulator core.

:class:`PerfCounters` — cheap monotonic counters maintained by the
engine (:class:`~repro.simnet.engine.Simulator`) and the TCP layer,
surfaced through :class:`~repro.simnet.trace.TraceSummary` and the
``perf`` column of :class:`~repro.core.runner.RunResult`, so any
experiment — fresh, cached or resumed — can report how much simulation
work it cost.  Host-time measurement lives in the
repo benchmark (``bench/``), which reads these counters through the
public result types.

Counter semantics
-----------------
``events_processed``
    Callbacks fired by :meth:`Simulator.run` (added as each run returns).
``events_cancelled``
    Cancelled heap entries discarded (lazily at pop time or by a purge).
``heap_peak``
    High-water mark of the event heap, cancelled entries included.
``heap_purges``
    Opportunistic rebuilds that evicted dead entries in bulk.
``segments``
    TCP segments handed to a link by any endpoint.
``cancels_avoided``
    Timer (re)arms the deadline-based lazy timers absorbed without
    touching the heap — each one was a schedule+cancel pair before the
    optimization.
``fastforward_spans``
    Analytic bulk-transfer spans executed by
    :class:`~repro.simnet.fastforward.FastForward` (zero when the fast
    path is disabled or never eligible).
``segments_synthesized``
    Segments emitted *inside* those spans — traced and delivered
    without individual heap events.  Always ≤ ``segments``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

__all__ = ["PerfCounters"]


@dataclasses.dataclass
class PerfCounters:
    """Monotonic work counters for one :class:`Simulator` lifetime."""

    events_processed: int = 0
    events_cancelled: int = 0
    heap_peak: int = 0
    heap_purges: int = 0
    segments: int = 0
    cancels_avoided: int = 0
    fastforward_spans: int = 0
    segments_synthesized: int = 0

    def snapshot(self) -> "PerfCounters":
        """An immutable-by-convention copy (for embedding in summaries)."""
        return dataclasses.replace(self)

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

