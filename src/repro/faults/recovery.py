"""Structured record of fault hits and recovery actions.

Every layer that injects or survives a fault — the link-level
:class:`~repro.faults.injector.FaultInjector`, the faulty server
profiles, and the hardened robot — notes what happened into one shared
:class:`RecoveryLog`.  The log rides on ``FetchResult.recovery``, and
its counts are the ``recovery`` column of every
:class:`~repro.core.runner.RunResult`, so tests and the chaos sweep
can assert not just *that* a run completed but *how* it recovered.

The event list is bounded (a pathological run could log thousands of
drops); the per-kind counters are exact regardless.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

__all__ = ["RecoveryEvent", "RecoveryLog", "summarize_counts"]

#: Events kept verbatim; counts stay exact past this.
MAX_EVENTS = 256


@dataclasses.dataclass(frozen=True)
class RecoveryEvent:
    """One fault hit or recovery action."""

    time: float
    #: Which layer logged it: "link", "server", or "client".
    source: str
    #: Short machine-readable kind, e.g. "loss", "corrupt", "retry",
    #: "watchdog", "downgrade", "503".
    kind: str
    detail: str = ""


def summarize_counts(counts: Dict[str, int]) -> str:
    """One-line ``source.kind=N`` summary, sorted for determinism."""
    if not counts:
        return "clean"
    return " ".join(f"{key}={n}" for key, n in sorted(counts.items()))


class RecoveryLog:
    """Append-only log of :class:`RecoveryEvent` with per-kind counts."""

    __slots__ = ("events", "counts", "truncated")

    def __init__(self) -> None:
        self.events: List[RecoveryEvent] = []
        #: Exact counts keyed ``"source.kind"``.
        self.counts: Dict[str, int] = {}
        self.truncated = False

    def note(self, time: float, source: str, kind: str,
             detail: str = "") -> None:
        key = f"{source}.{kind}"
        self.counts[key] = self.counts.get(key, 0) + 1
        if len(self.events) < MAX_EVENTS:
            self.events.append(RecoveryEvent(time, source, kind, detail))
        else:
            self.truncated = True

    @property
    def total(self) -> int:
        """Total events noted (including any past the event cap)."""
        return sum(self.counts.values())

    def count(self, source: str, kind: str) -> int:
        return self.counts.get(f"{source}.{kind}", 0)

    def summary(self) -> str:
        return summarize_counts(self.counts)

    def __len__(self) -> int:
        return self.total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RecoveryLog {self.summary()}>"
