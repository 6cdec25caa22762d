"""Spans around calls into ``repro`` and a sampling layer profiler.

Both live entirely in the benchmark: nothing inside ``repro`` is
instrumented.  :class:`SpanRecorder` is also the benchmark's stopwatch
(every timed number is a span's duration), so spans are always recorded;
only the :class:`LayerSampler` is reserved for traced passes.

The sampler is a ``signal.ITIMER_PROF`` timer, not cProfile: cProfile's
per-call hook costs ~3x on this code and inflates call-heavy layers,
while a CPU-time tick (1 ms requested; the kernel delivers at its own
tick rate, typically 4 ms) costs about 1 %.  A tick is billed to the
innermost frame that belongs to the project — a file under ``repro/``
maps to its layer by path, a file of the benchmark itself to ``bench``
— so C calls and the standard library bill their Python caller.
"""

from __future__ import annotations

import contextlib
import os
import signal
import time
from collections import Counter
from typing import Any, Dict, Iterator, List, Optional, Sequence

from .spec import PACKAGE_LAYERS, SIMNET_MODULES

__all__ = ["SpanRecorder", "LayerSampler", "layer_of"]

#: Requested CPU time between sampler ticks.
TICK_S = 0.001


class SpanRecorder:
    """In-memory spans: name, start, end, parent, run id, attributes."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attributes: Any
             ) -> Iterator[Dict[str, Any]]:
        """Record one span; ``record["end"] - record["start"]`` after."""
        record: Dict[str, Any] = {
            "id": len(self.spans), "name": name, "run": self.run_id,
            "parent": self._open[-1] if self._open else None,
            **attributes, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def export(self) -> List[Dict[str, Any]]:
        """The spans plus each one's self time (duration minus children)."""
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None and record["end"] is not None:
                covered[record["parent"]] += duration(record)
        return [{**record,
                 "self_s": duration(record) - covered[record["id"]]}
                for record in self.spans if record["end"] is not None]


def duration(record: Dict[str, Any]) -> float:
    return record["end"] - record["start"]


def layer_of(relative_path: str) -> str:
    """The layer of a file given its path relative to ``repro/``."""
    parts = relative_path.split(os.sep)
    if parts[0] == "simnet" and len(parts) > 1:
        module = parts[1].rsplit(".", 1)[0]
        return (f"simnet.{module}" if module in SIMNET_MODULES
                else "simnet.other")
    return parts[0] if parts[0] in PACKAGE_LAYERS else "other"


class LayerSampler:
    """CPU-time sampler attributing ticks to layers by file path."""

    def __init__(self, repro_root: str, bench_root: str, *,
                 ignore: Sequence[str] = ()) -> None:
        self._repro_prefix = os.path.join(repro_root, "")
        self._bench_prefix = os.path.join(bench_root, "")
        self.counts: "Counter[str]" = Counter()
        #: co_filename -> layer; None for files outside the project, ""
        #: for ``ignore`` files, whose ticks are dropped (the host-speed
        #: probe's time is subtracted from the wall, so from here too).
        self._layers: Dict[str, Optional[str]] = dict.fromkeys(ignore, "")
        self._armed = False
        self._previous_handler: Any = None

    def __enter__(self) -> "LayerSampler":
        self._previous_handler = signal.signal(signal.SIGPROF,
                                               self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous_handler)

    # The timer runs for the sampler's whole life and ticks outside a
    # timed body are dropped: restarting it per body would never sample
    # a body shorter than one tick and so under-bill short operations.
    def resume(self) -> None:
        self._armed = True

    def pause(self) -> None:
        self._armed = False

    def _classify(self, filename: str) -> Optional[str]:
        if filename.startswith(self._repro_prefix):
            return layer_of(filename[len(self._repro_prefix):])
        if filename.startswith(self._bench_prefix):
            return "bench"
        return None

    def _on_tick(self, _signum: int, frame: Any) -> None:
        if not self._armed:
            return
        layers = self._layers
        while frame is not None:
            filename = frame.f_code.co_filename
            try:
                layer = layers[filename]
            except KeyError:
                layer = layers[filename] = self._classify(filename)
            if layer is not None:
                if layer:
                    self.counts[layer] += 1
                return
            frame = frame.f_back
        self.counts["bench"] += 1

    def shares(self) -> Dict[str, float]:
        """Each layer's share of all ticks (sums to 1.0)."""
        total = sum(self.counts.values())
        return {layer: count / total
                for layer, count in self.counts.items()} if total else {}
