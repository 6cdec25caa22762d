"""Running one workload: the isolated child and the parent that spawns it.

Load shape: closed loop, strictly sequential, one process, ``jobs=1``,
no threads.  The parent (:func:`run_workload`) starts one fresh child
per workload — cold module state, its own ``ru_maxrss``, ``cwd`` a fresh
temp dir under ``bench/out/`` (so ``.repro-cache/`` is private and
empty), ``PYTHONHASHSEED=0`` — and removes the temp dir afterwards.

The child (:func:`child_main`) sets up (``SETUP_REPEATS`` cold site
builds), then repeats identical passes until ``--seconds`` are spent.
End-to-end metrics are the median over those untraced passes.  With
``--trace 1`` half the budget goes to untraced passes and one more pass
runs under the :class:`~bench.tracing.LayerSampler`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

from . import BENCH_DIR, OUT_DIR, REPO_ROOT, SRC_DIR, hostspeed
from .hostspeed import HostSpeedProbe
from .spec import (BY_NAME, COUNTER_NAMES, END_TO_END, LAYERS, PER_LAYER,
                   SETUP_REPEATS)
from .tracing import LayerSampler, SpanRecorder, duration

__all__ = ["BenchError", "PassContext", "child_main", "environment_record",
           "metric_lines", "run_workload", "spawn_child", "summarize"]

#: A child that has not finished by then is killed (the driver allows a
#: run 180 s).
CHILD_TIMEOUT = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------

class PassContext:
    """What a workload sees during a pass: spans and the timed body.

    Every duration it hands out is corrected for host speed (see
    :mod:`bench.hostspeed`); ``raw_wall_s`` keeps the plain seconds.
    """

    def __init__(self, spans: SpanRecorder, probe: HostSpeedProbe,
                 sampler: Optional[LayerSampler] = None) -> None:
        self.span = spans.span
        self.probe = probe
        self.sampler = sampler
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.raw_wall_s = 0.0

    @property
    def traced(self) -> bool:
        """True in the one pass that runs under the sampler."""
        return self.sampler is not None

    def corrected(self, record: Dict[str, Any]) -> float:
        """Reference-host seconds of a finished span."""
        in_probes, stolen, factor = self.probe.window(record["start"],
                                                      record["end"])
        return (duration(record) - stolen - in_probes) * factor

    @contextlib.contextmanager
    def timed(self, name: str, **attributes: Any
              ) -> Iterator[Dict[str, Any]]:
        """A span that counts toward the pass's ``wall_s`` / ``cpu_s``."""
        with self.span(name, timed=True, **attributes) as record:
            if self.sampler is not None:
                self.sampler.resume()
            cpu_start = time.process_time()
            try:
                yield record
            finally:
                cpu = time.process_time() - cpu_start
                if self.sampler is not None:
                    self.sampler.pause()
        in_probes, stolen, factor = self.probe.window(record["start"],
                                                      record["end"])
        self.raw_wall_s += duration(record)
        self.wall_s += (duration(record) - stolen - in_probes) * factor
        self.cpu_s += (cpu - in_probes) * factor


def summarize(samples: Sequence[float]) -> Dict[str, Any]:
    """Median, interquartile range and count of a metric's samples."""
    quartiles = (statistics.quantiles(samples, n=4)
                 if len(samples) > 1 else [samples[0]] * 3)
    return {"value": statistics.median(samples),
            "iqr": quartiles[2] - quartiles[0],
            "n": len(samples), "samples": list(samples)}


def _cold_site_build(ctx: PassContext) -> float:
    """One ``warm_default_site()`` against an empty artifact store."""
    from repro.content import artifacts
    from repro.core import reset_default_site, warm_default_site
    artifacts.get_store().clear()
    reset_default_site()
    with ctx.span("site_build_cold") as record:
        warm_default_site()
    return ctx.corrected(record)


def _run_pass(workload: Any, spans: SpanRecorder, probe: HostSpeedProbe,
              sampler: Optional[LayerSampler] = None) -> Dict[str, Any]:
    ctx = PassContext(spans, probe, sampler)
    with spans.span("pass", traced=sampler is not None):
        outcome = workload.run_pass(ctx)
    return {"wall_s": ctx.wall_s, "cpu_s": ctx.cpu_s,
            "raw_wall_s": ctx.raw_wall_s, "outcome": outcome}


def finish_metrics(values: Dict[str, Dict[str, Any]]
                   ) -> Dict[str, Dict[str, Any]]:
    """Attach unit and direction; refuse names the catalogue lacks."""
    unknown = sorted(set(values) - set(BY_NAME))
    if unknown:
        raise BenchError(f"metrics missing from bench.spec: {unknown}")
    return {name: {**summary, "unit": BY_NAME[name].unit,
                   "better": BY_NAME[name].better}
            for name, summary in values.items()}


def child_main(args: argparse.Namespace) -> int:
    """Run one workload in this process; write the result JSON."""
    with HostSpeedProbe() as probe:
        result = _measure(args, probe)
    Path(args.result).write_text(json.dumps(result))
    return 0


def _measure(args: argparse.Namespace,
             probe: HostSpeedProbe) -> Dict[str, Any]:
    import repro
    from .workloads import WORKLOAD_CLASSES

    spans = SpanRecorder(run_id=f"{args.workload}-seed{args.seed}")
    workload = WORKLOAD_CLASSES[args.workload](args.seed, args.quick)
    with spans.span("setup"):
        setup_ctx = PassContext(spans, probe)
        setup = [_cold_site_build(setup_ctx)
                 for _ in range(1 if args.quick else SETUP_REPEATS)]
        workload.prepare(setup_ctx)

    budget = args.seconds / 2 if args.trace else args.seconds
    started = time.perf_counter()
    passes = [_run_pass(workload, spans, probe)]
    # Go on until another pass would overshoot the budget by more than
    # stopping now undershoots it.
    while not args.quick and (
            (time.perf_counter() - started) * (1 + 0.5 / len(passes))
            < budget):
        passes.append(_run_pass(workload, spans, probe))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outcomes = [p["outcome"] for p in passes]
    walls = [p["wall_s"] for p in passes]
    end_to_end = {
        "wall_s": summarize(walls),
        "cpu_s": summarize([p["cpu_s"] for p in passes]),
        "units_per_min": summarize(
            [p["outcome"].units / p["wall_s"] * 60 for p in passes]),
        "peak_rss_mb": summarize([peak_rss_mb]),
        "setup_s": summarize(setup),
    }
    per_layer = {
        "host.wall_raw_s": summarize([p["raw_wall_s"] for p in passes]),
        "host.ref_kernel_ms": summarize(
            [statistics.median(probe.walls) * 1e3]),
    }
    trace: Optional[Dict[str, Any]] = None
    if args.trace:
        with LayerSampler(os.path.dirname(repro.__file__), str(BENCH_DIR),
                          ignore=(hostspeed.__file__,)) as sampler:
            traced = _run_pass(workload, spans, probe, sampler)
        outcomes.append(traced["outcome"])
        wall = statistics.median(walls)
        shares = sampler.shares()
        for layer in LAYERS:
            per_layer[f"{layer}.self_s"] = summarize(
                [shares.get(layer, 0.0) * wall])
        per_layer["trace.samples"] = summarize(
            [sum(sampler.counts.values())])
        per_layer["trace.overhead_ratio"] = summarize(
            [traced["wall_s"] / wall])
        trace = {"spans": spans.export(),
                 "samples": dict(sampler.counts),
                 "host_probes": {"start": probe.starts,
                                 "wall_s": probe.walls}}

    for name in COUNTER_NAMES:
        per_layer[name] = summarize(
            [o.counters[name] for o in outcomes if name in o.counters]
            or [0])
    problems = [problem for o in outcomes for problem in o.problems]
    if len({o.digest for o in outcomes}) != 1:
        problems.append("sim_digest differs between passes of one run")
    return {
        "workload": args.workload, "seed": args.seed,
        "quick": args.quick, "seconds": args.seconds,
        "passes": len(passes), "traced": bool(args.trace),
        "correct": not problems, "problems": problems,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "sim_digest": outcomes[0].digest,
        "end_to_end": finish_metrics(end_to_end),
        "per_layer": finish_metrics(per_layer),
        "trace": trace,
        "repro_version": repro.__version__,
    }


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

def spawn_child(label: str, child_args: Sequence[str]) -> Dict[str, Any]:
    """Run ``python -m bench <child_args>`` isolated; return its result."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {SRC_DIR}: the "
                         f"benchmark runs from a full checkout")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{label}-", dir=OUT_DIR)
    result_path = os.path.join(workdir, "result.json")
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join((str(SRC_DIR), str(REPO_ROOT))))
    # The default artifact store must be on: setup_s and the matrix
    # artifact counters are defined against it.
    env.pop("REPRO_ARTIFACT_CACHE", None)
    try:
        completed = subprocess.run(
            [sys.executable, "-m", "bench", *child_args,
             "--result", result_path],
            cwd=workdir, env=env, timeout=CHILD_TIMEOUT)
        if completed.returncode != 0:
            raise BenchError(f"{label}: child exited with "
                             f"{completed.returncode}")
        with open(result_path) as handle:
            return json.load(handle)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{label}: child exceeded {CHILD_TIMEOUT:.0f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 quick: bool = False) -> Dict[str, Any]:
    """One workload in a fresh child; writes the trace file if traced."""
    child_args = ["child", "--workload", name, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(int(trace))]
    if quick:
        child_args.append("--quick")
    result = spawn_child(name, child_args)
    trace_payload = result.pop("trace")
    if trace_payload is not None:
        trace_path = OUT_DIR / f"{name}.trace.json"
        trace_path.write_text(json.dumps(trace_payload))
    return result


def environment_record() -> Dict[str, Any]:
    """Where and on what the numbers were taken."""
    commit = "unknown"
    if (REPO_ROOT / ".git").exists():
        found = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True)
        if found.returncode == 0:
            commit = found.stdout.strip()
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_commit": commit}


def metric_lines(result: Dict[str, Any]) -> List[str]:
    """Every metric one workload's result holds, by name, with its unit."""
    lines = []
    for section, metrics in (("end_to_end", END_TO_END),
                             ("per_layer", PER_LAYER)):
        for metric in metrics:
            entry = result[section].get(metric.name)
            if entry is None:
                continue
            spread = (f"  iqr {entry['iqr']:.4g}  n={entry['n']}"
                      if entry["n"] > 1 else "")
            lines.append(f"{result['workload']:22s} {metric.name:42s} "
                         f"{entry['value']:14.6g} {metric.unit}{spread}")
    return lines
