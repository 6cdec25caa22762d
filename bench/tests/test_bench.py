"""The benchmark's own tests: ``python -m pytest bench/tests``.

Not part of the tier-1 suite (``testpaths = ["tests"]``).  Everything
runs at ``--quick`` scale through the real parent/child path.
"""

from __future__ import annotations

import ast
import copy
import importlib.util
import json
import re
import shutil
import subprocess
import time

import pytest

from bench import BENCH_DIR, REPO_ROOT
from bench.compare import compare_records, verdict
from bench.harness import run_workload, summarize
from bench.hostspeed import (PROBE_INTERVAL_S, REFERENCE_KERNEL_S,
                             HostSpeedProbe)
from bench.spec import (BY_NAME, END_TO_END, LAYERS, PER_LAYER, WORKLOADS,
                        manifest)
from bench.tracing import LayerSampler, layer_of

WORKLOAD_NAMES = [name for name, _ in WORKLOADS]
LEGAL_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
LEGAL_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _quick(name: str) -> dict:
    return run_workload(name, seed=7, seconds=0, trace=True, quick=True)


@pytest.fixture(scope="module")
def quick_results() -> dict:
    return {name: _quick(name) for name in WORKLOAD_NAMES}


def test_benchmark_json_is_the_rendered_catalogue():
    committed = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert committed == manifest()


def test_catalogue_is_within_the_contract_limits():
    document = manifest()
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer")
             for entry in document[key]]
    assert len(names) == len(set(names))
    assert all(LEGAL_NAME.fullmatch(name) for name in names)
    assert 2 <= len(document["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in document["workloads"])
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    for entry in document["end_to_end"] + document["per_layer"]:
        assert LEGAL_UNIT.fullmatch(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    assert all(0 < entry["bound"] <= 0.25
               for entry in document["end_to_end"])
    setup = next(entry for entry in document["end_to_end"]
                 if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert 1 <= document["run_seconds"] <= 60


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_quick_run_emits_every_named_metric(quick_results, name):
    result = quick_results[name]
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    for section, metrics in (("end_to_end", END_TO_END),
                             ("per_layer", PER_LAYER)):
        assert set(result[section]) == {m.name for m in metrics}
        for metric in metrics:
            entry = result[section][metric.name]
            assert entry["unit"] == metric.unit
            assert entry["n"] >= 1
    assert all(result["end_to_end"][m.name]["value"] > 0
               for m in END_TO_END)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_sampled_shares_sum_to_the_wall(quick_results, name):
    result = quick_results[name]
    layers = sum(result["per_layer"][f"{layer}.self_s"]["value"]
                 for layer in LAYERS)
    assert layers == pytest.approx(
        result["end_to_end"]["wall_s"]["value"], rel=1e-9)
    assert result["per_layer"]["trace.samples"]["value"] > 0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_sim_digest_and_exact_counters_repeat(quick_results, name):
    first, second = quick_results[name], _quick(name)
    assert first["sim_digest"] == second["sim_digest"]
    for metric in PER_LAYER:
        if metric.exact:
            assert (first["per_layer"][metric.name]["value"]
                    == second["per_layer"][metric.name]["value"])


def test_traced_run_writes_spans(quick_results):
    trace = json.loads(
        (BENCH_DIR / "out" / "bulk_kernel.trace.json").read_text())
    names = {span["name"] for span in trace["spans"]}
    assert {"setup", "site_build_cold", "pass", "transfer"} <= names
    transfer = next(s for s in trace["spans"] if s["name"] == "transfer")
    assert {"start", "end", "parent", "run", "self_s", "environment",
            "size", "seed", "leg"} <= set(transfer)


def test_layer_map():
    assert layer_of("simnet/tcp.py") == "simnet.tcp"
    assert layer_of("simnet/network.py") == "simnet.other"
    assert layer_of("http/parser.py") == "http"
    assert layer_of("content/htmlparse.py") == "content"
    assert layer_of("perf.py") == "other"


def _fake_http_module(tmp_path):
    """A busy loop in a file that looks like ``repro/http/busy.py``."""
    fake = tmp_path / "repro" / "http" / "busy.py"
    fake.parent.mkdir(parents=True)
    fake.write_text(
        "import time\n"
        "def spin(seconds):\n"
        "    end = time.process_time() + seconds\n"
        "    while time.process_time() < end:\n"
        "        sum(range(200))\n")
    module_spec = importlib.util.spec_from_file_location("busy", fake)
    busy = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(busy)
    return busy


def test_sampler_bills_a_busy_loop_to_its_layer(tmp_path):
    busy = _fake_http_module(tmp_path)
    with LayerSampler(str(tmp_path / "repro"), str(BENCH_DIR)) as sampler:
        busy.spin(0.05)          # not armed: dropped
        assert not sampler.counts
        sampler.resume()
        busy.spin(0.4)
        sampler.pause()
    total = sum(sampler.counts.values())
    assert total >= 20
    assert sampler.counts["http"] >= 0.9 * total
    assert sampler.shares()["http"] == sampler.counts["http"] / total


def test_sampler_drops_ticks_in_ignored_files(tmp_path):
    busy = _fake_http_module(tmp_path)
    with LayerSampler(str(tmp_path / "repro"), str(BENCH_DIR),
                      ignore=(busy.__file__,)) as sampler:
        sampler.resume()
        busy.spin(0.2)
    assert sampler.counts["http"] == 0


def test_host_speed_window_subtracts_probes_and_steal_and_scales():
    probe = HostSpeedProbe()        # never entered: no signals, no timer
    slow = 2 * REFERENCE_KERNEL_S   # a host at half the reference speed
    probe.starts = [10.0, 10.2, 10.4, 10.6, 30.0]
    probe.cpus = [slow, slow, REFERENCE_KERNEL_S, slow, slow]
    probe.walls = list(probe.cpus)
    probe.steals = [1.0, 1.0, 1.1, 1.1, 3.04]
    in_probes, stolen, factor = probe.window(10.1, 10.5)
    # Probes at 10.2 and 10.4 ran inside; 10.0 and 10.6 are next to it.
    assert in_probes == pytest.approx(slow + REFERENCE_KERNEL_S)
    assert factor == pytest.approx((0.5 + 0.5 + 1.0 + 0.5) / 4)
    # All of the 0.1 s stolen between 10.2 and 10.4 falls inside.
    assert stolen == pytest.approx(0.1)
    # No probe within an interval of [20, 21]: the last one before it
    # sets the factor; steal accrues evenly between 10.6 and 30.0.
    assert 21 + PROBE_INTERVAL_S < 30.0
    in_probes, stolen, factor = probe.window(20.0, 21.0)
    assert in_probes == 0 and factor == pytest.approx(0.5)
    assert stolen == pytest.approx(1.94 / 19.4)


def test_host_speed_probe_ticks_inside_a_busy_call():
    with HostSpeedProbe() as probe:
        end = time.perf_counter() + 3.5 * PROBE_INTERVAL_S
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(probe.starts) >= 4     # one at entry, three by the timer
    assert probe.starts == sorted(probe.starts)
    assert all(wall > 0 for wall in probe.walls)


def _record(wall: float, spread: float = 0.01) -> dict:
    def entry(value, better="lower"):
        samples = [value * (1 - spread), value, value * (1 + spread)]
        return {**summarize(samples), "unit": "s", "better": better}
    return {"workloads": {"paper_grid": {
        "correct": True, "problems": [], "attempted": 351, "failed": 0,
        "sim_digest": "abc",
        "end_to_end": {
            "wall_s": entry(wall), "cpu_s": entry(wall),
            "units_per_min": entry(351 / wall * 60, "higher"),
            "peak_rss_mb": entry(50.0), "setup_s": entry(0.8)},
        "per_layer": {"matrix.units": entry(351)}}}}


def test_compare_flags_20_percent_and_passes_3_percent():
    base = _record(10.0)
    lines, regressed = compare_records(base, _record(12.0))
    assert regressed
    assert any("wall_s" in line and "regressed" in line for line in lines)
    lines, regressed = compare_records(base, _record(10.3))
    assert not regressed
    assert any("wall_s" in line and "unchanged" in line for line in lines)
    assert not any("unresolved" in line for line in lines)


def test_compare_calls_a_noisy_pair_unresolved_not_unchanged():
    wall = BY_NAME["wall_s"]
    noisy = _record(10.0, spread=0.3)["workloads"]["paper_grid"]
    quiet = _record(10.0)["workloads"]["paper_grid"]
    assert verdict(wall, noisy["end_to_end"]["wall_s"],
                   quiet["end_to_end"]["wall_s"]) == "unresolved"
    assert verdict(wall, quiet["end_to_end"]["wall_s"],
                   quiet["end_to_end"]["wall_s"]) == "unchanged"


def test_compare_fails_on_a_rise_in_failures_and_reports_counters():
    base, change = _record(10.0), _record(10.0)
    broken = change["workloads"]["paper_grid"]
    broken["failed"] = 2
    broken["per_layer"]["matrix.units"]["value"] = 350
    lines, regressed = compare_records(base, change)
    assert regressed
    assert any("failed share rose" in line for line in lines)
    assert any("differs: matrix.units" in line for line in lines)
    identical = copy.deepcopy(base)
    lines, regressed = compare_records(base, identical)
    assert not regressed
    assert any("identical" in line for line in lines)


def test_nothing_private_is_imported_from_repro():
    for path in BENCH_DIR.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "repro":
                imported = node.module.split(".")[1:] + [
                    alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                imported = [part for alias in node.names
                            if alias.name.split(".")[0] == "repro"
                            for part in alias.name.split(".")[1:]]
            else:
                continue
            private = [name for name in imported
                       if name.startswith("_") and name != "__version__"]
            assert not private, f"{path}: imports {private}"


def test_exits_nonzero_where_the_sources_are_missing(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    started = time.monotonic()
    completed = subprocess.run(
        ["bash", "bench/run.sh", "--workload", "paper_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
    assert time.monotonic() - started < 60
