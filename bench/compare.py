"""``python -m bench compare BASE.json CHANGE.json``.

For every workload both files hold and every end-to-end metric: both
medians and IQRs, the change/base ratio with its base, the bound, and a
verdict —

``regressed``
    the change's median is worse than the base's by more than the bound;
``unresolved``
    not regressed, but either side's IQR is wider than the bound, so
    "no change" cannot be told from noise (``improved`` instead when
    every sample of the change beats every sample of the base);
``improved`` / ``unchanged``
    otherwise, by whether the median moved past the bound.

Deterministic counters (``Metric.exact``) and ``sim_digest`` are
compared for equality and reported as ``differs``; that alone is not a
failure, because fidelity work may move them on purpose.  The exit code
is non-zero on any regression, any rise in failed operations, or an
incorrect run.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from .spec import END_TO_END, PER_LAYER, Metric

__all__ = ["compare_files", "compare_records", "verdict"]


def verdict(metric: Metric, base: Dict[str, Any],
            change: Dict[str, Any]) -> str:
    """Classify one end-to-end pair against the metric's bound."""
    sign = 1.0 if metric.better == "lower" else -1.0
    worsening = sign * (change["value"] - base["value"]) / base["value"]
    if worsening > metric.bound:
        return "regressed"
    spread = max(base["iqr"] / base["value"],
                 change["iqr"] / change["value"])
    if spread > metric.bound:
        clear_win = (max(sign * s for s in change["samples"])
                     < min(sign * s for s in base["samples"]))
        return "improved" if clear_win else "unresolved"
    return "improved" if worsening < -metric.bound else "unchanged"


def compare_records(base: Dict[str, Any], change: Dict[str, Any]
                    ) -> Tuple[List[str], bool]:
    """Report lines and whether anything regressed."""
    lines: List[str] = []
    regressed = False
    for name in base["workloads"]:
        if name not in change["workloads"]:
            lines.append(f"{name}: missing from the change run")
            continue
        old, new = base["workloads"][name], change["workloads"][name]
        for metric in END_TO_END:
            a, b = old["end_to_end"][metric.name], \
                new["end_to_end"][metric.name]
            outcome = verdict(metric, a, b)
            regressed |= outcome == "regressed"
            lines.append(
                f"{name:22s} {metric.name:14s} "
                f"base {a['value']:.5g} (iqr {a['iqr']:.3g}, n={a['n']})  "
                f"change {b['value']:.5g} (iqr {b['iqr']:.3g}, "
                f"n={b['n']})  {b['value'] / a['value']:.3f}x of "
                f"{a['value']:.5g} {metric.unit}  "
                f"bound {metric.bound:.0%} {metric.better}-is-better  "
                f"{outcome}")
        differing = [
            f"{metric.name} {old['per_layer'][metric.name]['value']!r} -> "
            f"{new['per_layer'][metric.name]['value']!r}"
            for metric in PER_LAYER
            if metric.exact and metric.name in old["per_layer"]
            and old["per_layer"][metric.name]["value"]
            != new["per_layer"][metric.name]["value"]]
        if old["sim_digest"] != new["sim_digest"]:
            differing.append(f"sim_digest {old['sim_digest'][:12]} -> "
                             f"{new['sim_digest'][:12]}")
        for line in differing:
            lines.append(f"{name:22s} differs: {line}")
        if not differing:
            lines.append(f"{name:22s} deterministic counters and "
                         f"sim_digest identical")
        if new["failed"] * old["attempted"] \
                > old["failed"] * new["attempted"]:
            regressed = True
            lines.append(f"{name:22s} failed share rose: "
                         f"{old['failed']}/{old['attempted']} -> "
                         f"{new['failed']}/{new['attempted']}")
        if not new["correct"]:
            regressed = True
            lines.append(f"{name:22s} change run is incorrect: "
                         f"{'; '.join(new['problems'])}")
    return lines, regressed


def compare_files(base_path: str, change_path: str
                  ) -> Tuple[List[str], bool]:
    with open(base_path) as handle:
        base = json.load(handle)
    with open(change_path) as handle:
        change = json.load(handle)
    return compare_records(base, change)
