"""Crash-safe run journals: resumable experiment grids.

A :class:`RunJournal` records every completed work unit of a run —
successes with their result payload (the same registered codec the
result cache uses), quarantined failures with their
:class:`~repro.core.runner.UnitFailure` — so an
interrupted grid (ctrl-C at hour two, a machine reboot, an OOM-killed
parent) resumes with ``--resume RUN_ID`` instead of starting over.
Resumed units hydrate from the journal byte-for-byte: a resumed run's
:class:`~repro.core.runner.AveragedResult` numbers are identical to
an uninterrupted run's.

Layout (under ``.repro-cache/runs/`` by default)::

    runs/<run_id>/
        manifest.json          # run identity: id + package version
        units/<unit_key>.json  # one atomic record per completed unit

Every record is written temp-then-rename — the same crash-safety
idiom as :meth:`~repro.matrix.cache.ResultCache.put_many` — so a
SIGKILL at any instant leaves either a complete record or no record,
never a torn file.  The journal is append-only in spirit: records are
only ever added (or healed by deletion when corrupt), and the unit
key (spec canonical JSON + seed + package version, shared with the
result cache via :func:`~repro.matrix.cache.unit_key`) guarantees a
stale journal can never contaminate a changed experiment.
"""

from __future__ import annotations

import dataclasses
import os
import re
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .. import __version__
from ..core.runner import RunResult, UnitFailure
from .cache import (DEFAULT_CACHE_DIR, UnknownResultKind, decode_result,
                    encode_result, read_json_or_heal, unit_key,
                    write_json_atomic)
from .spec import ExperimentSpec

__all__ = ["DEFAULT_RUNS_DIR", "RunJournal"]

#: Journals live next to the result cache, one directory per run.
DEFAULT_RUNS_DIR = os.path.join(DEFAULT_CACHE_DIR, "runs")

_RUN_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,99}$")


def _unit_record(payload: Any) -> Dict[str, Any]:
    if not isinstance(payload, dict) or "status" not in payload:
        raise ValueError("not a unit record")
    return payload


class RunJournal:
    """Append-only, atomically written record of one run's units."""

    __slots__ = ("run_id", "root")

    def __init__(self, run_id: str,
                 root: Union[str, Path] = DEFAULT_RUNS_DIR) -> None:
        if not _RUN_ID_RE.match(run_id):
            raise ValueError(
                f"run id {run_id!r} must be filename-safe "
                f"(letters, digits, '.', '_', '-')")
        self.run_id = run_id
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        return self.root / self.run_id

    @property
    def units_dir(self) -> Path:
        return self.path / "units"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def exists(self) -> bool:
        return (self.path / "manifest.json").is_file()

    def begin(self) -> None:
        """Create the journal directory and manifest (idempotent)."""
        self.units_dir.mkdir(parents=True, exist_ok=True)
        manifest = self.path / "manifest.json"
        if not manifest.is_file():
            write_json_atomic(manifest, {
                "run_id": self.run_id,
                "version": __version__,
            })

    def clear(self) -> int:
        """Delete every unit record; returns how many were removed."""
        removed = 0
        if self.units_dir.is_dir():
            for path in self.units_dir.glob("*.json"):
                path.unlink()
                removed += 1
        return removed

    def __len__(self) -> int:
        if not self.units_dir.is_dir():
            return 0
        return sum(1 for _ in self.units_dir.glob("*.json"))

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------
    def record_result(self, spec: ExperimentSpec, seed: int,
                      result: Any, *, key: Optional[str] = None) -> None:
        """Record a completed unit's measurements (atomic, idempotent).

        ``key`` is the unit's :func:`unit_key` when the caller already
        hashed it.
        """
        self._record(spec, seed, key, {"status": "ok",
                                       "result": encode_result(result)})

    def record_failure(self, spec: ExperimentSpec, seed: int,
                       failure: UnitFailure, *,
                       key: Optional[str] = None) -> None:
        """Record a quarantined unit so a resume replays the verdict."""
        self._record(spec, seed, key,
                     {"status": "failed",
                      "failure": dataclasses.asdict(failure)})

    def _record(self, spec: ExperimentSpec, seed: int,
                key: Optional[str], outcome: Dict[str, Any]) -> None:
        self.begin()
        key = key or unit_key(spec, seed)
        write_json_atomic(self.units_dir / f"{key}.json", {
            "label": spec.label, "seed": int(seed), **outcome})

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def load(self) -> Dict[str, Dict[str, Any]]:
        """Every readable unit record, keyed by unit key.

        Corrupt or truncated records (a crash mid-write can not produce
        one, but disks can) are skipped and unlinked, so the unit they
        covered simply re-runs.
        """
        records: Dict[str, Dict[str, Any]] = {}
        if not self.units_dir.is_dir():
            return records
        for path in sorted(self.units_dir.glob("*.json")):
            payload = read_json_or_heal(path, _unit_record)
            if payload is not None:
                records[path.stem] = payload
        return records

    @staticmethod
    def hydrate(record: Dict[str, Any]
                ) -> Union[RunResult, UnitFailure, Any]:
        """A journal record → the result (or failure) it preserves.

        Returns None for records whose shape is unrecognized (including
        result kinds whose codec is not loaded), which a resuming run
        treats as "unit not journaled" and re-runs.
        """
        try:
            if record["status"] == "ok":
                return decode_result(record["result"])
            if record["status"] == "failed":
                return UnitFailure(**record["failure"])
        except (KeyError, TypeError, ValueError, UnknownResultKind):
            return None
        return None
