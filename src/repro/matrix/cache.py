"""Content-addressed on-disk cache for experiment results.

Every (cell, seed) work unit is keyed by the SHA-256 of its spec's
canonical JSON plus the seed and the package version, so a repeated
``python -m repro report --cache`` run performs zero simulation — and
any change to the spec (mode, overrides, fault plan, version bump)
automatically misses and re-measures.  Entries are JSON files under
``.repro-cache/``, one per unit, written atomically.

A :class:`~repro.matrix.journal.RunJournal` is this store for one run,
with the run's quarantine verdicts kept beside its results.

Every unit result type — :class:`~repro.core.runner.RunResult`, a
fleet cohort, a render timeline, a
:class:`~repro.core.runner.UnitFailure` — serializes through a codec
registered under a ``__kind__`` name (:func:`register_result_codec`).
A ``RunResult`` entry stores every measurement column the class
declares (:data:`~repro.core.runner.PAYLOAD_FIELDS`, including the
``recovery`` and ``perf`` counts); the per-run packet trace and fetch
transcript are not serialized, so hydrated results carry
``fetch=None`` — exactly what
:class:`~repro.matrix.runner.MatrixRunner` returns for fresh runs too,
keeping cached and simulated results interchangeable.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import os
import typing
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Tuple, Union

from .. import __version__
from ..core.runner import PAYLOAD_FIELDS, RunResult, UnitFailure
from .spec import ExperimentSpec

__all__ = ["DEFAULT_CACHE_DIR", "ResultCache", "unit_key",
           "result_to_payload", "result_from_payload",
           "register_result_codec", "register_dataclass_codec",
           "encode_result", "decode_result", "UnknownResultKind"]

DEFAULT_CACHE_DIR = ".repro-cache"

#: Process-unique temp-file suffixes: the pid alone is not enough when
#: two runners in one process (threads, nested reports) share a cache.
_TMP_COUNTER = itertools.count()


def unit_key(spec: ExperimentSpec, seed: int, *,
             version: str = __version__) -> str:
    """Stable content hash identifying one (cell, seed) work unit.

    The shared identity of the result cache and the run journal: the
    SHA-256 of the spec's canonical JSON plus the seed and the package
    version, so any change to the experiment (or a version bump)
    yields a different unit.
    """
    identity = {
        "version": version,
        "seed": int(seed),
        "spec": spec.canonical_dict(),
    }
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def result_to_payload(result: RunResult) -> Dict[str, Any]:
    """Serialize the measurement columns of a run."""
    payload = {name: getattr(result, name) for name in PAYLOAD_FIELDS}
    payload["statuses"] = {str(status): count
                           for status, count in result.statuses.items()}
    return payload


def result_from_payload(payload: Dict[str, Any]) -> RunResult:
    """Hydrate a cached measurement (no trace / fetch transcript)."""
    columns = {name: payload[name] for name in PAYLOAD_FIELDS}
    columns["statuses"] = {int(status): count
                           for status, count in payload["statuses"].items()}
    return RunResult(fetch=None, **columns)


# ----------------------------------------------------------------------
# Result codecs: every unit result type rides the same cache/journal
# machinery via a ``__kind__`` payload discriminator.
# ----------------------------------------------------------------------

class UnknownResultKind(Exception):
    """A payload names a result codec this process has not registered.

    Deliberately *not* a ValueError/KeyError subclass: the cache's
    heal-on-read path unlinks entries that fail to parse, and an entry
    written by a process that had the codec loaded is valid data, not
    corruption — readers must treat it as a miss and leave it on disk.
    """


#: kind -> (result class, to_payload, from_payload).
_RESULT_CODECS: Dict[str, Tuple[type, Any, Any]] = {}


def register_result_codec(kind: str, cls: type, to_payload,
                          from_payload) -> None:
    """Register a serializer for a unit result type.

    ``to_payload(result)`` must return a JSON-safe dict (the ``__kind__``
    key is added here); ``from_payload(payload)`` must invert it.
    Re-registering the same kind replaces the codec (idempotent import).
    """
    _RESULT_CODECS[kind] = (cls, to_payload, from_payload)


def encode_result(result: Any) -> Dict[str, Any]:
    """Serialize any registered result type."""
    for kind, (cls, to_payload, _from_payload) in _RESULT_CODECS.items():
        if isinstance(result, cls):
            payload = to_payload(result)
            payload["__kind__"] = kind
            return payload
    raise TypeError(f"no result codec registered for "
                    f"{type(result).__name__}")


def decode_result(payload: Dict[str, Any]) -> Any:
    """Invert :func:`encode_result` via the ``__kind__`` discriminator."""
    kind = payload["__kind__"]
    entry = _RESULT_CODECS.get(kind)
    if entry is None:
        raise UnknownResultKind(kind)
    return entry[2](payload)


def _dataclass_from_payload(cls: type, payload: Dict[str, Any]) -> Any:
    """Invert ``dataclasses.asdict`` after a JSON round trip, from the
    fields' annotations: a ``Tuple[X, ...]`` field comes back a tuple,
    of ``X`` rebuilt the same way where ``X`` is itself a dataclass."""
    columns = {}
    for name, hint in typing.get_type_hints(cls).items():
        value = payload[name]
        if typing.get_origin(hint) is tuple:
            row = typing.get_args(hint)[0]
            value = tuple(_dataclass_from_payload(row, item)
                          if dataclasses.is_dataclass(row) else item
                          for item in value)
        columns[name] = value
    return cls(**columns)


def register_dataclass_codec(kind: str, cls: type) -> None:
    """Register the dataclass ``cls`` as ``kind``, serialized by field."""
    register_result_codec(kind, cls, dataclasses.asdict,
                          functools.partial(_dataclass_from_payload, cls))


register_result_codec("run", RunResult, result_to_payload,
                      result_from_payload)
#: A quarantine verdict.  Only a run journal stores one (the runner puts
#: results alone in a shared cache), so a verdict never leaks across runs.
register_dataclass_codec("failure", UnitFailure)


class ResultCache:
    """JSON result store keyed by stable spec + seed + version hashes."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------
    def path(self, spec: ExperimentSpec, seed: int,
             key: Optional[str] = None) -> Path:
        """The unit's entry; ``key`` is its :func:`unit_key` when the
        caller already hashed it (the runner hashes each unit once)."""
        return self.root / f"{key or unit_key(spec, seed)}.json"

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, spec: ExperimentSpec, seed: int, *,
            key: Optional[str] = None) -> Optional[Any]:
        """The cached result for the unit, or None on a miss."""
        return self._read(self.path(spec, seed, key))

    @staticmethod
    def _read(path: Path) -> Optional[Any]:
        """The outcome of the entry at ``path``, or None when unusable.

        An unreadable file is a plain miss.  A file that exists but does
        not parse — a crash mid-disk-flush, a bit flip — is corrupt and
        is unlinked on sight, so the directory never accumulates
        poisoned entries: the next :meth:`put` writes a clean
        replacement.  Removal is best-effort: a racing writer may
        already have replaced it with a good entry.
        """
        try:
            return decode_result(json.loads(path.read_text())["result"])
        except OSError:
            return None
        except UnknownResultKind:
            # Valid entry from a process with more codecs loaded: a
            # miss, but not corruption — leave it on disk.
            return None
        except (ValueError, KeyError, TypeError):
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, spec: ExperimentSpec, seed: int, result: Any, *,
            key: Optional[str] = None) -> None:
        """Store a unit's measurements so readers never see a torn file.

        The JSON lands in a uniquely named temp file (pid + in-process
        counter) finished with an atomic :func:`os.replace`, so runners
        sharing one directory — threads or processes — can race on the
        same unit and a SIGKILL at any instant leaves a complete entry
        or none; the content-addressed key means every racer writes
        identical measurements anyway.  The JSON is compact: an indented
        dump takes json's pure-Python encoder, about three times the
        cost per entry; the reader takes either layout.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(spec, seed, key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{next(_TMP_COUNTER)}")
        tmp.write_text(json.dumps({
            "version": __version__,
            "seed": int(seed),
            "spec": spec.canonical_dict(),
            "result": encode_result(result),
        }, sort_keys=True, separators=(",", ":")))
        os.replace(tmp, path)

    def put_many(self, entries: Iterable[tuple]) -> int:
        """Store a batch of ``(spec, seed, result[, key])`` units;
        returns how many were written.

        The batched flush the :class:`~repro.matrix.runner.MatrixRunner`
        issues once per dispatch chunk instead of once per unit; each
        entry keeps the same crash-safe write-temp-then-rename path, so
        a crash mid-batch leaves previously flushed entries intact and
        never a torn file.
        """
        written = 0
        for spec, seed, result, *key in entries:
            self.put(spec, seed, result, key=key[0] if key else None)
            written += 1
        return written
