"""The result namespace of the one store: experiment results on disk.

A (cell, seed) unit is keyed by :func:`unit_key` (its spec's canonical
dict, the seed and the package version), so a repeated ``python -m
repro report --cache`` simulates nothing and any change to the spec or
a version bump misses and re-measures.  Its entry is
``<cache dir>/<unit key>.json``, the compact JSON ``{version, seed,
spec, result}``, written and healed by :class:`repro.store.Store`.  A
:class:`~repro.matrix.journal.RunJournal` is this namespace for one
run, its quarantine verdicts included.

Every unit result type — :class:`~repro.core.runner.RunResult`, a
fleet cohort, a render timeline, a
:class:`~repro.core.runner.UnitFailure` — serializes through a codec
registered under a ``__kind__`` name (:func:`register_result_codec`).
A ``RunResult`` entry stores every column of
:data:`~repro.core.runner.PAYLOAD_FIELDS` but not the packet trace or
fetch transcript, so a hydrated result has ``fetch=None``, as a fresh
one from :class:`~repro.matrix.runner.MatrixRunner` does.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from .. import __version__
from ..core.runner import PAYLOAD_FIELDS, RunResult, UnitFailure
from ..store import (DEFAULT_CACHE_DIR, ForeignEntry, Store, canonical_json,
                     content_key)
from .spec import ExperimentSpec

__all__ = ["DEFAULT_CACHE_DIR", "ResultCache", "unit_key",
           "result_to_payload", "result_from_payload",
           "register_result_codec", "register_dataclass_codec",
           "encode_result", "decode_result", "UnknownResultKind"]


def _identity(spec: ExperimentSpec, seed: int,
              version: str = __version__) -> Dict[str, Any]:
    return {"version": version, "seed": int(seed),
            "spec": spec.canonical_dict()}


def unit_key(spec: ExperimentSpec, seed: int, *,
             version: str = __version__) -> str:
    """Stable content hash identifying one (cell, seed) work unit.

    The shared identity of the result cache and the run journal: the
    content key of the spec's canonical dict plus the seed and the
    package version, so any change to the experiment (or a version
    bump) yields a different unit.
    """
    return content_key(_identity(spec, seed, version))


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

class UnknownResultKind(ForeignEntry):
    """A payload names a result codec this process has not registered.

    An entry written by a process that had the codec loaded is valid
    data, not corruption: the store's heal-on-read path reads it as a
    miss and leaves it on disk.
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


def decode_entry(data: bytes) -> Any:
    """The result an entry's bytes hold (the store's decoder)."""
    return decode_result(json.loads(data)["result"])


class ResultCache(Store):
    """The result namespace: one entry per unit, ``<root>/<unit key>.json``."""

    __slots__ = ()

    def __init__(self, root: Union[str, Path]) -> None:
        super().__init__(root, ".json")

    def get(self, spec: ExperimentSpec, seed: int, *,
            key: Optional[str] = None) -> Optional[Any]:
        """The cached result for the unit, or None on a miss; ``key`` is
        its :func:`unit_key` when the caller already hashed it (the
        runner hashes each unit once)."""
        return self.read(key or unit_key(spec, seed), decode_entry)

    def put(self, spec: ExperimentSpec, seed: int, result: Any, *,
            key: Optional[str] = None) -> None:
        """Store a unit's result as its compact ``{version, seed, spec,
        result}`` entry (the reader takes an indented one too)."""
        identity = _identity(spec, seed)
        self.write(key or content_key(identity), canonical_json(
            {**identity, "result": encode_result(result)}))
