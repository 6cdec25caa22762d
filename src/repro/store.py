"""One content-addressed store on disk, in three namespaces.

An entry is the file ``<root>/<key><suffix>``, its key the
:func:`content_key` of what it was computed from, so a changed input is
a new key and a stale entry is never addressed again.  The namespaces
are thin subclasses of :class:`Store`: results
(:class:`~repro.matrix.cache.ResultCache`, ``<cache dir>/<unit
key>.json``), run journals (:class:`~repro.matrix.journal.RunJournal`,
``<cache dir>/runs/<run id>/<unit key>.json``) and artifacts
(:class:`~repro.content.artifacts.ArtifactStore`,
``.repro-cache/artifacts/<key>.blob``).

Their defaults differ on purpose.  A result key names the experiment
and the package version, not the simulator code that measured it, so
a cache on by default would replay old numbers after an edit between
version bumps: results are stored only under ``--cache`` /
``--cache-dir``.  An artifact key names ``ENCODER_VERSION``, which every
encoder change bumps, and a blob is the encoder's own bytes, so serving
one changes no output: artifacts are stored unless
``REPRO_ARTIFACT_CACHE=0``.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
from pathlib import Path
from typing import Any, Callable, List, Optional, Union

__all__ = ["DEFAULT_CACHE_DIR", "canonical_json", "content_key",
           "ForeignEntry", "Store"]

#: The directory every namespace lives under by default.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Process-unique temp-file suffixes: the pid alone is not enough when
#: two stores in one process write one key.
_TMP_COUNTER = itertools.count()


def canonical_json(value: Any) -> bytes:
    """Compact, key-sorted JSON: what a key is hashed from and what a
    result entry is written as.  (An indented dump takes json's
    pure-Python encoder, about three times the cost.)"""
    return json.dumps(value, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def content_key(identity: Any) -> str:
    """The key of whatever is computed from ``identity`` (JSON-safe
    scalars, lists and dicts): the SHA-256 of its canonical JSON."""
    return hashlib.sha256(canonical_json(identity)).hexdigest()


class ForeignEntry(Exception):
    """A decoder's verdict on a well-formed entry it cannot read, such
    as a result kind this process has not registered: a miss, but not
    corruption, so the entry stays on disk."""


class Store:
    """The entries ``<root>/<key><suffix>``, with this instance's hit
    and miss counts."""

    __slots__ = ("root", "suffix", "hits", "misses")

    def __init__(self, root: Union[str, Path], suffix: str) -> None:
        self.root = Path(root)
        self.suffix = suffix
        self.hits = 0
        self.misses = 0

    def path(self, key: str) -> Path:
        """Where the entry for ``key`` lives."""
        return self.root / f"{key}{self.suffix}"

    def read(self, key: str, decode: Callable[[bytes], Any]
             ) -> Optional[Any]:
        """``decode`` of the entry's bytes (never None), or None on a miss.

        An unreadable file is a miss, and so is a :class:`ForeignEntry`,
        left on disk.  A file that does not decode is corrupt: it is
        unlinked on sight (best effort: a racer may have replaced it),
        so the next :meth:`write` replaces it.
        """
        path = self.path(key)
        value = None
        try:
            value = decode(path.read_bytes())
        except (OSError, ForeignEntry):
            pass
        except Exception:
            with contextlib.suppress(OSError):
                path.unlink()
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def write(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key`` through a temp file unique to this
        process and write, then an atomic :func:`os.replace`: racing
        writers each leave a whole entry (the same bytes, by content
        addressing), and a SIGKILL leaves a whole entry or none."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(key)
        tmp = self.root / (
            f".{path.name}.tmp.{os.getpid()}.{next(_TMP_COUNTER)}")
        tmp.write_bytes(data)
        os.replace(tmp, path)

    def sorted_keys(self) -> List[str]:
        """Every stored key, sorted."""
        cut = len(self.suffix)
        return sorted(path.name[:-cut]
                      for path in self.root.glob(f"*{self.suffix}"))

    def clear(self) -> int:
        """Delete every entry; returns how many there were."""
        keys = self.sorted_keys()
        for key in keys:
            self.path(key).unlink(missing_ok=True)
        return len(keys)
