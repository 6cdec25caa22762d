"""Content-addressed artifact store for expensive encoder outputs.

Without it every fresh worker process re-synthesizes the Microscape
site (the iterative ``_calibrate`` encode loops in
:mod:`repro.content.microscape`, GIF LZW in :mod:`repro.content.gif`,
deflate in :mod:`repro.http.coding`) before its first 10–80 ms
simulation cell: 0.60–0.67 s a build with per-pixel method-call
kernels, 0.27–0.32 s since they became loops on locals (host-corrected
``setup_s`` of ``bash bench/run.sh``).  This module memoizes those
encodes so only the first-ever build pays for them.

Artifacts are **content addressed**: the key is a SHA-256 over the
canonical JSON of ``(builder name, parameters, seed,``
:data:`ENCODER_VERSION`\\ ``)``.  Identical inputs always map to the
same blob; any change to an encoder must bump :data:`ENCODER_VERSION`,
which atomically invalidates every stored artifact (old blobs are
simply never addressed again).  Because the stored value *is* the
encoder's exact output bytes, serving a blob from memory, from disk, or
re-encoding from scratch are byte-for-byte interchangeable — the
golden-trace bit-identity guarantee does not depend on the cache's
state.

Layout: an in-process LRU of decoded blobs in front of loose files
under ``.repro-cache/artifacts/<k[:2]>/<k>.blob``, written atomically
(unique temp name, then :func:`os.replace`) so any number of runner
processes can share one cache directory without corruption or partial
reads.

Disable with the environment variable ``REPRO_ARTIFACT_CACHE=0`` (pool
workers inherit it with the rest of the environment); a disabled store
calls its producer every time and touches no files.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

__all__ = ["ENCODER_VERSION", "DEFAULT_ARTIFACT_DIR", "ArtifactStats",
           "ArtifactStore", "get_store", "artifact_key"]

#: Version of the encoder family feeding the store.  **Bump this
#: whenever any memoized encoder changes output** (GIF/PNG/MNG codecs,
#: the Microscape generators, deflate parameters): the version is part
#: of every key, so a bump invalidates all previously stored artifacts.
ENCODER_VERSION = 1

#: Default blob directory, alongside the result cache.
DEFAULT_ARTIFACT_DIR = os.path.join(".repro-cache", "artifacts")

#: Environment switch: set to ``0`` / ``false`` / ``off`` to disable.
_ENV_FLAG = "REPRO_ARTIFACT_CACHE"

#: Capacity of a store's in-memory LRU; the hot Microscape build
#: touches ~200 artifacts, so this comfortably holds a whole site.
_MEMORY_ENTRIES = 512

#: Process-unique suffixes for atomic temp-then-rename writes (the pid
#: alone is not enough: two stores in one process may write one key).
_TMP_COUNTER = itertools.count()


def artifact_key(builder: str, params: Mapping[str, Any],
                 seed: int) -> str:
    """Stable content hash addressing one artifact.

    ``params`` must be JSON-serializable scalars/lists/dicts; the hash
    covers the builder name, the canonicalized parameters, the seed and
    :data:`ENCODER_VERSION`.
    """
    identity = {
        "builder": builder,
        "params": dict(params),
        "seed": int(seed),
        "encoder_version": ENCODER_VERSION,
    }
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ArtifactStats:
    """Monotonic hit/miss counters for one store's lifetime."""

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0


class ArtifactStore:
    """In-memory LRU over the blobs under :data:`DEFAULT_ARTIFACT_DIR`
    (created on first write, relative to the working directory).

    A disabled store (``enabled=False``) is a transparent pass-through:
    every ``memoize`` calls its producer, nothing is stored.
    """

    __slots__ = ("root", "enabled", "stats", "_memory", "_lock")

    def __init__(self, *, enabled: bool = True) -> None:
        self.root = Path(DEFAULT_ARTIFACT_DIR)
        self.enabled = enabled
        self.stats = ArtifactStats()
        self._memory: "OrderedDict[str, bytes]" = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Raw blob access
    # ------------------------------------------------------------------
    def path(self, key: str) -> Path:
        """On-disk location for ``key``."""
        return self.root / key[:2] / f"{key}.blob"

    def get(self, key: str) -> Optional[bytes]:
        """The blob for ``key``, or None on a miss."""
        if not self.enabled:
            return None
        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self._memory.move_to_end(key)
                self.stats.hits += 1
                return cached
        try:
            blob = self.path(key).read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._remember(key, blob)
        return blob

    def put(self, key: str, blob: bytes) -> None:
        """Store ``blob`` under ``key`` (atomic write, last-wins).

        Concurrent writers racing on one key are safe: each writes its
        own uniquely named temp file and the final :func:`os.replace`
        is atomic, so readers only ever observe complete blobs — and
        content addressing makes every racer's content identical.
        """
        if not self.enabled:
            return
        self._remember(key, blob)
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / (
            f".{key}.tmp.{os.getpid()}.{next(_TMP_COUNTER)}")
        tmp.write_bytes(blob)
        os.replace(tmp, path)

    def _remember(self, key: str, blob: bytes) -> None:
        with self._lock:
            self._memory[key] = blob
            self._memory.move_to_end(key)
            while len(self._memory) > _MEMORY_ENTRIES:
                self._memory.popitem(last=False)

    # ------------------------------------------------------------------
    # Memoization
    # ------------------------------------------------------------------
    def memoize(self, builder: str, params: Mapping[str, Any], seed: int,
                produce: Callable[[], bytes]) -> bytes:
        """The bytes ``produce()`` would return, cached content-addressed."""
        if not self.enabled:
            return produce()
        key = artifact_key(builder, params, seed)
        cached = self.get(key)
        if cached is not None:
            return cached
        blob = produce()
        self.put(key, blob)
        return blob

    def memoize_object(self, builder: str, params: Mapping[str, Any],
                       seed: int, produce: Callable[[], Any]) -> Any:
        """Like :meth:`memoize` for picklable objects (stored pickled).

        An unreadable or stale pickle (interpreter upgrade, truncated
        historic blob) counts as a miss (only) and is overwritten.
        """
        if not self.enabled:
            return produce()
        key = artifact_key(builder, params, seed)
        cached = self.get(key)
        if cached is not None:
            try:
                return pickle.loads(cached)
            except Exception:
                # One lookup, one count: the hit get() booked for the
                # blob it found was not one.
                self.stats.hits -= 1
                self.stats.misses += 1
        value = produce()
        self.put(key, pickle.dumps(value, pickle.HIGHEST_PROTOCOL))
        return value

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Drop the memory layer and delete every blob; returns count."""
        with self._lock:
            self._memory.clear()
        removed = 0
        if self.root.is_dir():
            for path in sorted(self.root.glob("*/*.blob")):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.blob"))


# ----------------------------------------------------------------------
# The process-default store
# ----------------------------------------------------------------------
_DEFAULT_STORE: Optional[ArtifactStore] = None


def _env_enabled() -> bool:
    return os.environ.get(_ENV_FLAG, "1").lower() not in (
        "0", "false", "off", "no")


def get_store() -> ArtifactStore:
    """The process-wide default store (created lazily)."""
    global _DEFAULT_STORE
    if _DEFAULT_STORE is None:
        _DEFAULT_STORE = ArtifactStore(enabled=_env_enabled())
    return _DEFAULT_STORE
