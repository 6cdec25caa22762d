"""The artifact namespace of the one store: expensive encoder outputs.

Without it every fresh worker process re-synthesizes the Microscape
site (the ``_calibrate`` encode loops of :mod:`repro.content.microscape`,
GIF LZW, deflate) before its first 10–80 ms cell: 0.27–0.32 s a build
(host-corrected ``setup_s`` of ``bash bench/run.sh``).  Memoized here,
only a machine's first build pays for them.

The key is the :func:`~repro.store.content_key` of the builder name,
its parameters, the seed and :data:`ENCODER_VERSION`; any change to an
encoder must bump :data:`ENCODER_VERSION`, which retires every stored
blob at once.  A blob *is* the encoder's exact output bytes, so serving
it or re-encoding are byte-for-byte interchangeable and no golden trace
depends on the store's state.  Blobs are
``.repro-cache/artifacts/<key>.blob`` under the working directory,
written and healed by :class:`repro.store.Store` (a pickle that does
not load is unlinked and rebuilt).

``REPRO_ARTIFACT_CACHE=0`` in the environment (worker processes inherit
it) disables the store: it calls its producer every time and touches no
files.
"""

from __future__ import annotations

import functools
import os
import pickle
from typing import Any, Callable, Mapping, Optional

from ..store import DEFAULT_CACHE_DIR, Store, content_key

__all__ = ["ENCODER_VERSION", "DEFAULT_ARTIFACT_DIR", "ArtifactStore",
           "get_store", "artifact_key"]

#: Version of the encoder family feeding the store.  **Bump this
#: whenever any memoized encoder changes output** (GIF/PNG/MNG codecs,
#: the Microscape generators, deflate parameters): the version is part
#: of every key, so a bump invalidates all previously stored artifacts.
ENCODER_VERSION = 1

DEFAULT_ARTIFACT_DIR = os.path.join(DEFAULT_CACHE_DIR, "artifacts")

_pickled = functools.partial(pickle.dumps, protocol=pickle.HIGHEST_PROTOCOL)


def artifact_key(builder: str, params: Mapping[str, Any],
                 seed: int) -> str:
    """Stable content hash addressing one artifact.

    ``params`` must be JSON-serializable scalars/lists/dicts; the hash
    covers the builder name, the canonicalized parameters, the seed and
    :data:`ENCODER_VERSION`.
    """
    return content_key({
        "builder": builder,
        "params": dict(params),
        "seed": int(seed),
        "encoder_version": ENCODER_VERSION,
    })


class ArtifactStore(Store):
    """The blobs under :data:`DEFAULT_ARTIFACT_DIR` (created on first
    write, relative to the working directory).

    A disabled store (``enabled=False``) is a transparent pass-through:
    every ``memoize`` calls its producer, nothing is stored.
    """

    __slots__ = ("enabled",)

    def __init__(self, *, enabled: bool = True) -> None:
        super().__init__(DEFAULT_ARTIFACT_DIR, ".blob")
        self.enabled = enabled

    def memoize(self, builder: str, params: Mapping[str, Any], seed: int,
                produce: Callable[[], bytes]) -> bytes:
        """The bytes ``produce()`` would return, cached content-addressed."""
        return self._memoize(builder, params, seed, produce, bytes, bytes)

    def memoize_object(self, builder: str, params: Mapping[str, Any],
                       seed: int, produce: Callable[[], Any]) -> Any:
        """Like :meth:`memoize` for picklable objects (stored pickled)."""
        return self._memoize(builder, params, seed, produce, pickle.loads,
                             _pickled)

    def _memoize(self, builder, params, seed, produce, decode, encode):
        if not self.enabled:
            return produce()
        key = artifact_key(builder, params, seed)
        value = self.read(key, decode)
        if value is None:
            value = produce()
            self.write(key, encode(value))
        return value


#: The process-default store, :func:`get_store`'s.
_DEFAULT_STORE: Optional[ArtifactStore] = None


def get_store() -> ArtifactStore:
    """The process-wide default store (created lazily)."""
    global _DEFAULT_STORE
    if _DEFAULT_STORE is None:
        _DEFAULT_STORE = ArtifactStore(enabled=os.environ.get(
            "REPRO_ARTIFACT_CACHE", "1").lower() not in (
                "0", "false", "off", "no"))
    return _DEFAULT_STORE
