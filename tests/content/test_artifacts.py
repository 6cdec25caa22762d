"""Artifact store: keys, memoization, persistence, byte-identity."""

import pickle

import pytest

from repro.content import artifacts
from repro.content.artifacts import (DEFAULT_ARTIFACT_DIR, ENCODER_VERSION,
                                     ArtifactStore, artifact_key)


@pytest.fixture
def root(tmp_path, monkeypatch):
    """A throwaway working directory; every store's blobs land in it."""
    monkeypatch.chdir(tmp_path)
    return tmp_path / DEFAULT_ARTIFACT_DIR


@pytest.fixture
def store(root):
    return ArtifactStore()


@pytest.fixture
def default_store(root, monkeypatch):
    """Swap the process-default store for a throwaway one."""
    fresh = ArtifactStore()
    monkeypatch.setattr(artifacts, "_DEFAULT_STORE", fresh)
    return fresh


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
def test_key_is_stable_across_param_ordering():
    a = artifact_key("gif.icon", {"colors": 8, "speckle": 2}, 0)
    b = artifact_key("gif.icon", {"speckle": 2, "colors": 8}, 0)
    assert a == b
    assert len(a) == 64 and int(a, 16) >= 0


def test_key_is_sensitive_to_every_component():
    base = artifact_key("gif.icon", {"colors": 8}, 0)
    assert artifact_key("gif.photo", {"colors": 8}, 0) != base
    assert artifact_key("gif.icon", {"colors": 9}, 0) != base
    assert artifact_key("gif.icon", {"colors": 8}, 1) != base


def test_version_bump_changes_every_key(monkeypatch):
    before = artifact_key("gif.icon", {"colors": 8}, 0)
    monkeypatch.setattr(artifacts, "ENCODER_VERSION", ENCODER_VERSION + 1)
    assert artifact_key("gif.icon", {"colors": 8}, 0) != before


# ----------------------------------------------------------------------
# Memoization
# ----------------------------------------------------------------------
def test_memoize_calls_producer_once(store):
    calls = []

    def produce():
        calls.append(1)
        return b"payload"

    assert store.memoize("b", {"x": 1}, 0, produce) == b"payload"
    assert store.memoize("b", {"x": 1}, 0, produce) == b"payload"
    assert len(calls) == 1
    assert store.stats.misses == 1
    assert store.stats.hits == 1


def test_disk_round_trip_survives_new_store(root):
    ArtifactStore().memoize("b", {}, 0, lambda: b"persisted")
    reopened = ArtifactStore()
    blob = reopened.memoize("b", {}, 0, lambda: b"WRONG")
    assert blob == b"persisted"
    assert (reopened.stats.hits, reopened.stats.misses) == (1, 0)


def test_disabled_store_is_pure_pass_through(root):
    store = ArtifactStore(enabled=False)
    calls = []
    for _ in range(2):
        store.memoize("b", {}, 0, lambda: calls.append(1) or b"x")
    assert len(calls) == 2
    assert len(store) == 0
    assert not root.exists()


def test_lru_bound_is_respected(store, monkeypatch):
    monkeypatch.setattr(artifacts, "_MEMORY_ENTRIES", 2)
    for i in range(5):
        store.memoize("b", {"i": i}, 0, lambda i=i: bytes([i]))
    assert len(store._memory) == 2
    assert len(store) == 5                 # the disk keeps every blob


def test_memoize_object_round_trips_and_heals_corruption(store):
    value = {"nested": [1, 2.5, "three"], "tuple": (4, 5)}
    first = store.memoize_object("obj", {}, 0, lambda: value)
    assert first == value
    # Corrupt the blob on disk and drop the memory layer: the bad
    # pickle must count as a miss and be overwritten, not raised.
    key = artifact_key("obj", {}, 0)
    store._memory.clear()
    store.path(key).write_bytes(b"not a pickle")
    healed = store.memoize_object("obj", {}, 0, lambda: value)
    assert healed == value
    assert pickle.loads(store.path(key).read_bytes()) == value
    # One lookup, one count, across the heal: first (miss), corrupt
    # (a miss, not a hit *and* a miss), then a clean hit.
    assert store.memoize_object("obj", {}, 0, lambda: value) == value
    assert (store.stats.hits, store.stats.misses) == (1, 2)


def test_clear_removes_blobs(store):
    for i in range(3):
        store.memoize("b", {"i": i}, 0, lambda: b"x")
    assert len(store) == 3
    assert store.clear() == 3
    assert len(store) == 0


# ----------------------------------------------------------------------
# Concurrent access / atomicity (two runners sharing one directory)
# ----------------------------------------------------------------------
def test_two_stores_share_one_directory(root):
    a, b = ArtifactStore(), ArtifactStore()
    a.memoize("b", {}, 0, lambda: b"from-a")
    assert b.memoize("b", {}, 0, lambda: b"WRONG") == b"from-a"
    assert b.stats.hits == 1


def test_racing_writers_leave_no_temp_debris(root):
    """Interleaved put() on one key: last write wins, blob stays whole,
    and every uniquely named temp file is consumed by os.replace."""
    a, b = ArtifactStore(), ArtifactStore()
    key = artifact_key("b", {}, 0)
    for _ in range(10):
        a.put(key, b"identical-content")
        b.put(key, b"identical-content")
    assert a.path(key).read_bytes() == b"identical-content"
    leftovers = [p for p in root.rglob("*") if p.is_file()
                 and not p.name.endswith(".blob")]
    assert leftovers == []


def test_concurrent_memoize_threads_agree(store):
    import threading
    results = []

    def worker(i):
        blob = store.memoize("b", {}, 0, lambda: b"canonical")
        results.append(blob)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [b"canonical"] * 8
    assert len(store) == 1


# ----------------------------------------------------------------------
# Default-store plumbing
# ----------------------------------------------------------------------
def test_env_flag_disables_lazy_default(monkeypatch):
    monkeypatch.setenv("REPRO_ARTIFACT_CACHE", "0")
    monkeypatch.setattr(artifacts, "_DEFAULT_STORE", None)
    assert artifacts.get_store().enabled is False


# ----------------------------------------------------------------------
# Byte-identity: the property the whole design rests on
# ----------------------------------------------------------------------
def test_site_build_is_byte_identical_warm_and_disabled(root, monkeypatch):
    from repro.content import build_microscape_site

    def site_signature(store):
        monkeypatch.setattr(artifacts, "_DEFAULT_STORE", store)
        build_microscape_site.cache_clear()
        site = build_microscape_site()
        return ([(obj.url, obj.body) for obj in site.image_objects],
                site.html.body)

    try:
        cold = site_signature(ArtifactStore())
        warm = site_signature(ArtifactStore())
        assert artifacts.get_store().stats.hits > 0     # from the disk
        uncached = site_signature(ArtifactStore(enabled=False))
    finally:
        build_microscape_site.cache_clear()
    assert cold == warm == uncached


def test_deflate_precompression_is_memoized(default_store):
    from repro.server.static import Resource
    body = b"<html>" + b"x" * 4096 + b"</html>"
    first = Resource.create("/page.html", "text/html", body)
    misses = default_store.stats.misses
    second = Resource.create("/page.html", "text/html", body)
    assert first.deflate_body == second.deflate_body
    assert first.deflate_body is not None
    assert default_store.stats.misses == misses   # second hit the memo
