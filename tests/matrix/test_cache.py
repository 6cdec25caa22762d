"""ResultCache: round-trips, misses, invalidation, atomicity."""

import json

import pytest

from repro.core.runner import RESULT_FIELDS, RunResult
from repro.matrix import ExperimentSpec, ResultCache, unit_key
from repro.matrix.cache import result_from_payload, result_to_payload


def synthetic_result(**overrides) -> RunResult:
    values = dict(
        packets=431, payload_bytes=180_000, percent_overhead=12.5,
        elapsed=1.853, packets_client_to_server=230,
        packets_server_to_client=201, connections_used=43,
        max_parallel_connections=4, retries=2,
        server_cpu_seconds=0.0912, mean_packets_per_connection=10.02,
        mean_packet_size=417.9, mean_request_bytes=301.5,
        statuses={200: 42, 304: 1}, fetch=None)
    values.update(overrides)
    return RunResult(**values)


def entries(cache):
    """The entry files in ``cache``'s directory."""
    return sorted(cache.root.glob("*.json"))


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def test_payload_round_trip_preserves_every_field():
    original = synthetic_result()
    hydrated = result_from_payload(
        json.loads(json.dumps(result_to_payload(original))))
    for name in RESULT_FIELDS:
        assert getattr(hydrated, name) == getattr(original, name)
    assert hydrated.statuses == {200: 42, 304: 1}   # int keys again
    assert hydrated.fetch is None


def test_get_put_round_trip(cache):
    spec = ExperimentSpec()
    assert cache.get(spec, 0) is None
    result = synthetic_result()
    cache.put(spec, 0, result)
    hydrated = cache.get(spec, 0)
    assert hydrated is not None
    assert hydrated.packets == result.packets
    assert hydrated.elapsed == result.elapsed
    assert hydrated.statuses == result.statuses
    assert len(entries(cache)) == 1


def test_float_values_round_trip_bit_identically(cache):
    result = synthetic_result(elapsed=0.21802617626928156,
                              percent_overhead=7.123456789012345)
    cache.put(ExperimentSpec(), 3, result)
    hydrated = cache.get(ExperimentSpec(), 3)
    assert hydrated.elapsed == result.elapsed
    assert hydrated.percent_overhead == result.percent_overhead


def test_different_seed_is_a_miss(cache):
    cache.put(ExperimentSpec(), 0, synthetic_result())
    assert cache.get(ExperimentSpec(), 1) is None


def test_seed_list_does_not_change_unit_keys(cache):
    """Re-averaging over more seeds reuses every unit already stored."""
    cache.put(ExperimentSpec(seeds=(0, 1)), 0, synthetic_result())
    assert cache.get(ExperimentSpec(seeds=(0, 1, 2, 3)), 0) is not None


def test_spec_changes_invalidate(cache):
    spec = ExperimentSpec()
    cache.put(spec, 0, synthetic_result())
    assert cache.get(spec.replace(environment="WAN"), 0) is None
    assert cache.get(spec.replace(
        client_overrides={"max_connections": 2}), 0) is None
    assert cache.get(spec.replace(faults="bursty-loss"), 0) is None


def test_fault_counters_round_trip(cache):
    """The robustness counters survive the cache like any other field."""
    result = synthetic_result(dropped_loss=7, dropped_overflow=2,
                              retransmissions=9, timeouts=1,
                              fast_retransmits=4, checksum_drops=3)
    spec = ExperimentSpec(faults="wire-chaos")
    cache.put(spec, 0, result)
    hydrated = cache.get(spec, 0)
    assert hydrated.dropped_loss == 7
    assert hydrated.dropped_overflow == 2
    assert hydrated.retransmissions == 9
    assert hydrated.timeouts == 1
    assert hydrated.fast_retransmits == 4
    assert hydrated.checksum_drops == 3


def test_version_bump_invalidates(cache):
    spec = ExperimentSpec()
    cache.put(spec, 0, synthetic_result())
    bumped = unit_key(spec, 0, version="999.0.0")
    assert bumped != unit_key(spec, 0)
    assert cache.get(spec, 0, key=bumped) is None
    assert cache.get(spec, 0) is not None


def test_corrupt_entry_is_a_miss(cache):
    spec = ExperimentSpec()
    cache.put(spec, 0, synthetic_result())
    cache.path(spec, 0).write_text("{not json")
    assert cache.get(spec, 0) is None


def test_corrupt_entry_is_unlinked_on_read(cache):
    """A poisoned entry is healed by removal the first time it's seen,
    so it can never be mistaken for a hit twice or linger forever."""
    spec = ExperimentSpec()
    cache.put(spec, 0, synthetic_result())
    cache.path(spec, 0).write_text("{not json")
    assert cache.get(spec, 0) is None
    assert not cache.path(spec, 0).exists()


def test_truncated_entry_is_a_miss_and_heals_on_next_put(cache):
    """A crash mid-disk-flush (torn JSON) or a missing payload key must
    read as a miss, and the next put_many writes a clean replacement —
    the runner never crashes and never serves the torn entry."""
    spec = ExperimentSpec()
    original = synthetic_result()
    cache.put(spec, 0, original)
    good = cache.path(spec, 0).read_text()
    for damage in (good[:len(good) // 2],        # torn mid-write
                   '{"version": "x"}',           # missing result key
                   '{"result": {"packets": 1}}',  # missing columns
                   "[]"):                        # wrong JSON shape
        cache.path(spec, 0).write_text(damage)
        assert cache.get(spec, 0) is None
        assert cache.put_many([(spec, 0, original)]) == 1
        healed = cache.get(spec, 0)
        assert healed is not None
        assert healed.packets == original.packets
        assert healed.elapsed == original.elapsed


def test_an_indented_entry_still_reads(cache):
    """Entries are written compact; one an older writer indented reads
    the same."""
    spec = ExperimentSpec()
    result = synthetic_result()
    cache.put(spec, 0, result)
    path = cache.path(spec, 0)
    entry = json.loads(path.read_text())
    assert path.read_text() == json.dumps(entry, sort_keys=True,
                                          separators=(",", ":"))
    path.write_text(json.dumps(entry, sort_keys=True, indent=1))
    hydrated = cache.get(spec, 0)
    assert hydrated is not None
    for name in RESULT_FIELDS:
        assert getattr(hydrated, name) == getattr(result, name)


def test_put_many_counts_and_round_trips(cache):
    entries = [(ExperimentSpec(), seed, synthetic_result(packets=400 + seed))
               for seed in range(4)]
    assert cache.put_many(entries) == 4
    assert cache.put_many([]) == 0
    for seed in range(4):
        assert cache.get(ExperimentSpec(), seed).packets == 400 + seed


def test_two_caches_share_one_directory(tmp_path):
    """Two runner processes pointed at one cache directory interoperate
    (writes are temp-then-rename, so readers never see partial JSON)."""
    a = ResultCache(tmp_path / "shared")
    b = ResultCache(tmp_path / "shared")
    spec = ExperimentSpec()
    a.put(spec, 0, synthetic_result(packets=111))
    hydrated = b.get(spec, 0)
    assert hydrated is not None and hydrated.packets == 111
    b.put(spec, 0, synthetic_result(packets=222))   # last write wins
    assert a.get(spec, 0).packets == 222


def test_racing_writers_leave_no_temp_debris(tmp_path):
    """Interleaved put() from two caches on the same keys: every entry
    parses, and every uniquely named temp file was consumed by the
    atomic rename."""
    root = tmp_path / "shared"
    a, b = ResultCache(root), ResultCache(root)
    spec = ExperimentSpec()
    for _ in range(5):
        for seed in range(3):
            a.put(spec, seed, synthetic_result())
            b.put(spec, seed, synthetic_result())
    for seed in range(3):
        assert a.get(spec, seed) is not None
    leftovers = [p for p in root.rglob("*") if p.is_file()
                 and not p.name.endswith(".json")]
    assert leftovers == []


def test_concurrent_threads_share_one_cache(tmp_path):
    import threading
    cache = ResultCache(tmp_path / "shared")
    spec = ExperimentSpec()
    errors = []

    def worker(seed):
        try:
            for _ in range(5):
                cache.put(spec, seed, synthetic_result(packets=seed))
                hydrated = cache.get(spec, seed)
                assert hydrated is not None
                assert hydrated.packets == seed
        except Exception as exc:          # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(seed,))
               for seed in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(entries(cache)) == 6


def test_entries_record_their_identity(cache):
    """Cache files carry the spec they were keyed from (debuggability)."""
    spec = ExperimentSpec(mode="1.0", environment="ppp")
    cache.put(spec, 4, synthetic_result())
    entry = json.loads(cache.path(spec, 4).read_text())
    assert entry["seed"] == 4
    assert entry["spec"] == spec.canonical_dict()
