"""The one content-addressed store: its key rule, its layout on disk and
its heal-on-read, shared by results, run journals and artifacts."""

import json

from repro import __version__
from repro.content.artifacts import artifact_key
from repro.matrix import ExperimentSpec, ResultCache, RunJournal, unit_key
from repro.matrix.cache import encode_result
from repro.store import ForeignEntry, Store

from .matrix.test_cache import synthetic_result


# ----------------------------------------------------------------------
# One key rule
# ----------------------------------------------------------------------
def test_unit_key_is_pinned_at_the_package_version():
    """Every result cache and journal on disk is addressed by this hex:
    a refactor of the key rule must not move it.  A ``__version__``
    bump moves it on purpose (and re-pins it here)."""
    assert __version__ == "1.5.2"
    assert unit_key(ExperimentSpec(), 0) == (
        "207f703921e30d21f50351ef22340da8"
        "81f63312f7d00e1c38627bfc31720d7b")


def test_artifact_key_is_pinned():
    assert artifact_key("gif.icon", {"colors": 8}, 0) == (
        "559624c16759bf4607a7b16e21dfb4f0"
        "bbcdc64f30064bbf7dc4fbb2e8f8018a")


# ----------------------------------------------------------------------
# The layout on disk is a compatibility contract
# ----------------------------------------------------------------------
def test_an_entry_in_the_established_layout_is_a_hit(tmp_path):
    """A compact ``{version, seed, spec, result}`` entry at
    ``<root>/<unit key>.json``, written by hand as earlier releases
    wrote it, reads back from a result cache and from a journal, and
    ``put`` writes the same bytes."""
    spec = ExperimentSpec(mode="pipelined", environment="WAN")
    result = synthetic_result()
    entry = json.dumps({"version": __version__, "seed": 0,
                        "spec": spec.canonical_dict(),
                        "result": encode_result(result)},
                       sort_keys=True, separators=(",", ":"))
    journal = RunJournal("grid", tmp_path / "runs")
    for root in (tmp_path / "cache", journal.root):
        root.mkdir(parents=True)
        (root / f"{unit_key(spec, 0)}.json").write_text(entry)
    cache = ResultCache(tmp_path / "cache")
    assert cache.get(spec, 0).packets == result.packets
    assert journal.load()[unit_key(spec, 0)].elapsed == result.elapsed
    assert (cache.hits, cache.misses) == (1, 0)
    cache.put(spec, 0, result)
    assert cache.path(unit_key(spec, 0)).read_text() == entry


# ----------------------------------------------------------------------
# One read path
# ----------------------------------------------------------------------
def decode_text(data: bytes) -> str:
    text = data.decode("ascii")
    if text == "foreign":
        raise ForeignEntry(text)
    if text == "corrupt":
        raise ValueError(text)
    return text


def test_read_counts_and_heals(tmp_path):
    store = Store(tmp_path / "s", ".txt")
    assert store.read("missing", decode_text) is None     # unreadable
    store.write("good", b"fine")
    assert store.read("good", decode_text) == "fine"
    store.write("bad", b"corrupt")
    assert store.read("bad", decode_text) is None
    assert not store.path("bad").exists()                 # unlinked
    store.write("other", b"foreign")
    assert store.read("other", decode_text) is None
    assert store.path("other").exists()                   # left on disk
    assert (store.hits, store.misses) == (1, 3)
    store.write("bad", b"mended")                         # next write
    assert store.read("bad", decode_text) == "mended"
