"""RunJournal: the result cache of one run, verdicts included."""

import json

import pytest

from repro.__main__ import build_parser
from repro.core.runner import UnitFailure
from repro.matrix import (ExperimentSpec, MatrixRunner, ResultCache,
                          RunJournal, unit_key)

from .test_cache import entries, synthetic_result
from .test_matrix_runner import FAST, assert_results_identical


@pytest.fixture
def journal(tmp_path):
    return RunJournal("trial", tmp_path / "runs")


def test_run_id_must_be_filename_safe(capsys):
    # --journal's RUN_ID names one directory under <cache dir>/runs/:
    # anything else is a usage error before a runner (or journal) exists.
    for bad in ("", "../escape", "a/b", "a b", ".hidden"):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["table", "4", "--journal", bad])
        assert excinfo.value.code == 2
        assert "must be filename-safe" in capsys.readouterr().err
    assert build_parser().parse_args(
        ["table", "4", "--journal", "report-1a2b3c"]).journal == \
        "report-1a2b3c"


def test_result_round_trip(journal, tmp_path):
    spec = ExperimentSpec(**FAST)
    result = synthetic_result()
    journal.record_result(spec, 0, result)
    assert journal.root == tmp_path / "runs" / "trial"
    hydrated = journal.load()[unit_key(spec, 0)]
    assert hydrated.packets == result.packets
    assert hydrated.elapsed == result.elapsed
    assert hydrated.fetch is None
    # One entry format: what the journal wrote, a result cache reads.
    [path] = entries(journal)
    assert sorted(json.loads(path.read_text())) == [
        "result", "seed", "spec", "version"]
    assert ResultCache(journal.root).get(spec, 0).packets == result.packets


def test_failure_round_trip(journal):
    spec = ExperimentSpec(**FAST)
    failure = UnitFailure(label=spec.label, seed=3, kind="deadline",
                          error="wall-clock deadline expired",
                          traceback_digest="", attempts=3)
    journal.record_result(spec, 3, failure)
    assert journal.load()[unit_key(spec, 3)] == failure


def test_no_temp_debris_after_writes(journal):
    spec = ExperimentSpec(**FAST)
    for seed in range(5):
        journal.record_result(spec, seed, synthetic_result())
    leftovers = [p for p in journal.root.iterdir()
                 if not p.name.endswith(".json")]
    assert leftovers == []
    assert len(entries(journal)) == 5


def test_corrupt_record_is_skipped_and_unlinked(journal):
    spec = ExperimentSpec(**FAST)
    journal.record_result(spec, 0, synthetic_result())
    bad = journal.root / ("e" * 64 + ".json")
    bad.write_text("{torn mid-write")
    records = journal.load()
    assert unit_key(spec, 0) in records
    assert not bad.exists()          # healed by removal
    assert len(records) == 1


def test_hydrate_rejects_unrecognized_shapes(journal):
    journal.root.mkdir(parents=True)
    shapes = {"a": {}, "b": {"result": {}},
              "c": {"result": {"__kind__": "failure", "bogus": 1}},
              "d": {"result": {"__kind__": "not-loaded-here"}}}
    for name, entry in shapes.items():
        (journal.root / f"{name * 64}.json").write_text(json.dumps(entry))
    assert journal.load() == {}
    # Malformed entries are healed; one whose codec another process
    # registered is valid data, left on disk.
    assert [path.name[0] for path in entries(journal)] == ["d"]


def test_records_are_keyed_by_unit_key(journal):
    spec = ExperimentSpec(**FAST)
    failure = UnitFailure(label=spec.label, seed=1, kind="exception",
                          error="boom", traceback_digest="", attempts=1)
    journal.record_result(spec, 0, synthetic_result())
    journal.record_result(spec, 1, failure)
    assert sorted(journal.load()) == sorted(
        [unit_key(spec, 0), unit_key(spec, 1)])
    assert [p.stem for p in entries(journal)] == sorted(journal.load())


# ----------------------------------------------------------------------
# End-to-end resume through the MatrixRunner
# ----------------------------------------------------------------------
def grid_specs():
    return [ExperimentSpec(seeds=(0, 1, 2), **FAST),
            ExperimentSpec(seeds=(0, 1, 2), mode="HTTP/1.1",
                           scenario="revalidate", environment="LAN",
                           server="Jigsaw")]


def test_resume_replays_byte_identical(tmp_path):
    specs = grid_specs()
    serial = MatrixRunner(jobs=1).run_many(specs)
    root = tmp_path / "runs"
    with MatrixRunner(jobs=2, journal=RunJournal("grid", root)) as r:
        first = r.run_many(specs)
        assert r.stats.sim_runs == 6
    with MatrixRunner(jobs=2, journal=RunJournal("grid", root)) as r:
        resumed = r.run_many(specs)
        assert r.stats.sim_runs == 0
        assert r.stats.journal_hits == 6
    for a, b, c in zip(serial, first, resumed):
        assert_results_identical(a, b)
        assert_results_identical(a, c)


def test_partial_journal_resumes_only_whats_missing(tmp_path):
    specs = grid_specs()
    root = tmp_path / "runs"
    # Simulate an interrupted run: journal only the first cell's units.
    seeding = RunJournal("grid", root)
    serial = MatrixRunner(jobs=1,
                          journal=seeding).run_many([specs[0]])
    events = []
    with MatrixRunner(jobs=2, journal=RunJournal("grid", root),
                      progress=events.append) as r:
        resumed = r.run_many(specs)
        assert r.stats.journal_hits == 3
        assert r.stats.sim_runs == 3      # only the second cell ran
    assert_results_identical(serial[0], resumed[0])
    hits = [e for e in events if e.status == "hit"]
    assert len(hits) == 3


def test_journaled_failures_replay_on_resume(tmp_path, unit_faults,
                                             monkeypatch):
    specs = grid_specs()
    root = tmp_path / "runs"
    unit_faults.poison(specs[0], 1)
    with MatrixRunner(jobs=1, journal=RunJournal("grid", root)) as r:
        first = r.run_many(specs)
    assert len(first[0].failures) == 1
    # Resume WITHOUT the fault: the quarantine verdict replays from the
    # journal rather than re-running the unit.
    monkeypatch.undo()
    with MatrixRunner(jobs=1, journal=RunJournal("grid", root)) as r:
        resumed = r.run_many(specs)
        assert r.stats.sim_runs == 0
        assert r.stats.failures == 1
    assert resumed[0].failures == first[0].failures
    assert_results_identical(first[1], resumed[1])


def test_a_verdict_is_journaled_but_never_cached(tmp_path, unit_faults):
    unit_faults.poison(grid_specs()[0], 1)
    cache = ResultCache(tmp_path / "cache")
    journal = RunJournal("grid", tmp_path / "cache" / "runs")
    with MatrixRunner(jobs=1, cache=cache, journal=journal) as r:
        r.run_many(grid_specs())
        assert r.stats.failures == 1

    def kinds(store):
        return sorted(json.loads(path.read_text())["result"]["__kind__"]
                      for path in entries(store))
    assert kinds(cache) == ["run"] * 5
    assert kinds(journal) == ["failure"] + ["run"] * 5
