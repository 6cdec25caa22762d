"""RunJournal: atomicity, round-trips, hydration, resume identity."""

import json

import pytest

from repro.core.runner import UnitFailure
from repro.matrix import ExperimentSpec, MatrixRunner, RunJournal, unit_key

from .test_cache import synthetic_result
from .test_matrix_runner import FAST, assert_results_identical


@pytest.fixture
def journal(tmp_path):
    return RunJournal("trial", tmp_path / "runs")


def test_run_id_must_be_filename_safe(tmp_path):
    for bad in ("", "../escape", "a/b", "a b", ".hidden"):
        with pytest.raises(ValueError):
            RunJournal(bad, tmp_path)
    RunJournal("report-1a2b3c", tmp_path)    # derived ids are fine


def test_begin_is_idempotent_and_writes_manifest(journal):
    assert not journal.exists()
    journal.begin()
    journal.begin()
    assert journal.exists()
    manifest = json.loads((journal.path / "manifest.json").read_text())
    assert manifest["run_id"] == "trial"
    assert len(journal) == 0


def test_result_round_trip(journal):
    spec = ExperimentSpec(**FAST)
    result = synthetic_result()
    journal.record_result(spec, 0, result)
    record = journal.load()[unit_key(spec, 0)]
    assert record["status"] == "ok"
    hydrated = RunJournal.hydrate(record)
    assert hydrated.packets == result.packets
    assert hydrated.elapsed == result.elapsed
    assert hydrated.fetch is None and hydrated.trace is None


def test_failure_round_trip(journal):
    spec = ExperimentSpec(**FAST)
    failure = UnitFailure(label=spec.label, seed=3, kind="deadline",
                          error="wall-clock deadline expired",
                          traceback_digest="", attempts=3)
    journal.record_failure(spec, 3, failure)
    hydrated = RunJournal.hydrate(journal.load()[unit_key(spec, 3)])
    assert hydrated == failure


def test_no_temp_debris_after_writes(journal):
    spec = ExperimentSpec(**FAST)
    for seed in range(5):
        journal.record_result(spec, seed, synthetic_result())
    leftovers = [p for p in journal.units_dir.iterdir()
                 if not p.name.endswith(".json")]
    assert leftovers == []
    assert len(journal) == 5


def test_corrupt_record_is_skipped_and_unlinked(journal):
    spec = ExperimentSpec(**FAST)
    journal.record_result(spec, 0, synthetic_result())
    bad = journal.units_dir / ("e" * 64 + ".json")
    bad.write_text("{torn mid-write")
    records = journal.load()
    assert unit_key(spec, 0) in records
    assert not bad.exists()          # healed by removal
    assert len(records) == 1


def test_hydrate_rejects_unrecognized_shapes():
    assert RunJournal.hydrate({}) is None
    assert RunJournal.hydrate({"status": "weird"}) is None
    assert RunJournal.hydrate({"status": "ok"}) is None
    assert RunJournal.hydrate({"status": "failed",
                               "failure": {"bogus": 1}}) is None


def test_clear_drops_unit_records(tmp_path):
    journal = RunJournal("beta", tmp_path / "runs")
    journal.record_result(ExperimentSpec(**FAST), 0, synthetic_result())
    assert journal.clear() == 1
    assert len(journal) == 0


def test_records_are_keyed_by_unit_key(journal):
    spec = ExperimentSpec(**FAST)
    failure = UnitFailure(label=spec.label, seed=1, kind="exception",
                          error="boom", traceback_digest="", attempts=1)
    journal.record_result(spec, 0, synthetic_result())
    journal.record_failure(spec, 1, failure)
    assert sorted(journal.load()) == sorted(
        [unit_key(spec, 0), unit_key(spec, 1)])
    assert sorted(p.stem for p in journal.units_dir.iterdir()) == \
        sorted(journal.load())


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


def test_journaled_failures_replay_on_resume(tmp_path):
    from repro.faults import HarnessFaultPlan
    specs = grid_specs()
    root = tmp_path / "runs"
    plan = HarnessFaultPlan(name="t", poison_units=(1,), poison_seed=1)
    with MatrixRunner(jobs=1, harness_faults=plan,
                      journal=RunJournal("grid", root)) as r:
        first = r.run_many(specs)
    assert len(first[0].failures) == 1
    # Resume WITHOUT the fault plan: the quarantine verdict replays
    # from the journal rather than re-running the unit.
    with MatrixRunner(jobs=1, journal=RunJournal("grid", root)) as r:
        resumed = r.run_many(specs)
        assert r.stats.sim_runs == 0
        assert r.stats.failures == 1
    assert resumed[0].failures == first[0].failures
    assert_results_identical(first[1], resumed[1])
