"""The memo primitive, its registry, and the system-level memo-cold gate.

``repro.memo`` states the contract once — a cold, cleared, full or
one-entry memo changes cost, never a result.  The per-memo hypothesis
tests (``tests/http/test_head_memo.py``, ``tests/simnet/test_modem.py``,
``tests/client/test_discovery.py``) are the local references; the gate
here holds *every* memo to one entry at once and demands the same bytes
from the tables, the chaos cells and a contended fleet.  (Registry ↔
DESIGN.md §6b is ``tests/lint/test_deep.py::
test_a_purity_waiver_cannot_outlive_its_memo``.)
"""

import pathlib
import re
from unittest import mock

import pytest

from repro import memo
from repro.__main__ import main
from repro.fleet import FleetSpec, run_fleet
from repro.analysis.report import format_fleet_report
from repro.faults.plan import FAULT_PLANS
from repro.matrix import MatrixRunner

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def scratch_registry():
    """Names a test declares do not outlive it (the registry is checked
    against DESIGN.md elsewhere in this process)."""
    with mock.patch.dict(memo._REGISTRY):
        yield


# ----------------------------------------------------------------------
# The primitive
# ----------------------------------------------------------------------

def test_bounded_and_cleared_when_full(scratch_registry):
    squares = memo.Memo("test.squares", 3)
    for n in range(10):
        assert squares.get(n) is None
        assert squares.store(n, n * n) == n * n
        assert len(squares) <= 3
        assert squares[n] == n * n      # present, also right after a clear
    # 10 builds into 3 slots: full at the 4th, 7th and 10th store.
    assert memo.stats()["test.squares"] == (10, 3, 1)
    assert memo.declared()["test.squares"] == 3


def test_totals_are_the_build_and_clear_sums(scratch_registry):
    before = memo.totals()
    pairs = memo.Memo("test.totals", 2)
    for n in range(5):
        pairs.store(n, n)               # full at the 3rd and 5th store
    assert memo.totals() == (before[0] + 5, before[1] + 2)
    assert memo.totals() == tuple(
        sum(counts[i] for counts in memo.stats().values()) for i in (0, 1))


def test_a_raising_build_stores_and_counts_nothing(scratch_registry):
    halves = memo.Memo("test.halves", 4)
    with pytest.raises(ZeroDivisionError):
        halves.store(0, 1 // 0)
    assert not halves
    assert memo.stats()["test.halves"] == (0, 0, 0)


def test_one_name_one_bound_shared_counters(scratch_registry):
    first = memo.Memo("test.per-store", 2)
    with pytest.raises(ValueError, match="test.per-store"):
        memo.Memo("test.per-store", 3)
    second = first.fresh()
    assert second is not first and second.bound == 2 and not second
    first.store("a", 1)
    second.store("a", 2)
    second.store("b", 3)
    second.store("c", 4)                # second is full: one clear
    assert (first["a"], second["c"]) == (1, 4)
    assert memo.stats()["test.per-store"] == (4, 1, 2)
    del second                          # entries follow the live instances
    assert memo.stats()["test.per-store"] == (4, 1, 1)


def test_cold_reaches_later_instances_and_is_restored(scratch_registry):
    before = memo.Memo("test.cold", 8)
    with memo.cold():
        after = before.fresh()
        for m in (before, after):
            m.store(1, "one")
            m.store(2, "two")
            assert dict(m) == {2: "two"}
    for n in range(3, 9):
        before.store(n, str(n))
    assert len(before) == 7             # the bound is 8 again
    with pytest.raises(RuntimeError):
        with memo.cold():
            raise RuntimeError("boom")
    assert memo._COLD is False


def test_the_one_entry_switch_has_no_production_caller():
    callers = [path for path in SRC.rglob("*.py")
               if re.search(r"\bcold\(", path.read_text(encoding="utf-8"))]
    assert callers == [SRC / "repro" / "memo.py"]


# ----------------------------------------------------------------------
# Memo-cold joins the byte-identity list
# ----------------------------------------------------------------------

#: A revalidating fleet behind a saturated accept gate.
_REVALIDATING_FLEET = FleetSpec(
    users=16, cohorts=2, environment="WAN", scenario="revalidate",
    arrival_rate=8.0, think_time=0.5, pages_per_user=2,
    server_capacity=2, backbone_bps=1.5e6, epoch=10.0, rounds=2,
    max_sim_time=300.0, seed=3)


def _everything(capsys):
    """Tables 3-7 at one seed, 8-11 and the modem table at two (the
    second seed is what exercises the LZW hit path), one chaos cell per
    fault plan for a plain and a framed mode, and a revalidating fleet
    behind a saturated accept gate."""
    def cli(*argv):
        assert main([str(arg) for arg in argv]) == 0
        return capsys.readouterr().out

    texts = [cli("table", n, "--runs", 1) for n in range(3, 8)]
    texts += [cli("table", n, "--runs", 2) for n in range(8, 12)]
    texts.append(cli("modem", "--runs", 2))
    texts += [cli("chaos", "--seed", 1997, "--only", f"{plan}:{mode}:WAN")
              for plan in sorted(FAULT_PLANS)
              for mode in ("pipelined", "mux")]
    fleet = run_fleet(_REVALIDATING_FLEET)
    assert fleet.queue_waits            # the gate did saturate
    texts.append(format_fleet_report(fleet))
    return texts


def test_memo_cold_output_is_byte_identical(capsys):
    as_is = _everything(capsys)
    before = memo.stats()
    with memo.cold():
        one_entry = _everything(capsys)
    assert one_entry == as_is
    # It cannot pass by not engaging: every memo was emptied for being
    # full (at one entry) during the cold leg.
    cleared = {name: clears - before[name][1]
               for name, (_, clears, _) in memo.stats().items()}
    assert len(cleared) == len(memo.declared()) and all(cleared.values()), \
        cleared


def test_a_repeated_fleet_parses_no_new_response_head():
    # Every response head of a run recurs byte for byte in the next
    # one: nothing per-run (a clock, a counter) reaches the head bytes.
    from repro.http import parser
    parser._RESPONSE_HEADS.clear()
    first = format_fleet_report(run_fleet(_REVALIDATING_FLEET))
    builds = memo.stats()["http.response-heads"][0]
    assert 0 < len(parser._RESPONSE_HEADS) < parser._RESPONSE_HEADS.bound
    second = format_fleet_report(run_fleet(_REVALIDATING_FLEET))
    assert memo.stats()["http.response-heads"][0] == builds
    assert second == first


#: First-time WAN users arriving over about twenty simulated seconds.
_SPREAD_FLEET = FleetSpec(
    users=12, cohorts=2, environment="WAN", arrival_rate=0.5,
    think_time=0.0, pages_per_user=1, rounds=1, max_sim_time=300.0, seed=5)


def test_response_heads_that_differ_only_in_date_share_an_entry():
    # Each object's 200 head recurs in every second the fleet runs,
    # under its new Date; the memo keys it once per status line.
    from repro.content import build_microscape_site
    from repro.http import parser
    parser._RESPONSE_HEADS.clear()
    result = run_fleet(_SPREAD_FLEET)
    arrivals = [session.arrival for session in result.sessions]
    assert max(arrivals) - min(arrivals) > 10
    status_lines = {key.split(b"\r\n", 1)[0]
                    for key in parser._RESPONSE_HEADS}
    assert status_lines == {b"HTTP/1.0 200 OK", b"HTTP/1.1 200 OK"}
    objects = len(build_microscape_site().all_urls())
    assert len(parser._RESPONSE_HEADS) <= objects * len(status_lines)
    builds = memo.stats()["http.response-heads"][0]
    again = run_fleet(_SPREAD_FLEET)
    assert memo.stats()["http.response-heads"][0] == builds
    assert again.page_times == result.page_times


@pytest.mark.parametrize("jobs", [1, 2])
def test_matrix_stats_count_a_cold_then_a_warm_table(jobs):
    from repro.analysis import reproduce_protocol_table
    from repro.simnet import modem
    modem._COMPRESSED_MEMO.clear()      # forked workers inherit it empty
    with MatrixRunner(jobs=jobs) as runner:
        _, cold = reproduce_protocol_table("Apache", "PPP", runs=1,
                                           runner=runner)
        built = runner.stats.memo_builds
        # With jobs=2 this is the delta crossing the process boundary;
        # how much each worker built depends on which units it drew.
        assert built > 0
        _, warm = reproduce_protocol_table("Apache", "PPP", runs=1,
                                           runner=runner)
        assert warm == cold
        if jobs == 1:
            assert runner.stats.memo_builds == built
    # Collector traffic rides the same channel (the objects are the
    # stdlib's: tests/test_object_lifetime.py holds ours to zero).
    assert runner.stats.gc_collected >= 0
    assert runner.stats.summary().endswith(
        f"; memos {runner.stats.memo_builds} built, 0 cleared; "
        f"gc {runner.stats.gc_collected} collected")
