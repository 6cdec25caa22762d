"""The claims ledger: the tier-1 gate on what the repo says of the paper.

One module-scoped cold evaluation (two workers, writing a result cache)
feeds every test below: the parametrised PASS gate, the fidelity
ratchet, the parallel / serial / cached stdout identity and the check
that ``report``'s tables and the table claims are the same cache units.
"""

import ast
import contextlib
import dataclasses
import io
import pathlib
import re
import shutil
import types

import pytest

from repro.__main__ import main
from repro.analysis import (ComparisonRow, PaperCell, fidelity,
                            reproduce_browser_table,
                            reproduce_modem_experiment,
                            reproduce_protocol_table, reproduce_table3)
from repro.analysis import claims as claims_module
from repro.analysis.claims import (CLAIMS, FAIL, PASS, UNMEASURED, CheckRow,
                                   Claim, Ledger, evaluate_claims,
                                   format_claims_report)
from repro.analysis.report import RenderSpec, ablation_cell
from repro.core import FIRST_TIME, TABLE_CELLS, RenderMetrics
from repro.matrix import MatrixRunner, ResultCache, unit_key
from repro.simnet.link import PPP, WAN

REPO = pathlib.Path(__file__).resolve().parents[2]


def run_verb(*argv):
    """``python -m repro <argv>`` in-process: (exit, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(list(argv))
    return status, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """(the ledger, the cache directory its cold run wrote)."""
    cache_dir = tmp_path_factory.mktemp("ledger") / "cache"
    with MatrixRunner(jobs=2, cache=ResultCache(cache_dir)) as runner:
        ledger = evaluate_claims(runner)
        assert runner.stats.sim_runs == runner.stats.units > 279
    return ledger, cache_dir


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------

def test_ids_are_unique_kebab_case_and_sourced():
    ids = [claim.id for claim in CLAIMS]
    assert len(set(ids)) == len(ids)
    for claim in CLAIMS:
        assert re.fullmatch(r"[a-z0-9]+(-[a-z0-9]+)*", claim.id), claim.id
        assert claim.source.strip() and claim.quote.strip(), claim.id


def test_design_md_and_the_registry_name_the_same_claims():
    """Every id in DESIGN.md §4's "Claim id" column is registered, and
    every registered id is cited in §4 or §5."""
    design = (REPO / "DESIGN.md").read_text()
    sections = design[design.index("## 4. "):design.index("## 6. ")]
    column = [line.rsplit("|", 2)[1] for line in sections.splitlines()
              if line.startswith("| ") and "---" not in line][1:]
    registered = {claim.id for claim in CLAIMS}
    cited_in_column = {name for cell in column
                       for name in re.findall(r"`([a-z0-9-]+)`", cell)}
    assert len(column) == 28 and cited_in_column <= registered, (
        sorted(cited_in_column - registered))
    assert registered <= set(re.findall(r"`([a-z0-9-]+)`", sections)), (
        sorted(registered - set(re.findall(r"`([a-z0-9-]+)`", sections))))


# ----------------------------------------------------------------------
# The gate
# ----------------------------------------------------------------------

@pytest.mark.parametrize("claim_id", [claim.id for claim in CLAIMS])
def test_claim_holds(run, claim_id):
    rows = [row for claim, row in run[0].rows if claim.id == claim_id]
    assert rows
    assert [row for row in rows if row.verdict != PASS] == []


def test_fidelity_only_improves(run):
    """The ratchet: the overall scores, pinned at what PR 21 measured
    (0.1460 / 0.1032 / 0.2196, nothing outside 2x).  Lower the bounds
    when a calibration PR earns it; never raise them."""
    overall = fidelity(row for rows in run[0].tables.values()
                       for row in rows)
    assert overall.cells == 44
    assert overall.packets <= 0.147
    assert overall.payload_bytes <= 0.104
    assert overall.seconds <= 0.220
    assert overall.outside_2x == 0


def test_table_claims_and_the_report_share_their_cache_units(run):
    """Every Table 3-11 and modem unit ``report`` asks for at its
    defaults is one the table claims measured: on the ledger's cache
    the tables replay without simulating, so after ``report --runs 5
    --cache`` the verb ``claims`` simulates ablation cells only (and
    the other way round)."""
    table_units = {unit_key(spec, seed)
                   for claim in CLAIMS for spec in claim.specs.values()
                   if spec.seeds != (0,) for seed in spec.seeds}
    assert len(table_units) == 279
    runner = MatrixRunner(cache=ResultCache(run[1]))
    reproduce_table3(runner=runner)
    for server, environment in TABLE_CELLS.values():
        reproduce_protocol_table(server, environment, runner=runner)
    for server in ("Jigsaw", "Apache"):
        reproduce_browser_table(server, runner=runner)
    reproduce_modem_experiment(runner=runner)
    assert (runner.stats.sim_runs, runner.stats.cache_hits) == (0, 279)


def test_a_cached_serial_run_prints_what_the_parallel_cold_run_did(
        run, monkeypatch):
    """Every simulation is a cache unit: the replay builds no testbed
    (the proxy chain, the one in-check simulation, wires its own)."""
    ledger, cache_dir = run

    def no_testbed(*_args, **_kwargs):
        raise AssertionError("the cached ledger simulated a testbed")

    monkeypatch.setattr("repro.core.runner.Testbed.__init__", no_testbed)
    status, out, err = run_verb("claims", "--cache", "--cache-dir",
                                str(cache_dir))
    assert (status, out) == (0, format_claims_report(ledger) + "\n")
    assert " 0 simulated, 311 cache hits" in err


def test_each_variant_is_a_unit_of_its_own():
    """A varied link or server is a registered name, so its cell keys
    the cache apart from the entry it varies."""
    for (environment, server), clean in (
            (("LAN", "NagleStall-nodelay"), ("LAN", "NagleStall")),
            (("WAN-LOSSY", "Apache"), ("WAN", "Apache")),
            (("WAN-DROPTAIL", "Apache"), ("WAN", "Apache")),
            (("WAN", "Apache-iw1"), ("WAN", "Apache")),
            (("WAN", "Apache-iw4"), ("WAN", "Apache"))):
        assert unit_key(ablation_cell(
            "pipelined", FIRST_TIME, environment, server), 0) != unit_key(
            ablation_cell("pipelined", FIRST_TIME, *clean), 0)


def test_render_timelines_ride_the_result_cache(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    spec = RenderSpec("pipelined + range prefixes")
    metrics = RenderMetrics(first_html_byte=0.1 + 0.2, html_complete=1.5,
                            layout_complete=None, full_render=61.25,
                            images_expected=42, verified=True)
    cache.put(spec, 0, metrics)
    assert cache.get(spec, 0) == metrics
    assert cache.get(RenderSpec("HTTP/1.1 pipelined"), 0) is None
    with pytest.raises(ValueError, match="unknown render strategy"):
        RenderSpec("HTTP/3")


# ----------------------------------------------------------------------
# Verdicts other than PASS
# ----------------------------------------------------------------------

def _false_claim(_cells):
    yield claims_module._check("water flows uphill", 1.0, ">", 2.0)


def test_fail_and_unmeasured_rows_print_and_exit_1(run, monkeypatch,
                                                   tmp_path, unit_faults):
    """A falsified bound and a quarantined cell each cost a row — and
    the exit status; a table that lost a unit gets no fidelity score,
    and neither does the whole."""
    within_2x = next(claim for claim in CLAIMS
                     if claim.id == "paper-cells-within-2x")
    monkeypatch.setattr(claims_module, "CLAIMS", [
        dataclasses.replace(within_2x, check=lambda cells: pytest.fail(
            "checked a quarantined cell")),
        Claim("false-claim", "test", "test", {}, _false_claim)])
    # Seed 0 of Table 4's first cell: missing from this copy of the
    # cache, it is dispatched — and poisoned.
    cache = ResultCache(shutil.copytree(run[1], tmp_path / "cache"))
    first = next(iter(within_2x.specs.values()))
    cache.path(unit_key(first, first.seeds[0])).unlink()
    unit_faults.poison(first, first.seeds[0])
    monkeypatch.setattr("repro.__main__.make_runner",
                        lambda args: MatrixRunner(cache=cache))
    status, out, err = run_verb("claims")
    assert status == 1 and " 1 failed" in err
    last_column = {line.split()[0]: line.split()[-1]
                   for line in out.splitlines() if line.split()}
    assert (last_column["paper-cells-within-2x"],
            last_column["false-claim"]) == (UNMEASURED, FAIL)
    assert "UnitFaultError" in out and "2 claims" in out
    fidelity_rows = {line.split()[1]: line.split()[-6:]
                     for line in out.splitlines()
                     if line.startswith("Table ")}
    assert fidelity_rows["4"] == [UNMEASURED, "-", "-", "-", "-", "-"]
    assert "x" in fidelity_rows["5"][-1]       # a worst cell: scored
    assert out.splitlines()[-1].split() == [
        "overall", UNMEASURED, "-", "-", "-", "-", "-"]


def test_only_an_all_pass_ledger_is_ok():
    claim = CLAIMS[0]
    passing = (claim, CheckRow("w", "1", "< 2", PASS))
    assert Ledger([passing], {}).ok
    for verdict in (FAIL, UNMEASURED):
        assert not Ledger(
            [passing, (claim, CheckRow("w", "-", "-", verdict))], {}).ok


# ----------------------------------------------------------------------
# fidelity()
# ----------------------------------------------------------------------

def _measured(packets, payload_bytes, elapsed):
    """The three means ``fidelity`` reads off an averaged result."""
    return types.SimpleNamespace(packets=packets, elapsed=elapsed,
                                 payload_bytes=payload_bytes)


def _rows(factor):
    paper = PaperCell(100.0, 2000.0, 3.0, 5.0)
    return [ComparisonRow("m", scenario, _measured(
        paper.packets * scale, paper.payload_bytes * scale,
        paper.seconds * scale), paper)
        for scenario, scale in (("first-time", factor),
                                ("revalidate", 1 / factor))]


def test_fidelity_of_a_perfect_match_is_zero():
    score = fidelity(_rows(1.0))
    assert (score.packets, score.payload_bytes, score.seconds) == (0, 0, 0)
    assert (score.cells, score.outside_2x) == (2, 0)


def test_fidelity_of_everything_2x_off_is_one():
    score = fidelity(_rows(2.0))
    assert score.packets == pytest.approx(1.0)
    assert score.payload_bytes == pytest.approx(1.0)
    assert score.seconds == pytest.approx(1.0)
    assert score.outside_2x == 0      # 2.0 and 0.5 are the band's edges
    assert fidelity(_rows(2.5)).outside_2x == 2
    assert "x2.50" in fidelity(_rows(2.5)).worst


def test_fidelity_skips_rows_the_paper_has_no_cell_for():
    rows = _rows(2.0) + [ComparisonRow("m", "extra",
                                       _measured(1.0, 1.0, 1.0), None)]
    assert fidelity(rows).cells == 2


def test_claims_state_no_calibrated_link_value():
    """A claim reads a calibrated line rate from its owner
    (``simnet/link.py``), never as a literal: a literal would keep the
    old value when the calibration moves."""
    calibrated = {WAN.bandwidth_bps, PPP.bandwidth_bps, PPP.bits_per_byte}
    tree = ast.parse(pathlib.Path(claims_module.__file__).read_text())
    stated = [(node.lineno, node.value) for node in ast.walk(tree)
              if isinstance(node, ast.Constant)
              and type(node.value) in (int, float)
              and node.value in calibrated]
    assert stated == []
