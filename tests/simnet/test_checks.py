"""The unit-end TCP protocol check: golden traces, mutations, live units.

Each committed trace is checked here as frozen bytes, under the config
its cell derives; ``test_golden_traces.py`` re-runs the cells checked."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.core import resolve_mode, run_experiment
from repro.matrix import ExperimentSpec
from repro.simnet.checks import InvariantViolationError, validate_rows

from .trace_rows import parse_trace_text, wan_config

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "fixtures"
GOLDEN_TRACES = sorted(GOLDEN_DIR.glob("golden_*.trace"))
LOSSY_TRACES = sorted(GOLDEN_DIR.glob("lossy_*.trace"))

#: The mode of the cell (WAN, Apache, seed 0, first-time) each fixture
#: was captured from.
FIXTURE_MODES = {
    "golden_http10-4conn_wan": "HTTP/1.0",
    "golden_persistent_wan": "HTTP/1.1",
    "golden_pipelined_wan": "HTTP/1.1 Pipelined",
    "golden_pipelined-deflate_wan": "HTTP/1.1 Pipelined w. compression",
    "golden_mux_wan": "HTTP/MUX",
    "golden_mux-push_wan": "HTTP/MUX Push",
    "golden_sharded-x4_wan": "HTTP/1.1 Sharded x4",
    "lossy_flaky-server_wan": "HTTP/1.1 Pipelined",
}


def _cell_config(trace, faulty=False):
    """The config the runner derives for the cell ``trace`` came from."""
    mode = resolve_mode(FIXTURE_MODES[trace.stem])
    config = mode.client_config()
    return wan_config(config.max_connections, faulty=faulty,
                      mode_rules=mode.transport.trace_rules(config))


# ----------------------------------------------------------------------
# Golden traces replay clean
# ----------------------------------------------------------------------
def test_golden_fixtures_exist():
    # Four legacy modes plus the three post-paper modes.
    assert len(GOLDEN_TRACES) == 7


@pytest.mark.parametrize("trace", GOLDEN_TRACES,
                         ids=lambda p: p.stem)
def test_golden_trace_validates_clean(trace):
    text = trace.read_text(encoding="utf-8")
    violations = validate_rows(parse_trace_text(text), _cell_config(trace))
    assert violations == []


def test_parse_trace_round_trip():
    text = GOLDEN_TRACES[0].read_text(encoding="utf-8")
    records = parse_trace_text(text)
    assert len(records) == len(text.strip().splitlines())
    assert validate_rows(records, _cell_config(GOLDEN_TRACES[0])) == []


# ----------------------------------------------------------------------
# Mutated traces are rejected
# ----------------------------------------------------------------------
def _golden_lines():
    return GOLDEN_TRACES[0].read_text(encoding="utf-8") \
        .strip().splitlines()


def _rules_for(lines, config=wan_config()):
    violations = validate_rows(parse_trace_text("\n".join(lines) + "\n"),
                               config)
    return {v.rule for v in violations}


def test_reordered_handshake_rejected():
    lines = _golden_lines()
    lines[0], lines[1] = lines[1], lines[0]
    assert "handshake-order" in _rules_for(lines)


def test_payload_after_fin_rejected():
    lines = _golden_lines()
    # Fabricate a server data segment beyond its FIN.
    lines.append("  5.000000 www26.w3.org:80 > zorch.w3.org:32768 "
                 "[PA] seq=999999 ack=1 len=512")
    assert "payload-after-fin" in _rules_for(lines)


def test_ack_of_unsent_data_rejected():
    lines = _golden_lines()
    parts = lines[2]
    assert "ack=" in parts
    import re
    lines[2] = re.sub(r"ack=\d+", "ack=99999999", parts)
    assert "ack-unsent" in _rules_for(lines)


def test_sequence_gap_rejected():
    lines = _golden_lines()
    import re
    # Jump a data segment's sequence far beyond anything transmitted.
    for index, line in enumerate(lines):
        if "len=0" not in line and "[P" in line:
            lines[index] = re.sub(r"seq=\d+", "seq=77777777", line)
            break
    assert "seq-monotonic" in _rules_for(lines)


def test_truncated_teardown_rejected():
    lines = _golden_lines()
    # Drop the final exchange: FINs go unacknowledged / unsent.
    assert "half-close" in _rules_for(lines[:-6])


_CLIENT_FIN = ("  0.849488 zorch.w3.org:32768 > www26.w3.org:80 [FA] "
               "seq=281 ack=43528 len=0")


def test_rst_rejected_in_clean_mode():
    # The client resets instead of sending its FIN: the naive close.
    lines = _golden_lines()
    lines.insert(lines.index(_CLIENT_FIN),
                 "  0.849488 zorch.w3.org:32768 > www26.w3.org:80 "
                 "[R] seq=281 ack=43528 len=0")
    assert "rst" in _rules_for(lines)


def test_rst_after_both_fins_acked_is_accepted():
    """A stack that forgot a fully closed connection answers a
    retransmitted FIN with a RST: no data is lost, so no violation."""
    lines = _golden_lines()
    lines += ["  5.000000 zorch.w3.org:32768 > www26.w3.org:80 "
              "[FA] seq=281 ack=43528 len=0",
              "  5.045000 www26.w3.org:80 > zorch.w3.org:32768 "
              "[R] seq=43528 ack=0 len=0"]
    assert _rules_for(lines) == set()


def test_malformed_trace_line_raises():
    with pytest.raises(ValueError):
        parse_trace_text("not a trace line at all\n")


# ----------------------------------------------------------------------
# Lossy fixtures: captured under fault injection
# ----------------------------------------------------------------------
def test_lossy_fixture_exists():
    assert len(LOSSY_TRACES) == 1


@pytest.mark.parametrize("trace", LOSSY_TRACES, ids=lambda p: p.stem)
def test_lossy_trace_validates_under_relaxed_config(trace):
    text = trace.read_text(encoding="utf-8")
    violations = validate_rows(parse_trace_text(text),
                               _cell_config(trace, faulty=True))
    assert violations == []


@pytest.mark.parametrize("trace", LOSSY_TRACES, ids=lambda p: p.stem)
def test_lossy_trace_rejected_under_strict_config(trace):
    """The relaxed config is load-bearing: the capture its live cell
    checks clean as a faulty run trips the clean-run invariants (server
    aborts show up as RSTs)."""
    text = trace.read_text(encoding="utf-8")
    violations = validate_rows(parse_trace_text(text), wan_config())
    assert any(v.rule == "rst" for v in violations)


def test_for_faulty_run_relaxes_only_fault_rules():
    strict = wan_config()
    relaxed = wan_config(faulty=True)
    # An RST is accepted.
    reset = _golden_lines()
    reset.insert(reset.index(_CLIENT_FIN),
                 "  0.849488 zorch.w3.org:32768 > www26.w3.org:80 "
                 "[R] seq=281 ack=43528 len=0")
    assert "rst" in _rules_for(reset, strict)
    assert "rst" not in _rules_for(reset, relaxed)
    # Teardown is not required.
    truncated = _golden_lines()[:-6]
    assert "half-close" in _rules_for(truncated, strict)
    assert "half-close" not in _rules_for(truncated, relaxed)
    # The delayed-ACK budget grows by 1.0 s, and no more: the server
    # acks 1.3 s after the data (budget 0.73 s strict, 1.73 s relaxed),
    # then 2.0 s after it.
    data = (0.3, "a", 1, "b", 2, "PA", 1, 1, 100)

    def acked_after(wait, config):
        ack = (0.3 + wait, "b", 2, "a", 1, "A", 1, 101, 0)
        return {v.rule for v in validate_rows(_HANDSHAKE + [data, ack],
                                              config)}
    assert "delayed-ack" in acked_after(1.3, strict)
    assert "delayed-ack" not in acked_after(1.3, relaxed)
    assert "delayed-ack" in acked_after(2.0, relaxed)
    # Structural invariants stay armed: Nagle at the same MSS.
    mss = strict.mss
    assert "nagle" in _nagle_rules([(0.3, "b", 2, "a", 1, "PA", 1, 1, 100),
                                    (0.31, "b", 2, "a", 1, "PA", 101, 1,
                                     100)], faulty=True)
    assert "nagle" not in _nagle_rules([
        (0.2 + step / 100.0, "b", 2, "a", 1, "A", 1 + step * mss, 1, mss)
        for step in range(3)], faulty=True)


# ----------------------------------------------------------------------
# Nagle invariant: checked on the responder's (server's) segments, the
# one direction a run can leave Nagle on
# ----------------------------------------------------------------------
_HANDSHAKE = [(0.0, "a", 1, "b", 2, "S", 0, 0, 0),
              (0.1, "b", 2, "a", 1, "SA", 0, 1, 0),
              (0.2, "a", 1, "b", 2, "A", 1, 1, 0)]


def _nagle_rules(segments, faulty=False):
    config = wan_config(nagle_server=True, faulty=faulty)
    return {v.rule for v in validate_rows(_HANDSHAKE + segments, config)}


def test_two_outstanding_smalls_flagged_when_nagle_enabled():
    # Two back-to-back sub-MSS segments with nothing acked between.
    assert "nagle" in _nagle_rules([(0.3, "b", 2, "a", 1, "PA", 1, 1, 100),
                                    (0.31, "b", 2, "a", 1, "PA", 101, 1,
                                     100)])


def test_full_sized_segments_never_trip_nagle():
    mss = wan_config().mss
    assert "nagle" not in _nagle_rules([
        (0.2 + step / 100.0, "b", 2, "a", 1, "A", 1 + step * mss, 1, mss)
        for step in range(3)])


# ----------------------------------------------------------------------
# The unit-end check
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["http/1.0", "http/1.1", "pipelined",
                                  "compressed"])
def test_live_sanitizer_passes_golden_cells(mode):
    """Every unit replays its own trace at unit end; the golden cells
    pass."""
    result = ExperimentSpec(mode=mode, environment="WAN",
                            server="Apache").execute_unit(0)
    assert result.packets > 0


def test_http10_ppp_first_time_cell_runs_checked_and_clean():
    """The seven-mode table's HTTP/1.0 | first-time | PPP cell: the
    server stack answers late client segments (a retransmitted FIN, a
    pure ACK) on connections whose FINs were both acknowledged with
    RSTs, which destroy no data."""
    result = run_experiment("http/1.0", "first-time", environment="PPP",
                            profile="Apache", seed=0, sanitize=True,
                            keep_trace=True)
    assert "[RA]" in result.trace_lines


def test_live_sanitizer_passes_nagle_enabled_server():
    """With Nagle on (server side), the unit-end Nagle check is active
    and the simulator's implementation satisfies it."""
    result = ExperimentSpec(mode="http/1.1", environment="WAN",
                            server="NagleStall").execute_unit(0)
    assert result.packets > 0


def test_checked_unit_loads_no_lint():
    """The unit-end check is simulator code: a fresh process that runs
    one checked MUX unit (trace and frame checks) imports no module of
    the static lint."""
    script = ("import sys\n"
              "from repro.matrix import ExperimentSpec\n"
              "ExperimentSpec('mux', environment='WAN').execute_unit(0)\n"
              "print(sorted(m for m in sys.modules\n"
              "             if m.split('.')[:2] == ['repro', 'lint']))\n")
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    done = subprocess.run([sys.executable, "-c", script], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "[]"


def test_live_sanitizer_raises_on_bad_segment():
    """A forged segment in a unit's capture fails its unit-end check."""
    from repro.client.robot import ClientConfig
    from repro.core.runner import Testbed
    from repro.core.transport import Transport
    from repro.server.profiles import APACHE
    from repro.simnet.link import WAN
    from repro.simnet.packet import Segment

    testbed = Testbed(WAN, APACHE, Transport())
    try:
        # A payload segment on a flow that never shook hands.
        testbed.net.trace.capture(
            Segment(src="zorch.w3.org", sport=40000, dst="www26.w3.org",
                    dport=80, seq=1, ack=0, payload=b"x" * 100,
                    flag_ack=True), 0.5)
        with pytest.raises(InvariantViolationError,
                           match=r"\[handshake-order\]"):
            testbed.check_trace(Transport(), ClientConfig(), faulty=False)
    finally:
        testbed.close()


def test_validator_reports_structured_violations():
    text = GOLDEN_TRACES[0].read_text(encoding="utf-8")
    lines = text.strip().splitlines()
    lines[0], lines[1] = lines[1], lines[0]
    violations = validate_rows(parse_trace_text("\n".join(lines) + "\n"),
                               wan_config())
    assert violations
    first = violations[0]
    assert first.rule == "handshake-order" and first.flow and first.message
    assert f"[{first.rule}]" in first.format()
