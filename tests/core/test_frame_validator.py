"""Frame-stream legality and the per-mode trace rules.

The :class:`FrameStreamValidator` sees the MUX frame taps; the
:class:`ModeTraceRules` ride the packet-level :func:`validate_rows`
replay.  Both accept the captured golden behaviour and reject mutations.
"""

import pathlib

from repro.http.framing import (F_CANCEL, F_DATA, F_END_STREAM, F_HEADERS,
                                F_PUSH_PROMISE, F_WINDOW_UPDATE,
                                INITIAL_STREAM_WINDOW, encode_window_update,
                                FRAME_HEADER_SIZE)
from repro.core.transport import FrameStreamValidator, ModeTraceRules
from repro.simnet.checks import validate_rows

from ..simnet.trace_rows import parse_trace_text, wan_config

FIXTURES = pathlib.Path(__file__).resolve().parents[1] \
    / "simnet" / "fixtures"


def rules_of(violations):
    return [violation.rule for violation in violations]


# ----------------------------------------------------------------------
# FrameStreamValidator: legal exchanges pass
# ----------------------------------------------------------------------
def test_plain_request_response_exchange_is_clean():
    v = FrameStreamValidator()
    v.observe(0.0, "c>s", F_HEADERS, 1, b"GET / HTTP/1.1\r\n\r\n")
    v.observe(0.1, "s>c", F_HEADERS, 1, b"HTTP/1.1 200 OK\r\n\r\n")
    v.observe(0.2, "s>c", F_DATA, 1, b"x" * 4096)
    v.observe(0.3, "s>c", F_END_STREAM, 1)
    assert v.finish(0.4) == []
    assert v.violations == []


def test_window_update_extends_the_credit():
    v = FrameStreamValidator()
    v.observe(0.0, "c>s", F_HEADERS, 1, b"head")
    v.observe(0.1, "s>c", F_DATA, 1, b"x" * INITIAL_STREAM_WINDOW)
    grant = encode_window_update(1, 4096)[FRAME_HEADER_SIZE:]
    v.observe(0.2, "c>s", F_WINDOW_UPDATE, 1, grant)
    v.observe(0.3, "s>c", F_DATA, 1, b"x" * 4096)
    v.observe(0.4, "s>c", F_END_STREAM, 1)
    assert v.finish(0.5) == []


def test_push_after_request_is_legal_when_allowed():
    v = FrameStreamValidator(push_allowed=True)
    v.observe(0.0, "c>s", F_HEADERS, 1, b"GET /")
    v.observe(0.1, "s>c", F_PUSH_PROMISE, 2, b"/gif/i0")
    v.observe(0.2, "s>c", F_HEADERS, 2, b"HTTP/1.1 200 OK\r\n\r\n")
    v.observe(0.3, "s>c", F_END_STREAM, 2)
    v.observe(0.4, "s>c", F_HEADERS, 1, b"HTTP/1.1 200 OK\r\n\r\n")
    v.observe(0.5, "s>c", F_END_STREAM, 1)
    assert v.finish(0.6) == []


def test_cancelled_stream_tolerates_crossing_frames():
    v = FrameStreamValidator(push_allowed=True)
    v.observe(0.0, "c>s", F_HEADERS, 1, b"GET /")
    v.observe(0.1, "s>c", F_PUSH_PROMISE, 2, b"/gif/i0")
    v.observe(0.2, "c>s", F_CANCEL, 2)
    # DATA already in flight when the CANCEL crossed it: not a fault.
    v.observe(0.3, "s>c", F_DATA, 2, b"x" * 100)
    v.observe(0.4, "s>c", F_HEADERS, 1, b"HTTP/1.1 200 OK\r\n\r\n")
    v.observe(0.5, "s>c", F_END_STREAM, 1)
    assert v.finish(0.6) == []


# ----------------------------------------------------------------------
# FrameStreamValidator: mutations are rejected
# ----------------------------------------------------------------------
def test_push_before_any_request_is_rejected():
    v = FrameStreamValidator(push_allowed=True)
    new = v.observe(0.0, "s>c", F_PUSH_PROMISE, 2, b"/gif/i0")
    assert "push-before-request" in rules_of(new)


def test_push_in_a_pushless_mode_is_rejected():
    v = FrameStreamValidator(push_allowed=False)
    v.observe(0.0, "c>s", F_HEADERS, 1, b"GET /")
    new = v.observe(0.1, "s>c", F_PUSH_PROMISE, 2, b"/gif/i0")
    assert "push-not-allowed" in rules_of(new)


def test_even_or_stale_client_stream_ids_are_rejected():
    v = FrameStreamValidator()
    assert "stream-id" in rules_of(
        v.observe(0.0, "c>s", F_HEADERS, 2, b"GET /"))
    v2 = FrameStreamValidator()
    v2.observe(0.0, "c>s", F_HEADERS, 3, b"GET /a")
    assert "stream-id" in rules_of(
        v2.observe(0.1, "c>s", F_HEADERS, 1, b"GET /b"))


def test_data_overrunning_the_window_is_rejected():
    v = FrameStreamValidator()
    v.observe(0.0, "c>s", F_HEADERS, 1, b"GET /")
    new = v.observe(0.1, "s>c", F_DATA, 1,
                    b"x" * (INITIAL_STREAM_WINDOW + 1))
    assert "flow-window" in rules_of(new)


def test_frames_on_unopened_or_ended_streams_are_rejected():
    v = FrameStreamValidator()
    assert "frame-unopened" in rules_of(
        v.observe(0.0, "s>c", F_DATA, 5, b"x"))
    v.observe(0.1, "c>s", F_HEADERS, 1, b"GET /")
    v.observe(0.2, "s>c", F_END_STREAM, 1)
    assert "frame-after-end" in rules_of(
        v.observe(0.3, "s>c", F_DATA, 1, b"x"))


def test_dangling_stream_is_reported_at_finish():
    v = FrameStreamValidator()
    v.observe(0.0, "c>s", F_HEADERS, 1, b"GET /")
    assert "stream-unfinished" in rules_of(v.finish(1.0))


# ----------------------------------------------------------------------
# ModeTraceRules over the captured golden traces
# ----------------------------------------------------------------------
def _golden(name):
    return parse_trace_text((FIXTURES / name).read_text(encoding="utf-8"))


def test_mux_trace_satisfies_the_single_connection_rule():
    config = wan_config(mode_rules=ModeTraceRules(connections=1))
    assert validate_rows(_golden("golden_mux_wan.trace"), config) == []


def test_sharded_trace_satisfies_its_port_contract():
    config = wan_config(8, mode_rules=ModeTraceRules(
        required_ports=(80, 81, 82, 83), max_handshakes_per_port=2))
    assert validate_rows(_golden("golden_sharded-x4_wan.trace"),
                         config) == []


def test_mode_rules_reject_too_few_connections():
    config = wan_config(mode_rules=ModeTraceRules(connections=2))
    violations = validate_rows(_golden("golden_mux_wan.trace"), config)
    assert "mode-rules" in rules_of(violations)


def test_mode_rules_reject_too_many_connections():
    config = wan_config(mode_rules=ModeTraceRules(connections=4))
    violations = validate_rows(
        _golden("golden_sharded-x4_wan.trace"), config)
    assert "mode-rules" in rules_of(violations)


def test_mode_rules_reject_a_missing_origin_port():
    config = wan_config(
        mode_rules=ModeTraceRules(required_ports=(8080,)))
    violations = validate_rows(_golden("golden_mux_wan.trace"), config)
    assert "mode-rules" in rules_of(violations)


def test_mode_rules_reject_a_busted_handshake_budget():
    config = wan_config(
        mode_rules=ModeTraceRules(max_handshakes_per_port=1))
    violations = validate_rows(
        _golden("golden_sharded-x4_wan.trace"), config)
    assert "mode-rules" in rules_of(violations)


def test_faulty_run_config_drops_the_mode_rules():
    rows = _golden("golden_sharded-x4_wan.trace")
    rules = ModeTraceRules(connections=1)
    assert "mode-rules" in rules_of(
        validate_rows(rows, wan_config(mode_rules=rules)))
    assert "mode-rules" not in rules_of(
        validate_rows(rows, wan_config(faulty=True, mode_rules=rules)))
