"""The Transport strategy surface behind every protocol mode."""

from repro.client.robot import CONNECTIONS_PER_SHARD, SHARDS
from repro.core.modes import (HTTP10_MODE, HTTP11_PERSISTENT,
                              HTTP11_PIPELINED, HTTP11_SHARDED, HTTP_MUX,
                              HTTP_MUX_PUSH, MODE_TABLE)
from repro.core.transport import (DEFAULT_PORT, ModeTraceRules,
                                  MuxTransport, ShardedTransport, Transport)
from repro.http import HTTP10


# ----------------------------------------------------------------------
# Strategy dispatch
# ----------------------------------------------------------------------
def test_every_mode_carries_a_transport():
    # Plain HTTP/1.0 and HTTP/1.1 share one wire format.
    assert type(HTTP10_MODE.transport) is Transport
    assert type(HTTP11_PERSISTENT.transport) is Transport
    assert isinstance(HTTP_MUX.transport, MuxTransport)
    assert isinstance(HTTP11_SHARDED.transport, ShardedTransport)


def test_transports_compare_by_value():
    assert MuxTransport() == MuxTransport()
    assert MuxTransport() != MuxTransport(server_push=True)
    assert ShardedTransport() == ShardedTransport()
    assert ShardedTransport() != Transport()


def test_mux_and_push_flags():
    assert not HTTP11_PIPELINED.transport.mux
    assert HTTP_MUX.transport.mux and not HTTP_MUX.transport.push
    assert HTTP_MUX_PUSH.transport.mux and HTTP_MUX_PUSH.transport.push
    assert not HTTP11_SHARDED.transport.mux


def test_http10_branch_lives_in_its_transport():
    # HTTP/1.0 is plain HTTP plus client fields stated on the mode:
    # fat 4.1D requests, no pipelining.
    config = HTTP10_MODE.client_config()
    assert config.http_version == HTTP10
    assert config.user_agent.startswith("W3CRobot/4.1D")
    assert len(config.extra_headers) >= 4


# ----------------------------------------------------------------------
# Per-mode trace rules
# ----------------------------------------------------------------------
def test_legacy_modes_have_no_extra_trace_rules():
    for mode in (HTTP10_MODE, HTTP11_PERSISTENT, HTTP11_PIPELINED):
        assert mode.transport.trace_rules(mode.client_config()) is None


def test_mux_trace_rules_pin_one_connection():
    rules = HTTP_MUX.transport.trace_rules(HTTP_MUX.client_config())
    assert rules == ModeTraceRules(connections=1)


def test_sharded_trace_rules_name_every_origin_port():
    transport = HTTP11_SHARDED.transport
    rules = transport.trace_rules(HTTP11_SHARDED.client_config())
    assert rules.required_ports == tuple(
        DEFAULT_PORT + shard for shard in range(SHARDS))
    assert rules.required_ports == transport.ports() == (80, 81, 82, 83)
    assert rules.max_handshakes_per_port == CONNECTIONS_PER_SHARD == 2


# ----------------------------------------------------------------------
# Mode-level wiring
# ----------------------------------------------------------------------
def test_sharded_client_config_spreads_connections():
    config = HTTP11_SHARDED.client_config()
    assert config.shards == SHARDS == 4
    assert config.max_connections == SHARDS * CONNECTIONS_PER_SHARD == 8


def test_modern_modes_roster():
    # The post-paper modes are the ones that are no paper table row.
    assert [mode.name for mode, _, paper in MODE_TABLE if not paper] == [
        "HTTP/MUX", "HTTP/MUX Push", "HTTP/1.1 Sharded x4"]
