"""Unit tests for protocol modes and the initial-tuning configuration."""

import dataclasses

import pytest

from repro.client.robot import ClientConfig
from repro.core import (HTTP10_MODE, HTTP11_PERSISTENT,
                        HTTP11_PIPELINED, HTTP11_PIPELINED_COMPRESSED,
                        MODES, initial_tuning_client_config,
                        modes_for_environment)
from repro.core.transport import (MuxTransport, ShardedTransport,
                                  Transport)
from repro.http import HTTP10, HTTP11

#: What each registered mode *is*: its transport and the ClientConfig
#: fields that differ from the dataclass defaults.  Cache keys store
#: client_overrides relative to these, so a drift here silently
#: re-keys (or worse, re-means) every cached unit.
MODE_TABLE = {
    "HTTP/1.0": (Transport(), dict(
        http_version=HTTP10, max_connections=4,
        reval_strategy="get-plus-head", validator_preference="date",
        user_agent="W3CRobot/4.1D libwww/4.1D",
        extra_headers=(
            ("Accept", "image/gif"), ("Accept", "image/x-xbitmap"),
            ("Accept", "image/jpeg"), ("Accept", "image/pjpeg"),
            ("Accept", "text/html"), ("Accept", "text/plain"),
            ("Accept-Language", "en"),
            ("Accept-Charset", "iso-8859-1,*,utf-8")))),
    "HTTP/1.1": (Transport(), {}),
    "HTTP/1.1 Pipelined": (Transport(), dict(pipeline=True)),
    "HTTP/1.1 Pipelined w. compression": (
        Transport(), dict(pipeline=True, accept_deflate=True)),
    "HTTP/MUX": (MuxTransport(), {}),
    "HTTP/MUX Push": (MuxTransport(server_push=True), {}),
    "HTTP/1.1 Sharded x4": (
        ShardedTransport(), dict(max_connections=8, shards=4)),
}


def test_mode_table_covers_the_registry():
    assert set(MODE_TABLE) == set(MODES)


@pytest.mark.parametrize("name", sorted(MODE_TABLE))
def test_mode_is_its_transport_plus_non_default_client_fields(name):
    transport, fields = MODE_TABLE[name]
    mode = MODES[name]
    assert mode.transport == transport
    assert type(mode.transport) is type(transport)
    config = mode.client_config()
    defaults = dataclasses.asdict(ClientConfig())
    assert {key: value
            for key, value in dataclasses.asdict(config).items()
            if value != defaults[key]} == fields
    # Fresh object each call: callers mutate their copy.
    assert mode.client_config() is not config


def test_four_canonical_modes():
    names = [m.name for m in modes_for_environment("LAN",
                                                   paper_only=True)]
    assert names == ["HTTP/1.0", "HTTP/1.1", "HTTP/1.1 Pipelined",
                     "HTTP/1.1 Pipelined w. compression"]


def test_http10_mode_config():
    config = HTTP10_MODE.client_config()
    assert config.http_version == HTTP10
    assert config.max_connections == 4
    assert not config.pipeline
    assert config.reval_strategy == "get-plus-head"
    # The old libwww 4.1D requests are fatter than the 5.1 robot's.
    assert len(config.extra_headers) >= 4


def test_persistent_mode_config():
    config = HTTP11_PERSISTENT.client_config()
    assert config.http_version == HTTP11
    assert config.max_connections == 1
    assert not config.pipeline
    assert config.validator_preference == "etag"


def test_pipelined_mode_config():
    config = HTTP11_PIPELINED.client_config()
    assert config.pipeline
    assert config.output_buffer_size == 1024
    assert config.flush_timeout == 0.05
    assert config.explicit_flush


def test_compressed_mode_config():
    config = HTTP11_PIPELINED_COMPRESSED.client_config()
    assert config.accept_deflate
    assert config.pipeline


def test_ppp_table_omits_http10():
    assert HTTP10_MODE not in modes_for_environment("PPP",
                                                    paper_only=True)
    assert HTTP10_MODE in modes_for_environment("LAN", paper_only=True)


def test_initial_tuning_config():
    config = initial_tuning_client_config(HTTP11_PIPELINED)
    assert isinstance(config, ClientConfig)
    assert config.flush_timeout == 1.0          # pre-tuning 1 s timer
    assert not config.explicit_flush            # not invented yet
    assert config.reval_strategy == "get-plus-head"
    assert config.per_response_cpu > 0.02       # disk-cache bottleneck


def test_initial_tuning_http10_unchanged():
    config = initial_tuning_client_config(HTTP10_MODE)
    assert config.http_version == HTTP10
    assert config.per_response_cpu < 0.02       # no persistent cache
