"""Unit tests for protocol modes and the initial-tuning configuration."""

from repro.client.robot import ClientConfig
from repro.core import (HTTP10_MODE, HTTP11_PERSISTENT,
                        HTTP11_PIPELINED, HTTP11_PIPELINED_COMPRESSED,
                        initial_tuning_client_config,
                        modes_for_environment)
from repro.core.transport import ModeTuning
from repro.http import HTTP10, HTTP11


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


def test_flush_parameters_forwarded():
    config = HTTP11_PIPELINED.client_config(
        tuning=ModeTuning(flush_timeout=1.0, explicit_flush=False,
                          output_buffer_size=512))
    assert config.flush_timeout == 1.0
    assert not config.explicit_flush
    assert config.output_buffer_size == 512


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
