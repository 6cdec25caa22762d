"""Transport strategies: how a protocol mode reaches the wire.

The original mode API hard-coded its two behaviours (``if version ==
HTTP10`` inside ``client_config()``); every grid that consumed modes —
the matrix engine, the chaos planner, the report tables — enumerated a
literal four-tuple.  This module is the redesign's core: a
:class:`ProtocolMode <repro.core.modes.ProtocolMode>` now carries a
:class:`Transport` strategy object that owns

* **client construction** — which client class speaks the mode and the
  :class:`~repro.client.robot.ClientConfig` it runs with,
* **server wiring** — how many listeners to start and in which framing
  mode (plain HTTP, MUX, MUX + push),
* **sanitizer rules** — per-mode packet-level invariants for the
  :class:`~repro.lint.sanitizer.TraceValidator`.

Transports are frozen dataclasses so modes stay hashable and
value-comparable; two ``ShardedTransport(shards=4)`` instances are the
same transport.

Tuning knobs travel as one keyword-only :class:`ModeTuning` value.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple, TYPE_CHECKING

from ..client.robot import ClientConfig, Robot
from ..http import HTTP10, HTTP11
from ..server.base import SimHttpServer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .modes import ProtocolMode

__all__ = ["ModeTuning", "Transport", "Http10Transport", "Http11Transport",
           "MuxTransport", "ShardedTransport", "DEFAULT_PORT"]

#: Base listening port; sharded transports fan out to consecutive ports.
DEFAULT_PORT = 80


@dataclasses.dataclass(frozen=True)
class ModeTuning:
    """The paper's buffer-tuning knobs, as one value.

    Defaults are the *final* (tuned) settings: 1024-byte output buffer,
    50 ms flush timer, application-level explicit flush.
    """

    flush_timeout: Optional[float] = 0.05
    explicit_flush: bool = True
    output_buffer_size: int = 1024


@dataclasses.dataclass(frozen=True)
class Transport:
    """Base strategy: one plain-HTTP listener, the libwww-style robot.

    Subclasses override the pieces that differ; the defaults reproduce
    the paper's wiring exactly so the four legacy modes stay
    byte-identical at the packet level.
    """

    #: Whether the connection carries MUX frames (consulted by the
    #: runner to attach the frame-level validator).  Class attribute,
    #: not a field: transports compare by type + their own knobs.
    mux = False
    #: Whether the server speculatively pushes inline objects.
    push = False

    def client_config(self, mode: "ProtocolMode",
                      tuning: ModeTuning) -> ClientConfig:
        raise NotImplementedError

    def ports(self) -> Tuple[int, ...]:
        """Listening ports of the mode's origin(s); first is primary."""
        return (DEFAULT_PORT,)

    def start_servers(self, sim, stack, store, profile,
                      max_concurrent: Optional[int] = None
                      ) -> List[SimHttpServer]:
        """Start one listener per origin port on ``stack``.

        ``max_concurrent`` is each listener's accept-gate capacity
        (``None``: the paper's unbounded single-robot regime).
        """
        return [SimHttpServer(sim, stack, store, profile, port=port,
                              mux=self.mux, push=self.push,
                              max_concurrent=max_concurrent)
                for port in self.ports()]

    def create_client(self, sim, stack, server_host: str, server_port: int,
                      config: ClientConfig, cache) -> Robot:
        """Build the client that speaks this transport."""
        return Robot(sim, stack, server_host, server_port, config, cache)

    def trace_rules(self, config: ClientConfig):
        """Packet-level invariants for clean runs (None = generic only)."""
        return None


@dataclasses.dataclass(frozen=True)
class Http10Transport(Transport):
    """HTTP/1.0: the *old* libwww (4.1D) client, one request per
    connection.

    The fat request profile lives here now (it used to be the
    ``if self.version == HTTP10`` branch of ``client_config()``): the
    4.1D robot's requests were noticeably larger than the tuned 5.1
    robot's ~190 bytes, and the paper's byte counts reflect it.
    Tuning is ignored — the 4.1D robot had no output buffering.
    """

    def client_config(self, mode: "ProtocolMode",
                      tuning: ModeTuning) -> ClientConfig:
        return ClientConfig(
            http_version=HTTP10,
            max_connections=mode.parallel_connections,
            pipeline=False,
            reval_strategy="get-plus-head",
            validator_preference="date",
            user_agent="W3CRobot/4.1D libwww/4.1D",
            extra_headers=(
                ("Accept", "image/gif"),
                ("Accept", "image/x-xbitmap"),
                ("Accept", "image/jpeg"),
                ("Accept", "image/pjpeg"),
                ("Accept", "text/html"),
                ("Accept", "text/plain"),
                ("Accept-Language", "en"),
                ("Accept-Charset", "iso-8859-1,*,utf-8"),
            ))


@dataclasses.dataclass(frozen=True)
class Http11Transport(Transport):
    """HTTP/1.1: persistent connections, optionally pipelined."""

    def client_config(self, mode: "ProtocolMode",
                      tuning: ModeTuning) -> ClientConfig:
        return ClientConfig(
            http_version=HTTP11,
            max_connections=mode.parallel_connections,
            pipeline=mode.pipeline,
            accept_deflate=mode.compression,
            output_buffer_size=tuning.output_buffer_size,
            flush_timeout=tuning.flush_timeout,
            explicit_flush=tuning.explicit_flush,
            reval_strategy="conditional",
            validator_preference="etag")


@dataclasses.dataclass(frozen=True)
class MuxTransport(Transport):
    """Multiplexed streams over one TCP connection (HTTP/2-shaped).

    With ``server_push`` the server speculatively frames every inline
    image after an HTML request; the client cancels duplicates.
    """

    server_push: bool = False

    mux = True

    @property
    def push(self) -> bool:
        return self.server_push

    def client_config(self, mode: "ProtocolMode",
                      tuning: ModeTuning) -> ClientConfig:
        return ClientConfig(
            http_version=HTTP11,
            max_connections=1,
            pipeline=False,
            output_buffer_size=tuning.output_buffer_size,
            flush_timeout=tuning.flush_timeout,
            explicit_flush=tuning.explicit_flush,
            reval_strategy="conditional",
            validator_preference="etag")

    def create_client(self, sim, stack, server_host: str, server_port: int,
                      config: ClientConfig, cache):
        from ..client.mux import MuxClient
        return MuxClient(sim, stack, server_host, server_port, config,
                         cache)

    def trace_rules(self, config: ClientConfig):
        from ..lint.sanitizer import ModeTraceRules
        # Everything multiplexes over exactly one TCP connection.
        return ModeTraceRules(min_connections=1, max_connections=1)


@dataclasses.dataclass(frozen=True)
class ShardedTransport(Transport):
    """Content split across N simulated origins (ports 80..80+N-1).

    Each shard is an independent :class:`SimHttpServer` with its own
    serial CPU; the client hashes each URL to a shard and keeps up to
    ``connections_per_shard`` redundant persistent connections there.
    """

    shards: int = 4
    connections_per_shard: int = 2

    def client_config(self, mode: "ProtocolMode",
                      tuning: ModeTuning) -> ClientConfig:
        return ClientConfig(
            http_version=HTTP11,
            max_connections=self.shards * self.connections_per_shard,
            pipeline=False,
            output_buffer_size=tuning.output_buffer_size,
            flush_timeout=tuning.flush_timeout,
            explicit_flush=tuning.explicit_flush,
            reval_strategy="conditional",
            validator_preference="etag",
            shards=self.shards,
            connections_per_shard=self.connections_per_shard)

    def ports(self) -> Tuple[int, ...]:
        return tuple(DEFAULT_PORT + shard for shard in range(self.shards))

    def trace_rules(self, config: ClientConfig):
        from ..lint.sanitizer import ModeTraceRules
        return ModeTraceRules(
            required_ports=self.ports(),
            max_handshakes_per_port=self.connections_per_shard)
