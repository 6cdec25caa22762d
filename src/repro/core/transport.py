"""Transport strategies: how a protocol mode reaches the wire.

A :class:`ProtocolMode <repro.core.modes.ProtocolMode>` is a table
label, a :class:`Transport`, and the
:class:`~repro.client.robot.ClientConfig` fields that differ from that
dataclass's defaults.  The transport owns what differs per *wire
format*:

* **server wiring** — how many listeners to start and in which framing
  mode (plain HTTP, MUX, MUX + push),
* **client construction** — which client class speaks the format,
* **sanitizer rules** — per-mode packet-level invariants for the
  :class:`~repro.lint.sanitizer.TraceValidator`,
* **client fields its geometry implies** — a sharded transport's
  shard and connection counts are stated on the transport and reach
  the client configuration from there, so each number appears once.

Plain HTTP/1.0 and HTTP/1.1 differ only in client fields, so they share
the base :class:`Transport`.  Transports are frozen dataclasses so
modes stay value-comparable; two ``ShardedTransport(shards=4)``
instances are the same transport.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from ..client.robot import ClientConfig, Robot
from ..server.base import SimHttpServer

__all__ = ["Transport", "MuxTransport", "ShardedTransport", "DEFAULT_PORT"]

#: Base listening port; sharded transports fan out to consecutive ports.
DEFAULT_PORT = 80


@dataclasses.dataclass(frozen=True)
class Transport:
    """Plain HTTP: one listener on port 80, the libwww-style robot.

    This is the paper's wiring, used as is by its four modes;
    subclasses override the pieces a different wire format changes.
    """

    #: Whether the connection carries MUX frames (consulted by the
    #: runner to attach the frame-level validator).  Class attribute,
    #: not a field: transports compare by type + their own knobs.
    mux = False
    #: Whether the server speculatively pushes inline objects.
    push = False

    def client_fields(self) -> Dict[str, Any]:
        """:class:`ClientConfig` fields this transport's geometry fixes."""
        return {}

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

    def client_fields(self) -> Dict[str, Any]:
        return {
            "shards": self.shards,
            "connections_per_shard": self.connections_per_shard,
            "max_connections": self.shards * self.connections_per_shard}

    def ports(self) -> Tuple[int, ...]:
        return tuple(DEFAULT_PORT + shard for shard in range(self.shards))

    def trace_rules(self, config: ClientConfig):
        from ..lint.sanitizer import ModeTraceRules
        return ModeTraceRules(
            required_ports=self.ports(),
            max_handshakes_per_port=self.connections_per_shard)
