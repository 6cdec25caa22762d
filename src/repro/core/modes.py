"""Protocol modes: the paper's four configurations plus the moderns.

Each mode pairs a table label with a :class:`~repro.core.transport.
Transport` strategy that owns client configuration and server wiring:

=============================  =====================================
Mode                           Client behaviour
=============================  =====================================
HTTP/1.0                       4 parallel connections, one request
                               each; reval = GET html + HEAD images
HTTP/1.1                       one persistent connection, serialized
HTTP/1.1 Pipelined             one connection, buffered pipelining
HTTP/1.1 Pipelined w. compr.   + ``Accept-Encoding: deflate`` (HTML)
HTTP/MUX                       one connection, interleaved framed
                               streams with per-stream flow control
HTTP/MUX Push                  + server speculatively pushes the
                               inline GIFs (client cancels dupes)
HTTP/1.1 Sharded x4            content hashed over 4 origins, 2
                               redundant connections each
=============================  =====================================

Modes self-register through :func:`repro.core.registry.register_mode`,
which is how they appear in ``resolve_mode``, the matrix engine, the
chaos planner and the report tables; third-party extensions register
the same way.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from ..client.robot import ClientConfig
from ..http import HTTP10, HTTP11
from .transport import (Http10Transport, Http11Transport, ModeTuning,
                        MuxTransport, ShardedTransport, Transport)
from .registry import register_mode

__all__ = ["ProtocolMode", "ModeTuning", "HTTP10_MODE", "HTTP11_PERSISTENT",
           "HTTP11_PIPELINED", "HTTP11_PIPELINED_COMPRESSED", "HTTP_MUX",
           "HTTP_MUX_PUSH", "HTTP11_SHARDED", "MODERN_MODES",
           "initial_tuning_client_config"]


@dataclasses.dataclass(frozen=True)
class ProtocolMode:
    """A named client configuration as the paper's tables label them."""

    name: str
    version: Tuple[int, int]
    parallel_connections: int = 1
    pipeline: bool = False
    compression: bool = False
    #: The strategy that turns this mode into wire behaviour.  Defaults
    #: by HTTP version so the legacy constructor calls keep working.
    transport: Optional[Transport] = None

    def __post_init__(self) -> None:
        if self.transport is None:
            default = (Http10Transport() if self.version == HTTP10
                       else Http11Transport())
            object.__setattr__(self, "transport", default)

    def client_config(self, *,
                      tuning: Optional[ModeTuning] = None) -> ClientConfig:
        """Materialize the mode as a client configuration."""
        return self.transport.client_config(self, tuning or ModeTuning())


def initial_tuning_client_config(mode: "ProtocolMode") -> ClientConfig:
    """The robot as configured for the paper's *initial* tests (Table 3).

    Three differences from the final runs:

    * revalidation still uses the old GET-the-HTML-plus-HEAD-the-images
      profile ("rather than the HEAD requests used in our HTTP/1.0
      version" — the If-None-Match change came *after* initial tuning),
    * the pipeline flush timer is 1 second ("initially we used a 1
      second delay"), with no application-level explicit flush yet,
    * each response pays the libwww persistent-cache overhead — "each
      cached object contains two independent files ... the overhead in
      our implementation became a performance bottleneck in our
      HTTP/1.1 tests" — modelled as ~65 ms of client CPU per object
      (two synchronous file operations on a 1997 disk).  The final
      runs moved the cache to a memory filesystem.
    """
    if mode.version == HTTP10:
        # The HTTP/1.0 robot (libwww 4.1D) had no persistent cache.
        return HTTP10_MODE.client_config()
    return ClientConfig(
        http_version=HTTP11,
        max_connections=1,
        pipeline=mode.pipeline,
        flush_timeout=1.0,
        explicit_flush=False,
        reval_strategy="get-plus-head",
        validator_preference="date",
        per_response_cpu=0.065)


#: Plain HTTP/1.0 with the Navigator default of 4 parallel connections.
HTTP10_MODE = ProtocolMode("HTTP/1.0", HTTP10, parallel_connections=4)

#: HTTP/1.1 persistent connection, strictly serialized requests.
HTTP11_PERSISTENT = ProtocolMode("HTTP/1.1", HTTP11)

#: HTTP/1.1 with buffered pipelining.
HTTP11_PIPELINED = ProtocolMode("HTTP/1.1 Pipelined", HTTP11,
                                pipeline=True)

#: Pipelining plus deflate transport compression of the HTML.
HTTP11_PIPELINED_COMPRESSED = ProtocolMode(
    "HTTP/1.1 Pipelined w. compression", HTTP11, pipeline=True,
    compression=True)

#: Multiplexed streams over one TCP connection (HTTP/2-shaped framing).
HTTP_MUX = ProtocolMode("HTTP/MUX", HTTP11, transport=MuxTransport())

#: MUX plus speculative server push of the inline images.
HTTP_MUX_PUSH = ProtocolMode("HTTP/MUX Push", HTTP11,
                             transport=MuxTransport(server_push=True))

#: Domain sharding: 4 origins, 2 redundant connections per origin.
HTTP11_SHARDED = ProtocolMode(
    "HTTP/1.1 Sharded x4", HTTP11, parallel_connections=8,
    transport=ShardedTransport(shards=4, connections_per_shard=2))

#: The post-paper modes (ROADMAP item 1).
MODERN_MODES = (HTTP_MUX, HTTP_MUX_PUSH, HTTP11_SHARDED)

register_mode(HTTP10_MODE, aliases=("http/1.0", "1.0"),
              paper_environments=("LAN", "WAN"))
register_mode(HTTP11_PERSISTENT,
              aliases=("http/1.1", "1.1", "persistent"),
              paper_environments=("LAN", "WAN", "PPP"))
register_mode(HTTP11_PIPELINED, aliases=("pipelined", "pipeline"),
              paper_environments=("LAN", "WAN", "PPP"))
register_mode(HTTP11_PIPELINED_COMPRESSED,
              aliases=("compressed", "pipelined-compressed"),
              paper_environments=("LAN", "WAN", "PPP"))
register_mode(HTTP_MUX, aliases=("mux", "http/mux", "h2", "multiplexed"))
register_mode(HTTP_MUX_PUSH, aliases=("mux-push", "push"))
register_mode(HTTP11_SHARDED, aliases=("sharded", "sharded-x4"))

