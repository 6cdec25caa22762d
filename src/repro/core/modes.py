"""Protocol modes: the paper's four configurations plus the moderns.

A mode is three things, stated once where the mode is defined: the
label the tables print, the :class:`~repro.core.transport.Transport`
that carries it (listeners, client class, trace rules — what differs
per wire format), and the :class:`~repro.client.robot.ClientConfig`
fields that differ from that dataclass's defaults:

=============================  =====================================
Mode                           Client behaviour
=============================  =====================================
HTTP/1.0                       4 parallel connections, one request
                               each; reval = GET html + HEAD images
HTTP/1.1                       one persistent connection, serialized
                               (``ClientConfig()`` as is)
HTTP/1.1 Pipelined             one connection, buffered pipelining
HTTP/1.1 Pipelined w. compr.   + ``Accept-Encoding: deflate`` (HTML)
HTTP/MUX                       one connection, interleaved framed
                               streams with per-stream flow control
HTTP/MUX Push                  + server speculatively pushes the
                               inline GIFs (client cancels dupes)
HTTP/1.1 Sharded x4            content hashed over 4 origins, 2
                               redundant connections each
=============================  =====================================

The modes are a table, not a registry: :data:`MODE_TABLE` lists each
mode once, in the order the tables print them, with its aliases and
the environments where it is a row of the paper's tables, and
:mod:`repro.core.registry` derives ``resolve_mode``, ``MODES`` and
``modes_for_environment`` from it.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Tuple

from ..client.robot import ClientConfig
from ..http import HTTP10
from .transport import MuxTransport, ShardedTransport, Transport

__all__ = ["ProtocolMode", "HTTP10_MODE", "HTTP11_PERSISTENT",
           "HTTP11_PIPELINED", "HTTP11_PIPELINED_COMPRESSED", "HTTP_MUX",
           "HTTP_MUX_PUSH", "HTTP11_SHARDED", "MODE_TABLE",
           "initial_tuning_client_config"]


@dataclasses.dataclass(frozen=True)
class ProtocolMode:
    """A named client configuration as the paper's tables label them."""

    name: str
    #: How the mode reaches the wire (default: plain HTTP on port 80).
    transport: Transport = Transport()
    #: :class:`ClientConfig` fields that differ from its defaults, on
    #: top of the ones the transport's geometry fixes.
    client_fields: Mapping[str, Any] = dataclasses.field(
        default_factory=dict, hash=False)

    def client_config(self) -> ClientConfig:
        """Materialize the mode as a fresh client configuration."""
        return ClientConfig(**{**self.transport.client_fields(),
                               **self.client_fields})


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
    config = mode.client_config()
    if config.http_version == HTTP10:
        # The HTTP/1.0 robot (libwww 4.1D) had no persistent cache.
        return config
    return ClientConfig(
        pipeline=config.pipeline,
        flush_timeout=1.0,
        explicit_flush=False,
        reval_strategy="get-plus-head",
        validator_preference="date",
        per_response_cpu=0.065)


#: Plain HTTP/1.0 with the Navigator default of 4 parallel connections:
#: the *old* libwww (4.1D) robot, one request per connection, no output
#: buffering.  Its requests were noticeably fatter than the tuned 5.1
#: robot's ~190 bytes, and the paper's byte counts reflect it.
HTTP10_MODE = ProtocolMode("HTTP/1.0", client_fields=dict(
    http_version=HTTP10,
    max_connections=4,
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
    )))

#: HTTP/1.1 persistent connection, strictly serialized requests.
HTTP11_PERSISTENT = ProtocolMode("HTTP/1.1")

#: HTTP/1.1 with buffered pipelining.
HTTP11_PIPELINED = ProtocolMode("HTTP/1.1 Pipelined",
                                client_fields=dict(pipeline=True))

#: Pipelining plus deflate transport compression of the HTML.
HTTP11_PIPELINED_COMPRESSED = ProtocolMode(
    "HTTP/1.1 Pipelined w. compression",
    client_fields=dict(pipeline=True, accept_deflate=True))

#: Multiplexed streams over one TCP connection (HTTP/2-shaped framing).
HTTP_MUX = ProtocolMode("HTTP/MUX", MuxTransport())

#: MUX plus speculative server push of the inline images.
HTTP_MUX_PUSH = ProtocolMode("HTTP/MUX Push", MuxTransport(server_push=True))

#: Domain sharding: the robot's ``SHARDS`` origins, with
#: ``CONNECTIONS_PER_SHARD`` redundant connections to each.
HTTP11_SHARDED = ProtocolMode("HTTP/1.1 Sharded x4", ShardedTransport())

#: Every mode, in the order the tables print them: (mode, the lower-case
#: aliases ``resolve_mode`` accepts besides its name, the environments
#: where it is a row of the paper's Tables 4–9 — none for the post-paper
#: modes).
MODE_TABLE: Tuple[Tuple[ProtocolMode, Tuple[str, ...], Tuple[str, ...]],
                  ...] = (
    (HTTP10_MODE, ("http/1.0", "1.0"), ("LAN", "WAN")),
    (HTTP11_PERSISTENT, ("http/1.1", "1.1", "persistent"),
     ("LAN", "WAN", "PPP")),
    (HTTP11_PIPELINED, ("pipelined",), ("LAN", "WAN", "PPP")),
    (HTTP11_PIPELINED_COMPRESSED, ("compressed",), ("LAN", "WAN", "PPP")),
    (HTTP_MUX, ("mux",), ()),
    (HTTP_MUX_PUSH, ("mux-push", "push"), ()),
    (HTTP11_SHARDED, ("sharded", "sharded-x4"), ()),
)
