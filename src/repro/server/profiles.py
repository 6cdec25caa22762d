"""Server behaviour profiles: Jigsaw, Apache, and ablation variants.

The paper ran two servers on the same Sun SPARC Ultra-1:

* **Jigsaw 1.06** — W3C's object-oriented server, "written entirely in
  Java" and "ran interpreted in our tests", hence slower per request;
* **Apache 1.2b10** — written in C, faster, and (after the authors'
  feedback to Dean Gaudet) with response buffering matching Jigsaw's;
* **Apache 1.2b2** — the earlier beta whose "output buffering ... was
  not yet as good" and which "processes at most five requests before
  terminating a TCP connection", kept here as an ablation profile.

CPU costs are the calibration constants of this reproduction (the paper
never reports them; they are fitted so the LAN elapsed times land near
Tables 4–5).  A request costs ``base_cpu + body_bytes * cpu_per_byte``
— cache-validation responses are cheap, full-body responses pay for the
I/O — and each accepted connection costs ``per_connection_cpu``.  The
server CPU is a *serial* resource, as on the paper's single-CPU host:
four parallel HTTP/1.0 connections still queue for the same processor.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

__all__ = ["ServerProfile", "JIGSAW", "JIGSAW_INITIAL", "APACHE",
           "APACHE_12B2", "NAIVE_CLOSE_SERVER", "NAGLE_STALL_SERVER",
           "NAGLE_STALL_NODELAY", "APACHE_IW1", "APACHE_IW4"]


@dataclasses.dataclass(frozen=True)
class ServerProfile:
    """Tunable behaviour of a simulated HTTP server."""

    name: str
    #: Fixed CPU seconds to parse and dispatch one request.
    base_cpu: float
    #: Additional CPU seconds per body byte served.
    cpu_per_byte: float
    #: CPU seconds charged when accepting a TCP connection.
    per_connection_cpu: float
    #: Response buffer size in bytes; the buffer also flushes when the
    #: server has no further queued requests on the connection ("when
    #: there is no more requests coming in on that connection").
    output_buffer_size: int = 4096
    #: Whether responses are buffered at all (Apache 1.2b2's buffering
    #: "was not yet as good": it wrote each response immediately).
    buffered: bool = True
    #: Write response headers and body with separate ``send`` calls — a
    #: common pre-tuning implementation shape.  Combined with Nagle
    #: (``nodelay=False``) this is the classic small-write stall the
    #: paper's "Nagle Interaction" section warns about: the body write
    #: waits for the (delayed) ACK of the header segment.
    split_header_write: bool = False
    #: Close the connection after this many responses (None = never).
    max_requests_per_connection: Optional[int] = None
    #: Close carefully (half-close, keep receiving) vs naively (both
    #: directions at once, provoking RSTs against pipelined clients).
    half_close: bool = True
    #: TCP_NODELAY on accepted connections (the paper's recommendation
    #: for implementations that buffer output).
    nodelay: bool = True
    #: Initial congestion window of the server host's TCP, in segments
    #: (the server sends the bulk data, so its window is the one slow
    #: start gates; the paper saw stacks that start at one and at two).
    initial_cwnd_segments: int = 2
    #: Server header advertised (its length shows up in the byte counts;
    #: Jigsaw's responses were a little more verbose than Apache's).
    server_header: str = "Generic/1.0"
    #: Whether responses carry a Last-Modified date in addition to the
    #: ETag.  Jigsaw 1.06 served synthesized resources with entity tags
    #: only, which is what forced date-only HTTP/1.0-era clients to
    #: re-fetch (see the browser comparison tables).
    sends_last_modified: bool = True
    #: Extra headers stamped onto every response (header verbosity is
    #: why Jigsaw's byte counts run higher than Apache's in the tables).
    extra_response_headers: tuple = ()
    #: Include Content-Type/Content-Length on 304 responses, as Jigsaw
    #: did (allowed by RFC 2068, and visible in the byte counts).
    verbose_304: bool = False
    #: Drop HTTP/1.0 keep-alive after answering a HEAD request (a
    #: Jigsaw 1.06 behaviour visible in the browser tables: Internet
    #: Explorer's HEAD-based revalidation paid a fresh connection per
    #: image against Jigsaw but not against Apache).
    close_keepalive_after_head: bool = False


#: Jigsaw as first tested (Table 3): response buffering already present
#: (which is why "in our initial tests, we did not observe significant
#: problems introduced by Nagle's algorithm"), but Nagle not yet
#: disabled.  The Table 3 elapsed-time pathology lives on the *client*
#: side (libwww's two-file disk cache); see
#: :func:`repro.core.modes.initial_tuning_client_config`.
JIGSAW_INITIAL = ServerProfile(
    name="Jigsaw-initial",
    base_cpu=0.018,             # pre-warm-up interpreted Java
    cpu_per_byte=1.6e-6,
    per_connection_cpu=0.022,
    output_buffer_size=8192,
    nodelay=False,
    server_header="Jigsaw/1.06",
    sends_last_modified=False,
)

#: The Nagle-interaction ablation: an unbuffered server that writes the
#: status line, headers and body separately, with Nagle enabled.  "In
#: later experiments in which the buffering behavior of the
#: implementations were changed, we did observe significant (sometimes
#: dramatic) transmission delays due to Nagle."  Compare against
#: :data:`NAGLE_STALL_NODELAY`, the same server with TCP_NODELAY.
NAGLE_STALL_SERVER = ServerProfile(
    name="NagleStall",
    base_cpu=0.0040,
    cpu_per_byte=1.1e-6,
    per_connection_cpu=0.0060,
    buffered=False,
    split_header_write=True,
    nodelay=False,
    server_header="Unbuffered/0.1",
)

#: Jigsaw 1.06 running interpreted Java on the Ultra-1.
JIGSAW = ServerProfile(
    name="Jigsaw",
    base_cpu=0.0070,
    cpu_per_byte=1.6e-6,
    per_connection_cpu=0.0080,
    output_buffer_size=8192,
    server_header="Jigsaw/1.06",
    sends_last_modified=False,
    extra_response_headers=(
        ("Cache-Control", "max-age=86400"),
        ("Expires", "Wed, 25 Jun 1997 00:00:00 GMT"),
    ),
    verbose_304=True,
    close_keepalive_after_head=True,
)

#: Apache 1.2b10 with the post-feedback buffering fixes.
APACHE = ServerProfile(
    name="Apache",
    base_cpu=0.0040,
    cpu_per_byte=1.1e-6,
    per_connection_cpu=0.0060,
    output_buffer_size=4096,
    server_header="Apache/1.2b10",
    extra_response_headers=(("Accept-Ranges", "bytes"),),
)

#: Apache 1.2b2: unbuffered responses, at most five requests per
#: connection — the configuration whose pipelining performance the
#: paper's authors helped diagnose.
APACHE_12B2 = ServerProfile(
    name="Apache-1.2b2",
    base_cpu=0.0040,
    cpu_per_byte=1.1e-6,
    per_connection_cpu=0.0060,
    output_buffer_size=4096,
    buffered=False,
    max_requests_per_connection=5,
    server_header="Apache/1.2b2",
)

#: Single-variable ablations, named so a spec can say which it ran: the
#: Nagle stall's fix, and slow start from one segment or four.
NAGLE_STALL_NODELAY = dataclasses.replace(
    NAGLE_STALL_SERVER, name="NagleStall-nodelay", nodelay=True)
APACHE_IW1 = dataclasses.replace(APACHE, name="Apache-iw1",
                                 initial_cwnd_segments=1)
APACHE_IW4 = dataclasses.replace(APACHE, name="Apache-iw4",
                                 initial_cwnd_segments=4)

#: A deliberately broken server that closes both connection halves at
#: once — the "Connection Management" cautionary tale.
NAIVE_CLOSE_SERVER = ServerProfile(
    name="NaiveClose",
    base_cpu=0.0040,
    cpu_per_byte=1.1e-6,
    per_connection_cpu=0.0060,
    max_requests_per_connection=5,
    half_close=False,
    server_header="Naive/0.1",
)
