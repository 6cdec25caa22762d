"""repro — reproduction of "Network Performance Effects of HTTP/1.1, CSS1, and PNG".

A full reimplementation of the SIGCOMM '97 measurement study by Nielsen,
Gettys, Baird-Smith, Prud'hommeaux, Lie and Lilley: HTTP/1.0 and
HTTP/1.1 clients and servers (persistent connections, pipelining,
deflate transport compression) running over a deterministic TCP
simulator, plus the content-level experiments (CSS1 image replacement,
GIF→PNG/MNG conversion) with real codecs.

Subpackages
-----------
``repro.simnet``
    Discrete-event TCP/IP simulator (slow start, Nagle, delayed ACKs,
    half-close) with LAN / WAN / PPP environments, trace capture and
    the unit-end replay that checks each trace's TCP invariants.
``repro.http``
    HTTP/1.0 and HTTP/1.1 message model: ``Content-Length`` framed
    parsing, headers, the deflate coding, caching validators, byte
    ranges.
``repro.client``
    The libwww-robot-like clients: HTTP/1.0 with parallel connections,
    HTTP/1.1 persistent and pipelined with buffered output.
``repro.server``
    Jigsaw- and Apache-like buffered static servers.
``repro.content``
    The synthetic "Microscape" test site, GIF/PNG/MNG codecs, CSS1
    subset, and content-transformation analyses.
``repro.core``
    Experiment runner, scenarios, protocol modes, metrics.
``repro.matrix``, ``repro.fleet``, ``repro.faults``
    Supervised grid engine (jobs, cache, journal), population-scale
    cohorts on a shared bottleneck, fault injection and the chaos grid.
``repro.analysis``
    Table formatting and paper-vs-measured reporting.
``repro.lint``
    The static lint: determinism rules and whole-program passes.
"""

__version__ = "1.5.2"

__all__ = ["__version__"]
