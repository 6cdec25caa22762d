"""The claims ledger: what this repo asserts about the paper, once.

A :class:`Claim` names a sentence under test, the matrix cells it needs
and a ``check`` that turns measured cells into :class:`CheckRow`
verdicts, one per asserted quantity.  :func:`evaluate_claims` runs the
union of every claim's cells as *one* matrix batch; ``python -m repro
claims`` prints the result and exits non-zero unless every row passes,
and ``tests/analysis/test_claims.py`` gates the same rows in tier-1.

Table claims are judged on the numbers EXPERIMENTS.md prints: their
cells come from the report's own spec builders at the report's seeds,
so a cache either verb wrote serves the other.  Ablation cells are
single-seed; a varied link or server is a registered variant
(``WAN-LOSSY``, ``Apache-iw4`` …) and a render timeline a
:class:`~repro.analysis.report.RenderSpec`, so every simulation is a
unit of that one batch.  ``check`` measures only what is no simulation
— the pure content computations — and the one exception, the proxy
chain (:func:`fetch_through_proxy`, a different topology), in this
process.  Importing this module declares the claims and measures
nothing.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from typing import (Callable, Dict, Hashable, Iterable, List, Mapping,
                    Optional, Tuple)

from ..content import (ImageRole, banner_replacement,
                       build_microscape_site, change_tag_case,
                       convert_site_to_png, css_replacement_analysis,
                       encode_gif, parse_css)
from ..core.modes import (HTTP10_MODE, HTTP11_PERSISTENT,
                          HTTP11_PIPELINED, HTTP11_PIPELINED_COMPRESSED)
from ..core.registry import (TABLE_CELLS, resolve_environment,
                             resolve_profile)
from ..core.runner import AveragedResult
from ..core.scenarios import FIRST_TIME, REVALIDATE
from ..http import (DELTA_IM_TOKEN, HTTP10, HTTP11, DeltaStreamDecoder,
                    Headers, Request, ResponseParser, apply_delta,
                    compression_ratio, deflate_decode, deflate_encode)
from ..matrix import ExperimentSpec, MatrixRunner
from ..server import ResourceStore, SimHttpServer, build_response
from ..server.proxy import PROXY_PORT, SimHttpProxy
from ..simnet.network import ChainNetwork, PROXY_HOST, SERVER_HOST
from .paperdata import CONTENT_NUMBERS
from .report import (RENDER_STRATEGIES, RenderSpec, ablation_cell,
                     browser_table_specs, bytes_for_90_percent_area,
                     compact_revalidation_stream, measure_cells,
                     modem_savings, modem_specs, packet_train_ratio,
                     protocol_table_rows, protocol_table_specs,
                     server_cpu_saving, table3_specs)
from .tables import ComparisonRow, fidelity, format_simple_table

__all__ = ["PASS", "FAIL", "UNMEASURED", "CheckRow", "Claim", "CLAIMS",
           "Ledger", "evaluate_claims", "format_claims_report",
           "fetch_through_proxy"]

PASS, FAIL, UNMEASURED = "PASS", "FAIL", "UNMEASURED"

Cells = Mapping[Hashable, AveragedResult]


@dataclasses.dataclass(frozen=True)
class CheckRow:
    """One asserted quantity: what, its measured value, its bound."""

    what: str
    measured: str
    bound: str
    verdict: str


@dataclasses.dataclass(frozen=True)
class Claim:
    """One sentence under test (``quote``, from ``source``: a paper
    section, table or figure, or a PAPERS.md entry), the matrix units
    ``check`` reads, by the labels it reads them under, and the check."""

    id: str     # unique, kebab-case; DESIGN.md §4–5 and CHANGES.md cite it
    source: str
    quote: str
    specs: Mapping[Hashable, "ExperimentSpec | RenderSpec"]
    check: Callable[[Cells], Iterable[CheckRow]]


#: The registry, in the order the ledger prints it.
CLAIMS: List[Claim] = []


def _claim(id: str, source: str, quote: str,
           specs: Optional[Mapping[Hashable, ExperimentSpec]] = None):
    """Register the decorated ``check(cells)`` generator as a claim."""
    def register(check):
        CLAIMS.append(Claim(id, source, quote, specs or {}, check))
        return check
    return register


_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge, "==": operator.eq}


def _text(value) -> str:
    return f"{value:.3f}" if isinstance(value, float) else str(value)


def _check(what: str, measured, op: str, bound) -> CheckRow:
    """The row asserting ``measured op bound``."""
    return CheckRow(what, _text(measured), f"{op} {_text(bound)}",
                    PASS if _OPS[op](measured, bound) else FAIL)


def _ratio(what: str, a, b, op: str, factor=1) -> CheckRow:
    """The row asserting ``a op factor * b``, shown as ``a / b``."""
    return CheckRow(what, _text(a / b), f"{op} {_text(factor)}",
                    PASS if _OPS[op](a, factor * b) else FAIL)


def _between(what: str, low, measured, high) -> CheckRow:
    """The row asserting ``low <= measured <= high``."""
    return CheckRow(what, _text(measured), f"{low} .. {high}",
                    PASS if low <= measured <= high else FAIL)


# Tables 4-9: statements that span the protocol tables

H10, PERSISTENT, PIPELINED, COMPRESSED = (
    mode.name for mode in (HTTP10_MODE, HTTP11_PERSISTENT,
                           HTTP11_PIPELINED, HTTP11_PIPELINED_COMPRESSED))

#: Tables 4–9 exactly as ``reproduce_protocol_table`` builds them.
_TABLES = {number: protocol_table_specs(*TABLE_CELLS[number])
           for number in sorted(TABLE_CELLS)}
_LAN_WAN = (4, 5, 6, 7)     # the tables with an HTTP/1.0 row


def _table_specs(numbers: Iterable[int], modes: Iterable[str] = (
        H10, PERSISTENT, PIPELINED, COMPRESSED)
        ) -> Dict[Tuple, ExperimentSpec]:
    """``modes``' cells of those tables, by (number, mode, scenario)."""
    return {(number, *key): spec for number in numbers
            for key, spec in _TABLES[number].items() if key[0] in modes}


def _versus(cells: Cells, numbers: Iterable[int], a: str, b: str,
            *rows: Tuple[str, str, str, float]) -> Iterable[CheckRow]:
    """Per table and (metric, scenario, op, factor): the row asserting
    mode ``a``'s metric ``op factor x`` mode ``b``'s."""
    for number in numbers:
        for metric, scenario, op, factor in rows:
            yield _ratio(f"Table {number}: {a} / {b} "
                         f"{metric.replace('_', ' ')}, {scenario}",
                         getattr(cells[number, a, scenario], metric),
                         getattr(cells[number, b, scenario], metric),
                         op, factor)


@_claim("pipelining-outperforms-http10", "Abstract; Tables 4-7",
        "a pipelined HTTP/1.1 implementation outperformed HTTP/1.0 ... "
        "The savings were at least a factor of two, and sometimes as much "
        "as a factor of ten, in terms of packets transmitted.",
        _table_specs(_LAN_WAN, (H10, PIPELINED)))
def _outperforms_http10(cells):
    return _versus(cells, _LAN_WAN, H10, PIPELINED,
                   ("packets", FIRST_TIME, ">=", 2.0),
                   ("packets", REVALIDATE, ">=", 10.0),
                   ("elapsed", FIRST_TIME, ">", 1))


@_claim("persistent-without-pipelining-slower",
        "Conclusions; Tables 4-7, Sec column",
        "An HTTP/1.1 implementation that does not implement pipelining "
        "will perform worse (have higher elapsed time) than an HTTP/1.0 "
        "implementation using multiple connections.",
        _table_specs(_LAN_WAN, (H10, PERSISTENT)))
def _persistent_slower(cells):
    yield from _versus(cells, (4, 5, 6), PERSISTENT, H10,
                       ("elapsed", FIRST_TIME, ">=", 0.85))
    # Table 7 is the WAN cell the headline is stated on.
    yield from _versus(cells, (7,), PERSISTENT, H10,
                       ("elapsed", FIRST_TIME, ">", 1),
                       ("packets", FIRST_TIME, "<", 1))


@_claim("pipelining-beats-persistence", "Tables 4-9, Pa and Sec columns",
        "pipelining always beats serialized persistence: lower elapsed "
        "time and no more packets on the same single connection",
        _table_specs(_TABLES, (PERSISTENT, PIPELINED)))
def _beats_persistence(cells):
    return _versus(cells, _TABLES, PIPELINED, PERSISTENT,
                   ("elapsed", FIRST_TIME, "<", 1),
                   ("elapsed", REVALIDATE, "<", 1),
                   ("packets", FIRST_TIME, "<=", 1),
                   ("packets", REVALIDATE, "<", 1 / 2))


@_claim("compression-savings", "§Compression Issues; Tables 4-9",
        "deflating the HTML alone saves about 16% of the packets and "
        "12% of the elapsed time of a first-time retrieval",
        _table_specs(_TABLES, (PIPELINED, COMPRESSED)))
def _compression_savings(cells):
    return _versus(cells, _TABLES, COMPRESSED, PIPELINED,
                   ("packets", FIRST_TIME, "<", 0.92),
                   ("payload_bytes", FIRST_TIME, "<", 0.88),
                   ("elapsed", FIRST_TIME, "<=", 1))


_TABLE_CELLS = _table_specs(_TABLES)


def _comparison_rows(cells: Cells
                     ) -> Dict[int, Optional[List[ComparisonRow]]]:
    """Tables 4–9 next to the paper — what the within-2x claim and the
    Fidelity table both read; ``None`` for a table that lost a unit."""
    tables = {number: {key[1:]: cell for key, cell in cells.items()
                       if key[0] == number} for number in _TABLES}
    return {number: None if any(cell.failures for cell in table.values())
            else protocol_table_rows(*TABLE_CELLS[number], table)
            for number, table in tables.items()}


@_claim("paper-cells-within-2x", "Tables 4-9, Pa column",
        "cell by cell, measured packet counts stay within 2x of the "
        "paper's published values across all six protocol tables",
        _TABLE_CELLS)
def _within_2x(cells):
    for number, rows in _comparison_rows(cells).items():
        # Every ratio is within [0.5, 2.0] iff the one furthest from 1
        # (in log terms, where the band is symmetric) is.
        yield _between(
            f"Table {number}: measured / paper packets, the worst of "
            f"{len(rows)} cells", 0.5,
            max((row.measured.packets / row.paper.packets for row in rows),
                key=lambda ratio: abs(math.log(ratio))), 2.0)


@_claim("first-retrieval-bandwidth-savings", "Conclusions; Table 7",
        "first-time-retrieval byte savings from HTTP/1.1 alone are a "
        "few percent",
        {mode: _TABLES[7][mode, FIRST_TIME] for mode in (H10, PIPELINED)})
def _bandwidth_savings(cells):
    yield _between(
        "payload bytes pipelining saves over HTTP/1.0 (WAN)", 0.0,
        1 - cells[PIPELINED].payload_bytes / cells[H10].payload_bytes, 0.15)


@_claim("ppp-bandwidth-dominated", "Abstract; Table 9",
        "Elapsed time improvement is less dramatic, and strongly "
        "depends on your network connection.",
        {"cell": _TABLES[9][PIPELINED, FIRST_TIME]})
def _ppp_bandwidth(cells):
    cell = cells["cell"]
    floor = cell.payload_bytes * 8.3 / 28_800
    for op, factor in ((">", 0.75), ("<", 1.35)):
        yield _ratio("pipelined first-time elapsed / payload time at "
                     "28.8 kbit/s", cell.elapsed, floor, op, factor)


# Table 3, Tables 10-11, the modem experiment

@_claim("table-3-initial-tuning", "Table 3",
        "simultaneously very happy and quite disappointed: persistence "
        "slashes packets but raises elapsed time before tuning",
        table3_specs())
def _table3(cells):
    for a, b, metric, op, factor in (
            (PERSISTENT, H10, "packets", "<", 1 / 2),
            (PIPELINED, H10, "packets", "<", 1 / 5),
            (PERSISTENT, H10, "elapsed", ">", 1.5),
            (PIPELINED, H10, "elapsed", ">", 1),
            (PIPELINED, PERSISTENT, "elapsed", "<", 1)):
        yield _ratio(f"{a} / {b} {metric}", getattr(cells[a], metric),
                     getattr(cells[b], metric), op, factor)
    for mode, op, sockets in ((PERSISTENT, "==", 1), (PIPELINED, "==", 1),
                              (H10, ">=", 40)):
        yield _check(f"sockets used, {mode}",
                     cells[mode].connections_used, op, sockets)


_NAVIGATOR, _EXPLORER = "Netscape Navigator", "Internet Explorer"


@_claim("table-10-ie-revalidation-blowup", "Table 10",
        "Internet Explorer's revalidation against Jigsaw (HEAD checks that "
        "drop keep-alive per image) costs several times Navigator's",
        browser_table_specs("Jigsaw"))
def _table10(cells):
    nn, ie = cells[_NAVIGATOR, REVALIDATE], cells[_EXPLORER, REVALIDATE]
    yield _ratio("IE / Navigator packets, revalidate",
                 ie.packets, nn.packets, ">", 2.0)
    yield _ratio("IE / Navigator payload bytes, revalidate",
                 ie.payload_bytes, nn.payload_bytes, ">", 2.0)
    yield _between("IE / Navigator packets, first-time", 0.8,
                   cells[_EXPLORER, FIRST_TIME].packets
                   / cells[_NAVIGATOR, FIRST_TIME].packets, 1.3)


@_claim("table-11-browsers-revalidate-cleanly", "Table 11",
        "against Apache (which sends Last-Modified) both browsers "
        "validate cleanly: no Internet Explorer blow-up",
        browser_table_specs("Apache"))
def _table11(cells):
    nn, ie = cells[_NAVIGATOR, REVALIDATE], cells[_EXPLORER, REVALIDATE]
    for name, cell in ((_NAVIGATOR, nn), (_EXPLORER, ie)):
        yield _check(f"{name}: fewest 304s in a revalidation run",
                     min(run.statuses.get(304, 0) for run in cell.runs),
                     "==", 43)
    yield _between("IE / Navigator packets, revalidate",
                   0.7, ie.packets / nn.packets, 1.4)


@_claim("modem-compression", "§8.2.1",
        "deflate beats the modem's own compression: 68.7% of the packets "
        "and ~64.5% of the time saved on the HTML-only GET", modem_specs())
def _modem(cells):
    for server in ("Jigsaw", "Apache"):
        packets, time = modem_savings(cells[server, "uncompressed"],
                                      cells[server, "compressed"])
        yield _between(f"{server}: packets deflate saves",
                       0.55, packets, 0.78)
        yield _between(f"{server}: elapsed time deflate saves",
                       0.50, time, 0.75)


# Content: CSS1, PNG / MNG, deflate

@_claim("figure1-css", "Figure 1",
        "the number of bytes needed to represent the content is reduced "
        "by a factor of more than 4")
def _figure1(_cells):
    gif = encode_gif(next(
        o for o in build_microscape_site().image_objects
        if o.text == "solutions").image)
    replacement = banner_replacement("solutions")
    markup = (replacement.html.encode()
              + replacement.css.serialize(compact=True).encode())
    rule = parse_css(replacement.css.serialize()).rules[0]
    yield _between('"solutions" banner GIF bytes (paper: 682)',
                   450, len(gif), 900)
    yield _check("HTML+CSS replacement bytes (paper: ~150)",
                 replacement.byte_size, "<=", 180)
    yield _check("682 / replacement bytes",
                 682 / replacement.byte_size, ">=", 4.0)
    yield _check("the rule reparses as CSS1: font", rule.get("font"),
                 "==", "bold oblique 20px sans-serif")
    yield _check("the rule reparses as CSS1: background",
                 rule.get("background"), "==", "#FC0")
    yield _ratio("replacement deflated / plain bytes",
                 len(deflate_encode(markup)), replacement.byte_size, "<")
    yield _ratio("GIF deflated / plain bytes",
                 len(deflate_encode(gif)), len(gif), ">", 0.8)


@_claim("css-replacement", '§"Replacing Images with HTML and CSS"',
        "Universal use of style sheets ... would cause a very "
        "significant reduction in network traffic.")
def _css_replacement(_cells):
    report = css_replacement_analysis(build_microscape_site())
    kept = {obj.role for obj in report.kept}
    yield _between("image requests replaced by markup, of 42",
                   20, report.requests_saved, 35)
    for role in (ImageRole.PHOTO, ImageRole.ANIMATION):
        yield _check(f"{role.name.lower()} images are kept",
                     role in kept, "==", True)
    yield _ratio("markup bytes added / image bytes removed",
                 report.markup_bytes_added, report.image_bytes_removed,
                 "<", 1 / 5)
    yield _check("net bytes saved", report.net_bytes_saved, ">", 10_000)
    yield _check("replaced GIF bytes / markup bytes added",
                 sum(r.gif_bytes for r in report.replaced)
                 / report.markup_bytes_added, ">", 4.0)


@_claim("png-mng-conversion",
        '§"Converting images from GIF to PNG and MNG"',
        "103,299 -> 92,096 bytes static (10.8% saved), 24,988 -> 16,329 "
        "bytes animations (34.7% saved); images under 200 bytes grow")
def _png_mng(_cells):
    site = build_microscape_site()
    report = convert_site_to_png(site)
    no_gamma = convert_site_to_png(site, include_gamma=False)
    yield _between("static GIF -> PNG bytes saved", 0.04,
                   report.static_saved / report.static_gif_total, 0.18)
    yield _between("animated GIF -> MNG bytes saved", 0.25,
                   report.animation_saved / report.animation_gif_total,
                   0.50)
    yield _check("most bytes a sub-200 B image saves (all grow)",
                 max(r.saved for r in report.static if r.gif_bytes < 200),
                 "<", 0)
    yield _check("fewest bytes an over-3000 B image saves (all shrink)",
                 min(r.saved for r in report.static if r.gif_bytes > 3000),
                 ">", 0)
    yield _check("gAMA bytes over the static images (16 each)",
                 report.static_png_total - no_gamma.static_png_total, "==",
                 CONTENT_NUMBERS["gamma_bytes_per_image"]
                 * len(report.static))


@_claim("html-deflate", "§Compression Issues",
        "42K -> 11K (~19% of the page payload); compression is "
        "significantly worse ... if mixed case HTML tags are used")
def _html_deflate(_cells):
    site = build_microscape_site()
    html = site.html.body
    compressed = deflate_encode(html)
    lower, mixed = (compression_ratio(change_tag_case(
        html.decode("latin-1"), case).encode("latin-1"))
        for case in ("lower", "mixed"))
    yield _between("deflated / plain HTML bytes (paper: ~0.27)",
                   0.18, len(compressed) / len(html), 0.35)
    yield _check("inflating returns the page",
                 deflate_decode(compressed) == html, "==", True)
    yield _between("page payload saved (paper: ~19%)", 0.14,
                   (len(html) - len(compressed))
                   / (site.html.size + site.total_image_bytes), 0.25)
    yield _ratio("mixed-case / lowercase tags, deflate ratio",
                 mixed, lower, ">")


# Ablations (DESIGN.md §4-5), single seed

@_claim("nagle-stall", "§Nagle Interaction",
        "we did observe significant (sometimes dramatic) transmission "
        "delays due to Nagle",
        {label: ablation_cell(HTTP11_PERSISTENT, REVALIDATE, "LAN", server)
         for label, server in (("stalled", "NagleStall"),
                               ("nodelay", "NagleStall-nodelay"),
                               ("buffered", "Apache"))})
def _nagle(cells):
    stalled, nodelay, buffered = (
        cells[label] for label in ("stalled", "nodelay", "buffered"))
    yield _ratio("split writes: Nagle / TCP_NODELAY elapsed",
                 stalled.elapsed, nodelay.elapsed, ">", 5)
    yield _ratio("TCP_NODELAY split writes / buffered packets",
                 nodelay.packets, buffered.packets, ">")
    yield _ratio("buffered / TCP_NODELAY elapsed",
                 buffered.elapsed, nodelay.elapsed, "<=", 1.2)


@_claim("flush-policies", "§Buffer Tuning",
        "taking advantage of knowledge in the application can result in a "
        "considerably faster implementation than relying on such a timeout",
        {name: ablation_cell(HTTP11_PIPELINED, REVALIDATE, "LAN",
                             flush_timeout=timeout, explicit_flush=flush)
         for name, timeout, flush in (("slow", 1.0, False),
                                      ("timer", 0.05, False),
                                      ("explicit", 0.05, True))})
def _flush_policies(cells):
    slow, timer, explicit = cells["slow"], cells["timer"], cells["explicit"]
    yield _check("1 s timer - explicit flush elapsed (s)",
                 slow.elapsed - explicit.elapsed, ">", 0.5)
    yield _ratio("50 ms timer / 1 s timer elapsed",
                 timer.elapsed, slow.elapsed, "<")
    yield _ratio("explicit flush / 50 ms timer elapsed",
                 explicit.elapsed, timer.elapsed, "<=", 1.05)
    yield _check("|explicit flush - 1 s timer| packets",
                 abs(explicit.packets - slow.packets), "<=", 6)


@_claim("buffer-size-sweep", "§Pipelining",
        "We experimented with the output buffer size and found that "
        "1024 bytes is a good compromise.",
        {size: ablation_cell(HTTP11_PIPELINED, FIRST_TIME, "WAN",
                             output_buffer_size=size)
         for size in (128, 256, 512, 1024, 2048, 4096, 8192)})
def _buffer_sizes(sweep):
    best = min(cell.packets for cell in sweep.values())
    times = [cell.elapsed for cell in sweep.values()]
    yield _ratio("128 B / 1024 B buffer, client packets",
                 sweep[128].packets_client_to_server,
                 sweep[1024].packets_client_to_server, ">")
    yield _check("|2048 B - 8192 B buffer| packets",
                 abs(sweep[2048].packets - sweep[8192].packets), "<=", 3)
    yield _check("1024 B buffer packets over the sweep's fewest",
                 sweep[1024].packets - best, "<=", 4)
    yield _check("elapsed spread over the sweep (s)",
                 max(times) - min(times), "<", 0.5)


def _first_time(environment: str = "WAN", server: str = "Apache"
                ) -> Dict[str, ExperimentSpec]:
    """HTTP/1.0's and pipelining's single-seed first-time cells, by
    mode: the pair every congestion and slow-start ablation varies."""
    return {mode.name: ablation_cell(mode, FIRST_TIME, environment, server)
            for mode in (HTTP10_MODE, HTTP11_PIPELINED)}


@_claim("lossy-wan", "§Observations on congestion",
        "HTTP/1.1 also behaves better on loaded paths: fewer packets in "
        "slow start, longer packet trains to learn from",
        {(variant, mode): spec for variant in ("WAN", "WAN-LOSSY")
         for mode, spec in _first_time(variant).items()})
def _lossy_wan(cells):
    for mode in (PIPELINED, H10):
        yield _ratio(f"{mode}: 2% loss / clean elapsed",
                     cells["WAN-LOSSY", mode].elapsed,
                     cells["WAN", mode].elapsed, ">")
    lossy, http10 = cells["WAN-LOSSY", PIPELINED], cells["WAN-LOSSY", H10]
    yield _ratio("2% loss: pipelined / HTTP/1.0 packets",
                 lossy.packets, http10.packets, "<", 1 / 2)
    yield _ratio("2% loss: pipelined / HTTP/1.0 elapsed",
                 lossy.elapsed, http10.elapsed, "<")


@_claim("drop-tail-bottleneck", "§Observations on congestion",
        "The first few packet exchanges of a new TCP connection are "
        "either too fast, or too slow for that path.",
        _first_time("WAN-DROPTAIL"))
def _drop_tail(cells):
    pipelined, http10 = cells[PIPELINED], cells[H10]
    yield _check("10-packet buffer: pipelined congestion drops",
                 pipelined.runs[0].dropped_overflow, ">=", 1)
    yield _ratio("10-packet buffer: pipelined / HTTP/1.0 packets",
                 pipelined.packets, http10.packets, "<", 1 / 2)
    yield _ratio("10-packet buffer: pipelined / HTTP/1.0 elapsed",
                 pipelined.elapsed, http10.elapsed, "<")


@_claim("slow-start-initial-window", "§Observations on slow start",
        "Some TCP stacks implement slow start using one TCP segment "
        "whereas others implement it using two packets.",
        {(mode, segments): spec for segments in (1, 4) for mode, spec
         in _first_time(server=f"Apache-iw{segments}").items()})
def _slow_start(cells):
    elapsed = {key: cell.elapsed for key, cell in cells.items()}
    yield _ratio("initial cwnd 1 -> 4 speedup, HTTP/1.0 / pipelined",
                 elapsed[H10, 1] / elapsed[H10, 4],
                 elapsed[PIPELINED, 1] / elapsed[PIPELINED, 4], ">")
    yield _ratio("pipelined at cwnd 1 / HTTP/1.0 at cwnd 4, elapsed",
                 elapsed[PIPELINED, 1], elapsed[H10, 4], "<")


@_claim("two-connections", "§Connection Management",
        "Dividing the mean length of packet trains down by a factor of "
        "two diminish the benefits to the Internet ... substantially.",
        {**{count: ablation_cell(HTTP11_PIPELINED, FIRST_TIME, "WAN",
                                 max_connections=count)
            for count in (1, 2, 4)},
         H10: _first_time()[H10]})
def _two_connections(cells):
    for count in (1, 2, 4):
        yield _check(f"connections used with a budget of {count}",
                     cells[count].connections_used, "==", count)
    for count, bound in ((2, 0.7), (4, 0.45)):
        yield _check(f"packet-train length, {count} connections / 1",
                     packet_train_ratio(cells[count], cells[1]), "<", bound)
    yield _ratio("packets, 2 connections / 1",
                 cells[2].packets, cells[1].packets, "<", 1.2)
    yield _ratio("packets, 2 pipelined connections / HTTP/1.0",
                 cells[2].packets, cells[H10].packets, "<", 1 / 2)


@_claim("server-cpu", "§Future work",
        "We believe the CPU time savings of HTTP/1.1 is very substantial "
        "... and could now be quantified for Apache",
        {(mode.name, scenario): ablation_cell(mode, scenario, "LAN")
         for mode, scenario in ((HTTP10_MODE, FIRST_TIME),
                                (HTTP10_MODE, REVALIDATE),
                                (HTTP11_PIPELINED, FIRST_TIME),
                                (HTTP11_PIPELINED, REVALIDATE),
                                (HTTP11_PERSISTENT, FIRST_TIME))})
def _server_cpu(cells):
    for scenario, share in ((FIRST_TIME, 0.25), (REVALIDATE, 0.4)):
        yield _check(f"server CPU pipelining saves, {scenario}",
                     server_cpu_saving(cells[H10, scenario],
                                       cells[PIPELINED, scenario]),
                     ">", share)
    yield _check("|persistent - pipelined| server CPU (s), first-time",
                 abs(cells[PERSISTENT, FIRST_TIME].server_cpu_seconds
                     - cells[PIPELINED, FIRST_TIME].server_cpu_seconds),
                 "<", 0.005)


@_claim("compact-http", "§Observations (future work)",
        "a more compact wire representation for HTTP could increase "
        "pipelining's benefit ... an additional factor of five or ten")
def _compact_http(_cells):
    messages, frames, encoder = compact_revalidation_stream(
        build_microscape_site())
    decoder = DeltaStreamDecoder()
    yield _check("the encoded stream decodes to the 43 requests",
                 [message for frame in frames
                  for message in decoder.feed(frame)] == messages,
                 "==", True)
    yield _between("raw / encoded request bytes",
                   4.0, encoder.ratio, 15.0)
    yield _check("encoded batch bytes (one segment)",
                 sum(len(frame) for frame in frames), "<", 1460)
    yield _check("raw batch bytes (several segments)",
                 encoder.raw_bytes, ">", 2 * 1460)


@_claim("render-multiplexing", "§Future work (time to render)",
        "with the range request techniques outlined in this paper, we "
        "believe HTTP/1.1 can perform well over a single connection",
        {name: RenderSpec(name) for name in RENDER_STRATEGIES})
def _render_multiplexing(cells):
    timelines = {name: cell.runs[0] for name, cell in cells.items()}
    ranged = timelines["pipelined + range prefixes"]
    pipelined = timelines["HTTP/1.1 pipelined"]
    http10 = timelines["HTTP/1.0 x4 connections"]
    yield _check("every strategy transfers correct content",
                 all(m.verified for m in timelines.values()), "==", True)
    yield _ratio("time to layout: range prefixes / pipelined",
                 ranged.layout_complete, pipelined.layout_complete,
                 "<", 0.6)
    yield _ratio("time to layout: range prefixes / HTTP/1.0 x4",
                 ranged.layout_complete, http10.layout_complete, "<")
    yield _ratio("full render: range prefixes / pipelined",
                 ranged.full_render, pipelined.full_render, "<", 1.15)
    yield _ratio("full render: pipelined / HTTP/1.0 x4",
                 pipelined.full_render, http10.full_render, "<")


@_claim("progressive-render", "§PNG (future work)",
        "PNG also provides time to render benefits relative to GIF.")
def _progressive_render(_cells):
    site = build_microscape_site()
    needed = {(codec, interlace): bytes_for_90_percent_area(
                  site, codec, interlace=interlace)
              for codec in ("gif", "png") for interlace in (False, True)}
    what = "file fraction that paints 90% of the area: "
    yield _check(what + "baseline GIF", needed["gif", False], ">", 0.8)
    yield _check(what + "baseline PNG", needed["png", False], ">", 0.8)
    yield _check(what + "interlaced GIF", needed["gif", True], "<", 0.35)
    yield _ratio(what + "PNG Adam7 / interlaced GIF",
                 needed["png", True], needed["gif", True], "<")


@_claim("delta-encoding", "Related work [26] (Mogul et al.)",
        "potential benefits of delta-encoding and data compression for "
        "HTTP")
def _delta_encoding(_cells):
    # A private store: the edit must not reach the shared default one.
    store = ResourceStore.from_site(build_microscape_site())
    old = store.get("/home.html")
    new_body = old.body.replace(b"copyright 1997",
                                b"copyright 1997-1998", 1)
    store.update("/home.html", new_body)
    response = build_response(store, Request(
        "GET", "/home.html", HTTP11, Headers([
            ("Host", "h"), ("If-None-Match", old.etag),
            ("A-IM", DELTA_IM_TOKEN)])), resolve_profile("Apache"))
    deflated_bytes = len(deflate_encode(new_body))
    yield _check("status of the delta response",
                 response.status, "==", 226)
    yield _check("the delta applied to the cached page gives the new one",
                 apply_delta(old.body, response.body) == new_body,
                 "==", True)
    yield _ratio("deflated / full body bytes",
                 deflated_bytes, len(new_body), "<", 1 / 2)
    yield _ratio("delta / deflated body bytes",
                 len(response.body), deflated_bytes, "<", 1 / 20)
    yield _check("delta body bytes", len(response.body), "<", 200)


_PROXY_IDLE_TIMEOUT = 15.0      # seconds


def fetch_through_proxy(mode: str) -> Tuple[list, float, int]:
    """GET one image with ``Connection: Keep-Alive`` via a ``mode`` proxy.

    A ``blind`` HTTP/1.0 proxy forwards the header verbatim, the origin
    holds the upstream connection open, and the close-delimited relay
    waits out the proxy's idle timeout; a ``hop_by_hop`` proxy strips
    it.  Returns (the responses parsed, the simulated time the chain
    fell quiet, the proxy's idle-timeout count).
    """
    net = ChainNetwork(resolve_environment("LAN"))
    SimHttpServer(net.sim, net.server,
                  ResourceStore.from_site(build_microscape_site()),
                  resolve_profile("Apache"))
    proxy = SimHttpProxy(net.sim, net.proxy_client_side,
                         net.proxy_server_side, SERVER_HOST, mode=mode,
                         idle_timeout=_PROXY_IDLE_TIMEOUT)
    parser = ResponseParser()
    parser.expect("GET")
    responses: list = []
    conn = net.client.connect(PROXY_HOST, PROXY_PORT)
    conn.set_nodelay(True)
    conn.on_data = lambda _conn, data: responses.extend(parser.feed(data))
    conn.send(Request("GET", "/gifs/bullet0.gif", HTTP10, Headers([
        ("Host", SERVER_HOST), ("Connection", "Keep-Alive")])).to_bytes())
    try:
        net.run()
    finally:
        net.close()
    return responses, net.sim.now, proxy.idle_timeouts


@_claim("keep-alive-proxy", "§Persistent connections",
        "HTTP/1.1's design differs in minor details from Keep-Alive to "
        "overcome a problem ... with more than one proxy")
def _keep_alive_proxy(_cells):
    for mode, op, quiet_at, timeouts in (
            ("blind", ">=", _PROXY_IDLE_TIMEOUT, 1),
            ("hop_by_hop", "<", 1.0, 0)):
        responses, quiet, idle_timeouts = fetch_through_proxy(mode)
        yield _check(f"{mode} proxy: response statuses",
                     [r.status for r in responses], "==", [200])
        yield _check(f"{mode} proxy: chain quiet at (s; the proxy's idle "
                     f"timeout is {_PROXY_IDLE_TIMEOUT:g})",
                     quiet, op, quiet_at)
        yield _check(f"{mode} proxy: idle timeouts",
                     idle_timeouts, "==", timeouts)


# Evaluation and rendering

@dataclasses.dataclass(frozen=True)
class Ledger:
    """Every claim's verdict rows, and Tables 4–9 next to the paper
    (``None`` in place of a table that lost a unit to quarantine)."""

    rows: List[Tuple[Claim, CheckRow]]
    tables: Dict[int, Optional[List[ComparisonRow]]]

    @property
    def ok(self) -> bool:
        """True when every row of every claim is ``PASS``."""
        return all(row.verdict == PASS for _, row in self.rows)


def evaluate_claims(runner: Optional[MatrixRunner] = None) -> Ledger:
    """Measure every registered claim: one matrix batch, then checks.

    The de-duplicated union of the claims' specs is one ``run_many``
    (a cell several claims read is simulated once, and ``--jobs`` sees
    every unit at once).  A claim any of whose cells lost a unit to
    quarantine is ``UNMEASURED``, never ``PASS``.
    """
    measured = measure_cells(
        {spec: spec
         for specs in (_TABLE_CELLS, *(claim.specs for claim in CLAIMS))
         for spec in specs.values()}, runner)
    rows: List[Tuple[Claim, CheckRow]] = []
    for claim in CLAIMS:
        cells = {label: measured[spec]
                 for label, spec in claim.specs.items()}
        failures = [failure for cell in cells.values()
                    for failure in cell.failures]
        checked = ([CheckRow(f"{len(failures)} unit(s) quarantined, "
                             f"first: {failures[0].summary()}",
                             "-", "-", UNMEASURED)]
                   if failures else claim.check(cells))
        rows.extend((claim, row) for row in checked)
    return Ledger(rows, _comparison_rows(
        {label: measured[spec] for label, spec in _TABLE_CELLS.items()}))


def format_claims_report(ledger: Ledger) -> str:
    """The Claims table, then the Fidelity table of Tables 4–9."""
    passed = sum(row.verdict == PASS for _, row in ledger.rows)
    tables = {f"Table {number} ({' '.join(TABLE_CELLS[number])})": rows
              for number, rows in ledger.tables.items()}
    tables["overall"] = None if None in tables.values() else [
        row for rows in tables.values() for row in rows]
    scores = [(label, rows and fidelity(rows))
              for label, rows in tables.items()]
    return format_simple_table(
        f"Claims: {len({claim.id for claim, _ in ledger.rows})} claims, "
        f"{len(ledger.rows)} checks, {passed} PASS",
        ["id", "source", "what", "measured", "bound", "verdict"],
        [[claim.id, claim.source, row.what, row.measured, row.bound,
          row.verdict] for claim, row in ledger.rows]
    ) + "\n\n" + format_simple_table(
        "Fidelity: geometric-mean error against the paper "
        "(0 = exact, 1 = a factor of two off)",
        ["table", "cells", "packets", "bytes", "seconds", "outside 2x",
         "worst cell"],
        [[label, score.cells, f"{score.packets:.4f}",
          f"{score.payload_bytes:.4f}", f"{score.seconds:.4f}",
          score.outside_2x, score.worst] if score else
         [label, UNMEASURED, "-", "-", "-", "-", "-"]
         for label, score in scores])
