"""Each distinct HTTP head is parsed and built once — and nobody can tell.

The head path memoizes on bytes (request heads, response heads less a
leading Date line, header lines), serializes each request head once,
and memoizes per resource store (the served responses' templates, their
wire bytes less Date and Connection, and the revalidation prefill, both
kept by the store for a profile and emptied when its content changes).
These tests pin the guarantee that makes that safe: with the memos
cold, warm, cleared mid-stream or at their size bound, every parsed and
built message is what the memo-free algorithm produces, and no caller
can reach a shared object through what it was handed.
"""

import contextlib
import copy
import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.content import build_microscape_site
from repro.core import REVALIDATE, prefill_cache
from repro.core.registry import resolve_mode
from repro.core import runner
from repro.http import (HTTP11, PAPER_EPOCH, Headers, MemoryCache,
                        ParseError, Request, RequestParser, Response,
                        ResponseParser, format_http_date)
from repro.http import headers as headers_mod, parser as parser_mod
from repro.http import messages as messages_mod
from repro.http.delta import DELTA_IM_TOKEN
from repro.http.messages import STATUS_REASONS, parse_version
from repro.server import APACHE, Resource, ResourceStore, SimHttpServer
from repro.server.static import build_response
from repro.simnet import LAN, SERVER_HOST, TwoHostNetwork

from ..server.test_server import RawClient
from .test_parser_fuzz import requests as request_wires
from .test_parser_fuzz import responses as response_wires
from .test_parser_fuzz import slices


#: Every memo on the head path, by module-level name.
_HEAD_MEMOS = ((headers_mod, "_LINE_MEMO"), (parser_mod, "_REQUEST_HEADS"),
               (parser_mod, "_RESPONSE_HEADS"),
               (messages_mod, "_WIRE_HEADS"))


def clear_memos():
    for module, name in _HEAD_MEMOS:
        getattr(module, name).clear()


def always_full():
    """Hold every head-path memo at one entry: each store clears."""
    stack = contextlib.ExitStack()
    for module, name in _HEAD_MEMOS:
        stack.enter_context(
            mock.patch.object(getattr(module, name), "bound", 1))
    return stack


# ----------------------------------------------------------------------
# (a) memo state never changes a parse
# ----------------------------------------------------------------------
def reference_head(wire: bytes, kind: str):
    """The memo-free head algorithm, written out as the oracle.

    Returns ``(start-line fields, [(name, value), ...], body offset)``
    for the first head in ``wire`` or raises :class:`ParseError`.
    """
    end = wire.find(b"\r\n\r\n")
    head = wire[:end]
    if head.count(b"\r") != head.count(b"\r\n") \
            or head.count(b"\n") != head.count(b"\r\n"):
        raise ParseError("bare CR or LF")
    lines = head.decode("latin-1").split("\r\n")
    try:
        if kind == "request":
            parts = lines[0].split()
            if len(parts) != 3:
                raise ValueError(lines[0])
            start = (parts[0], parts[1], parse_version(parts[2]))
        else:
            parts = lines[0].split(None, 2)
            if len(parts) < 2:
                raise ValueError(lines[0])
            start = (int(parts[1]), parse_version(parts[0]),
                     parts[2] if len(parts) > 2 else "")
        items = []
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if not sep or line[0] in " \t":
                raise ValueError(line)
            items.append((name.strip(), value.strip()))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return start, items, end + 4


def reference_framing(items):
    """The head's one ``Content-Length`` (None if it has none), or
    :class:`ParseError` for ``Transfer-Encoding``, a value that is not
    ASCII digits, or two values that disagree."""
    if any(name.lower() == "transfer-encoding" for name, _ in items):
        raise ParseError("Transfer-Encoding")
    lengths = [value for name, value in items
               if name.lower() == "content-length"]
    if not all(value.isascii() and value.isdigit() for value in lengths):
        raise ParseError("bad Content-Length")
    if len({int(value) for value in lengths}) > 1:
        raise ParseError("conflicting Content-Length")
    return int(lengths[0]) if lengths else None


def _mostly(good, bad):
    """Nine draws in ten from ``good``: a malformed head ends its stream,
    and most streams should get past their first head."""
    return st.sampled_from(good * (9 * len(bad)) + bad * len(good))


_REQUEST_LINES = _mostly(
    ["GET /a HTTP/1.1", "HEAD /b/c.gif HTTP/1.0", "POST /p HTTP/1.1",
     "GET  /a   HTTP/1.1"],
    # malformed: version, version number, part count
    ["GET / FOO/1.1", "GET / HTTP/1", "GET / HTTP/x.y", "GET",
     "GET /simple", "GET / HTTP/1.1 extra"])
_STATUS_LINES = _mostly(
    ["HTTP/1.1 200 OK", "HTTP/1.0 304 Not Modified", "HTTP/1.1 204",
     "HTTP/1.1 100 Continue", "HTTP/1.1 404 Not Found Here"],
    # malformed: status, version, part count
    ["HTTP/1.1 abc OK", "FOO/1.1 200 OK", "HTTP/1.1"])
#: Malformed lines tried before the first field: an SP-led field, a
#: folded continuation and a colon-free line.
_ODD_LINES = _mostly([[]], [[" Led: by space"], ["\torphan"],
                            ["no colon here"]])
_NAMES = ["Host", "Date", "DATE", "date", "ETag", "Connection", "X-Pad"]
_VALUES = ["", "h", "Tue, 24 Jun 1997 00:00:01 GMT",
           "Tue, 24 Jun 1997 00:00:02 GMT", "close", "Keep-Alive, x",
           '"abc123"']
_text = st.text(alphabet="abcXYZ :;,=\"\t", max_size=10)
_field = st.builds(
    lambda name, pad, value: f"{name}:{pad}{value}",
    st.sampled_from(_NAMES), st.sampled_from(["", " ", " \t"]),
    st.sampled_from(_VALUES) | _text)
_framing_field = _mostly(
    ["Content-Length: 7", "content-length:  12 ", "Content-Length: 0"],
    ["Content-Length: abc", "Content-Length:", "Content-Length: -1",
     "Content-Length: 1_0", "Transfer-Encoding: chunked",
     "Transfer-Encoding: identity, Chunked"])


def _variants(line):
    """The same field respelled: what a sloppy memo key would conflate."""
    name, _, value = line.partition(":")
    return [line, name.upper() + ":" + value, name.lower() + ":" + value,
            name + ": " + value.strip(), name + ":" + value.swapcase()]


#: Strategies the composites below draw from, built once: a strategy
#: built inside a draw is built (and validated) again for every example.
_POOLS = st.lists(st.one_of(_field, _framing_field), min_size=1, max_size=4)
_ENDINGS = _mostly(["\r\n"], ["\n"])
_PICK = st.integers(0, 4)


@st.composite
def head_streams(draw, start_lines):
    """1–3 CRLF-terminated head blocks.  Header lines come from one
    small pool and its respellings, and a block may be the previous one
    respelled, so a stream repeats lines and whole heads exactly and
    *almost* exactly.  A line but the last may end in a bare LF instead
    of CRLF (malformed), one time in ten.
    """
    pool = draw(_POOLS)

    def respelled(line):
        return _variants(line)[draw(_PICK)]

    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        if blocks and draw(st.booleans()):
            lines = [lines[0]] + [
                line if line[0] in " \t" or ":" not in line
                else respelled(line) for line in lines[1:]]
        else:
            lines = [draw(start_lines)] + draw(_ODD_LINES) + [
                respelled(pool[draw(st.integers(0, len(pool) - 1))])
                for _ in range(draw(_PICK))]
            # The last line keeps its CRLF, so the block ends its head.
            endings = [draw(_ENDINGS) for _ in lines[1:]] + ["\r\n"]
        blocks.append(("".join(
            text + ending for text, ending in zip(lines, endings))
            + "\r\n").encode("latin-1"))
    return blocks


def expected_stream(head_blocks, kind):
    """Wire bytes for the heads (bodies framed as each head demands) and
    what the reference algorithm makes of them.

    Returns ``(wire, messages, fails)``: the messages parsed before the
    first malformed head, and whether there is one.
    """
    wire, messages = b"", []
    for block in head_blocks:
        try:
            start, items, body_start = reference_head(block, kind)
            length = reference_framing(items)
            bodiless = kind == "response" and (
                start[0] in (204, 304) or 100 <= start[0] < 200)
            if not bodiless and length is None and kind == "response":
                raise ParseError("no Content-Length")
        except ParseError:
            return wire + block, messages, True
        assert body_start == len(block)
        body = b"" if bodiless else b"0123456789abcdef"[:length or 0]
        assert len(body) == (0 if bodiless else length or 0)
        wire += block + body
        messages.append((start, items, body))
    return wire, messages, False


def parse_stream(kind, pieces, clear_before=None):
    """Feed ``pieces``; returns ``(messages so far, raised ParseError?)``."""
    parser = RequestParser() if kind == "request" else ResponseParser()
    parsed = []
    try:
        for index, piece in enumerate(pieces):
            if index == clear_before:
                clear_memos()
            parsed.extend(parser.feed(piece))
    except ParseError:
        return [_summary(kind, m) for m in parsed], True
    return [_summary(kind, m) for m in parsed], False


def _summary(kind, message):
    if kind == "request":
        start = (message.method, message.target, message.version)
    else:
        start = (message.status, message.version, message.reason)
    return start, message.headers.items(), message.body


def check_every_memo_state(kind, head_blocks, data):
    wire, messages, fails = expected_stream(head_blocks, kind)
    cuts = data.draw(st.lists(st.integers(0, len(wire)), max_size=10))
    pieces = slices(wire, cuts)
    clear_at = data.draw(st.integers(0, len(pieces) - 1))

    def check(outcome):
        parsed, raised = outcome
        assert raised == fails
        if fails:
            # Messages completed by the very feed() that raised are lost
            # with it, as before; what did come out is a correct prefix.
            assert parsed == messages[:len(parsed)]
        else:
            assert parsed == messages

    clear_memos()
    check(parse_stream(kind, pieces))                   # cold
    check(parse_stream(kind, pieces))                   # warm
    check(parse_stream(kind, pieces, clear_at))         # cleared mid-stream
    with always_full():
        check(parse_stream(kind, pieces))               # always full
    check(parse_stream(kind, [wire]))                   # one segment


@settings(max_examples=150, deadline=None)
@given(head_streams(_REQUEST_LINES), st.data())
def test_request_parse_is_independent_of_memo_state(head_blocks, data):
    check_every_memo_state("request", head_blocks, data)


@settings(max_examples=150, deadline=None)
@given(head_streams(_STATUS_LINES), st.data())
def test_response_parse_is_independent_of_memo_state(head_blocks, data):
    check_every_memo_state("response", head_blocks, data)


#: kind → (the method it answers, its status line, body on the wire?)
_ANSWERS = {
    "200": ("GET", "HTTP/1.1 200 OK", True),
    "304": ("GET", "HTTP/1.0 304 Not Modified", False),
    "HEAD": ("HEAD", "HTTP/1.1 200 OK", False),
}
_PAGE = b"<html><img src=a.gif></html>"


_ORDERS = st.permutations(sorted(_ANSWERS))
_REPEATS = st.lists(st.sampled_from(sorted(_ANSWERS)), max_size=4)
_ANSWER_DATES = st.sampled_from(_VALUES[2:4])
_ETAGS = st.sampled_from(['"abc123"', '"v2"'])
_EXTRA_FIELDS = st.lists(_field, max_size=2)


@st.composite
def pipelined_answers(draw):
    """A pipelined stream of a 200 with a body, a 304 and the answer to
    a HEAD, in any order and then repeated at random.  ``Date`` and
    ``ETag`` come from two-value pools, so whole heads recur, and the
    200 and the HEAD answer may share one head exactly.

    Returns ``(methods, wire, expected messages)``.
    """
    kinds = draw(_ORDERS) + draw(_REPEATS)
    methods, wire, expected = [], b"", []
    for kind in kinds:
        method, status_line, has_body = _ANSWERS[kind]
        lines = [status_line,
                 "Date: " + draw(_ANSWER_DATES),
                 "ETag: " + draw(_ETAGS)]
        if kind != "304":
            lines.append(f"Content-Length: {len(_PAGE)}")
        lines += draw(_EXTRA_FIELDS)
        block = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        start, items, _ = reference_head(block, "response")
        body = _PAGE if has_body else b""
        methods.append(method)
        wire += block + body
        expected.append((start, items, body, method))
    return methods, wire, expected


def parse_answers(methods, pieces, clear_before=None):
    parser = ResponseParser()
    for method in methods:
        parser.expect(method)
    parsed = []
    for index, piece in enumerate(pieces):
        if index == clear_before:
            clear_memos()
        parsed.extend(parser.feed(piece))
    assert parser.outstanding == 0
    return [_summary("response", m) + (m.request_method,) for m in parsed]


@settings(max_examples=150, deadline=None)
@given(pipelined_answers(), st.data())
def test_pipelined_answers_parse_alike_in_every_memo_state(answers, data):
    methods, wire, expected = answers
    cuts = data.draw(st.lists(st.integers(0, len(wire)), max_size=10))
    pieces = slices(wire, cuts)
    clear_at = data.draw(st.integers(0, len(pieces) - 1))
    clear_memos()
    assert parse_answers(methods, pieces) == expected           # cold
    assert parse_answers(methods, pieces) == expected           # warm
    assert parse_answers(methods, pieces, clear_at) == expected
    with always_full():
        assert parse_answers(methods, pieces) == expected       # at bound
    assert parse_answers(methods, [wire]) == expected


def test_a_refused_response_head_is_never_stored():
    no_length = b"HTTP/1.1 200 OK\r\nDate: d1\r\n\r\n"
    clear_memos()
    for _ in range(2):
        for bad in (b"HTTP/1.1 abc OK\r\nDate: d1\r\n\r\n",
                    b"FOO/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
                    b"HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
                    no_length):
            with pytest.raises(ParseError):
                ResponseParser().feed(bad)
    assert not parser_mod._RESPONSE_HEADS
    # The same bytes answer a HEAD; framed, the head is kept, and a GET
    # answered by them is still refused.
    parser = ResponseParser()
    parser.expect("HEAD")
    (answer,) = parser.feed(no_length)
    assert (answer.status, answer.body) == (200, b"")
    # Its key is the block without the leading Date line.
    assert list(parser_mod._RESPONSE_HEADS) == [b"HTTP/1.1 200 OK"]
    with pytest.raises(ParseError, match="no Content-Length"):
        ResponseParser().feed(no_length)


def test_editing_a_parsed_responses_headers_leaves_the_memo_alone():
    wire = (b"HTTP/1.1 200 OK\r\nDate: d1\r\nContent-Encoding: deflate"
            b"\r\nContent-Length: 3\r\n\r\nabc")
    clear_memos()
    for _ in range(2):                          # cold, then a hit
        (first,) = ResponseParser().feed(wire)
        pristine = first.headers.items()
        assert first.headers.remove("Content-Encoding") == 1
        first.headers.add("Content-Length", "9")
        (second,) = ResponseParser().feed(wire)
        assert second.headers.items() == pristine
        assert second.headers.get("Content-Encoding") == "deflate"
    # The memo keeps the fields after the leading Date, untouched.
    (head,) = parser_mod._RESPONSE_HEADS.values()
    assert [("Date", "d1")] + list(head.fields) == pristine


#: Date values, padded and empty ones included (``str.strip`` takes
#: the NO-BREAK SPACEs too, in the reference as in the parser).
_DATES = ["Tue, 24 Jun 1997 00:00:01 GMT", "Tue, 24 Jun 1997 00:00:02 GMT",
          "", "  padded \t", "\xa0x\xa0"]
#: What stands where a response's Date line goes: a ``Date: `` line,
#: which the key cuts (``Date:  x`` too: the value's own leading blanks,
#: as in the padded ``_DATES``, are stripped), no Date, near spellings
#: (``Date:`` and ``Date :`` name the same field and are cut; other
#: cases, and an SP-led line, are kept whole), two Date fields, and a
#: bare CR or LF inside the value.
_DATE_LINES = st.one_of(
    st.sampled_from(_DATES).map(lambda date: ["Date: " + date]),
    st.just([]),
    st.tuples(st.sampled_from(["date: ", "DATE: ", "Date:", "Date :",
                               " Date: "]),
              st.sampled_from(_DATES)).map(lambda pair: ["".join(pair)]),
    st.tuples(st.sampled_from(_DATES), st.sampled_from(_DATES)).map(
        lambda pair: ["Date: " + pair[0], "Date: " + pair[1]]),
    st.sampled_from(["Date: Tue,\r24 Jun", "Date: x\r", "Date: \ry",
                     "Date: x\ny", "Date: \n"]).map(lambda line: [line]))
_REST = [["Server: Apache/1.2b10", 'ETag: "a"'], ['ETag: "b"'], [],
         ["Date: Tue, 24 Jun 1997 00:00:03 GMT"]]


_RESTS = st.sampled_from(_REST)


def _redated(lines):
    """``lines`` with each exact ``Date: `` value from the first two of
    ``_DATES`` swapped for the other."""
    return [f"Date: {_DATES[1 - _DATES.index(line[6:])]}"
            if line.startswith("Date: ") and line[6:] in _DATES[:2]
            else line for line in lines]


@st.composite
def dated_heads(draw):
    """1–4 response head blocks built around their Date lines: the Date
    part first or after another field, and a block may repeat the one
    before it with only its Date values changed."""
    blocks, lines = [], None
    for _ in range(draw(st.integers(1, 4))):
        if lines is not None and draw(st.booleans()):
            lines = _redated(lines)
        else:
            rest = draw(_RESTS) + [draw(_framing_field)]
            at = draw(st.integers(0, 1))
            lines = ([draw(_STATUS_LINES)] + rest[:at]
                     + draw(_DATE_LINES) + rest[at:])
        blocks.append(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
    return blocks


@settings(max_examples=200, deadline=None)
@given(dated_heads(), st.data())
def test_date_keyed_heads_parse_alike_in_every_memo_state(head_blocks,
                                                          data):
    check_every_memo_state("response", head_blocks, data)
    # The one leading-Date rule: the parser's key leaves a head's first
    # field out exactly when the reference parse names that field
    # ``Date``.
    wire, messages, _ = expected_stream(head_blocks, "response")
    clear_memos()
    parse_stream("response", [wire])
    keys = set()
    for block, (_, items, _) in zip(head_blocks, messages):
        cut = bool(items) and items[0][0] == "Date"
        lines = block[:-4].split(b"\r\n")
        keys.add(b"\r\n".join(lines[:1] + lines[1 + cut:]))
    assert set(parser_mod._RESPONSE_HEADS) == keys


#: Spellings of a first line the parse names exactly ``Date``.
_DATE_NAMES = ["Date: ", "Date:", "Date :"]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_DATE_NAMES),
                          st.sampled_from(_DATES)), min_size=1, max_size=5),
       st.sampled_from(_REST[:3]))
def test_heads_that_differ_only_in_date_share_one_entry(dates, rest):
    tail = "".join(line + "\r\n" for line in rest) + "Content-Length: 0"
    clear_memos()
    for spelling, date in dates:
        wire = f"HTTP/1.1 200 OK\r\n{spelling}{date}\r\n{tail}\r\n\r\n"
        (response,) = ResponseParser().feed(wire.encode("latin-1"))
        assert response.headers.items()[0] == ("Date", date.strip())
        assert len(parser_mod._RESPONSE_HEADS) == 1
    # The head without its Date is the same key, and the same entry.
    (bare,) = ResponseParser().feed(
        f"HTTP/1.1 200 OK\r\n{tail}\r\n\r\n".encode("latin-1"))
    assert bare.headers.items() == response.headers.items()[1:]
    assert len(parser_mod._RESPONSE_HEADS) == 1


# ----------------------------------------------------------------------
# bodies and their chunk runs read alike under any slicing
# ----------------------------------------------------------------------
def reference_runs(wire, spans, pieces):
    """What ``on_body_chunk`` sees: per feed, per message, the bytes of
    that message's body (``spans``: its ``[start, stop)`` in ``wire``)
    the feed carries, as ``(messages completed before it, bytes)``."""
    runs, offset = [], 0
    for piece in pieces:
        end = offset + len(piece)
        for index, (start, stop) in enumerate(spans):
            low, high = max(start, offset), min(stop, end)
            if low < high:
                runs.append((index, wire[low:high]))
        offset = end
    return runs


_PIECE_TYPES = st.sampled_from([bytes, bytearray, memoryview])


def check_bodies(parser, messages, data):
    """``messages``: ``(wire, body on the wire)`` per message.  Each
    piece is fed as bytes, a bytearray or a view of one, and the
    bytearray is overwritten once ``feed`` returns."""
    wire, spans = b"", []
    for message_wire, body in messages:
        wire += message_wire
        spans.append((len(wire) - len(body), len(wire)))
    cuts = data.draw(st.lists(st.integers(0, len(wire)), max_size=12))
    pieces = slices(wire, cuts)
    runs = []

    def observe(_message, chunk):
        assert type(chunk) is bytes
        runs.append((parser.messages_completed, chunk))

    parser.on_body_chunk = observe
    parsed = []
    for piece in pieces:
        kind = data.draw(_PIECE_TYPES)
        held = bytearray(piece)
        parsed.extend(parser.feed(piece if kind is bytes else kind(held)))
        held[:] = b"X" * len(held)
    assert [m.body for m in parsed] == [body for _, body in messages]
    assert runs == reference_runs(wire, spans, pieces)


@settings(max_examples=100, deadline=None)
@given(st.lists(request_wires(), min_size=1, max_size=4), st.data())
def test_request_bodies_and_chunk_runs_under_any_slicing(items, data):
    check_bodies(RequestParser(),
                 [(wire, request.body) for request, wire in items], data)


@settings(max_examples=100, deadline=None)
@given(st.lists(response_wires(), min_size=1, max_size=4), st.data())
def test_response_bodies_and_chunk_runs_under_any_slicing(items, data):
    parser = ResponseParser()
    for _, method, _ in items:
        parser.expect(method)
    check_bodies(parser, [(wire, response.body_on_wire())
                          for response, _, wire in items], data)


# ----------------------------------------------------------------------
# an edit stays with the message it was made to
# ----------------------------------------------------------------------
_EDITS = st.lists(st.tuples(
    st.sampled_from(["add", "set", "remove"]),
    st.sampled_from(["Date", "date", "ETag", "Host", "X-New",
                     "content-length"]),
    st.sampled_from(["v", ""])), min_size=1, max_size=4)


def _edit(headers, edits):
    for op, name, value in edits:
        if op == "remove":
            headers.remove(name)
        else:
            getattr(headers, op)(name, value)


def _dated_response(date):
    return (f"HTTP/1.1 200 OK\r\nDate: {date}\r\nETag: \"a\"\r\n"
            f"Content-Length: 0\r\n\r\n").encode("latin-1")


@pytest.fixture(scope="module")
def hero_server():
    """A server on a private store, shared by every example: building
    the store is most of an example's cost, and no example changes it."""
    return _serve(ResourceStore.from_site(build_microscape_site()))[1]


@settings(max_examples=50, deadline=None)
@given(edits=_EDITS)
def test_edits_of_parsed_and_served_heads_reach_nothing_else(hero_server,
                                                             edits):
    # Two parsed requests share one memo entry, four parsed responses
    # another (two Dates), two server-built responses one template.
    clear_memos()
    server = hero_server
    request_wire = Request("GET", "/gifs/hero.gif", HTTP11, Headers([
        ("Host", SERVER_HOST)])).to_bytes()
    messages = [RequestParser().feed(request_wire)[0] for _ in range(2)]
    messages += [ResponseParser().feed(_dated_response(date))[0]
                 for date in _DATES[:2] * 2]
    templates = [server._respond(request) for request in messages[:2]]
    memos = [getattr(module, name) for module, name in _HEAD_MEMOS]
    memos.append(server._heads)
    frozen = [copy.deepcopy(dict(memo)) for memo in memos]
    pristine = [message.headers.items() for message in messages]
    for index, message in enumerate(messages):
        _edit(message.headers, edits)
        assert [m.headers.items() for m in messages[index + 1:]] == \
            pristine[index + 1:]
    assert [dict(memo) for memo in memos] == frozen
    again = [RequestParser().feed(request_wire)[0],
             ResponseParser().feed(_dated_response(_DATES[0]))[0]]
    assert [m.headers.items() for m in again] == [pristine[0], pristine[2]]
    # A served response is its template's bytes: every hit hands back
    # the one template, immutable all the way down, with nothing in it
    # a caller could edit.
    assert server._respond(again[0]) is templates[0] is templates[1]
    assert all(isinstance(part, (int, str, bytes)) for part in templates[0])


def reference_request_bytes(request):
    """The memo-free serialization, written out."""
    major, minor = request.version
    return (f"{request.method} {request.target} HTTP/{major}.{minor}\r\n"
            + "".join(f"{name}: {value}\r\n"
                      for name, value in request.headers.items())
            + "\r\n").encode("latin-1") + request.body


def reference_response_bytes(response):
    major, minor = response.version
    reason = (response.reason if response.reason is not None
              else STATUS_REASONS.get(response.status, "Unknown"))
    bodiless = response.request_method == "HEAD" \
        or response.status in (204, 304)
    return (f"HTTP/{major}.{minor} {response.status} {reason}\r\n"
            + "".join(f"{name}: {value}\r\n"
                      for name, value in response.headers.items())
            + "\r\n").encode("latin-1") + (b"" if bodiless else
                                             response.body)


_pairs = st.lists(st.tuples(st.sampled_from(_NAMES),
                            st.sampled_from(_VALUES) | _text), max_size=4)
#: Fields led by a Date line (any spelling) half the time.
_fields = st.tuples(
    st.one_of(st.just([]), st.tuples(
        st.sampled_from(["Date", "DATE", "date"]),
        st.sampled_from(_VALUES[2:4])).map(lambda pair: [pair])),
    _pairs).map(lambda parts: Headers(parts[0] + parts[1]))
_versions = st.sampled_from([(1, 0), (1, 1)])
_requests = st.builds(
    Request, st.sampled_from(["GET", "HEAD", "POST"]),
    st.sampled_from(["/a", "/b/c.gif"]), _versions, _fields,
    st.sampled_from([b"", b"x=1"]))
_responses = st.builds(
    Response, st.sampled_from([200, 204, 206, 304, 299]), _versions,
    _fields, st.sampled_from([b"", _PAGE]),
    st.sampled_from([None, "", "Fine"]), st.sampled_from(["GET", "HEAD"]))


def near_twins(message):
    """``message`` and copies that each differ from it in one serialized
    part: what a sloppy key would conflate with it."""
    def twin(items=None, **changes):
        return dataclasses.replace(
            message, headers=Headers(message.headers.items()
                                     if items is None else items),
            **changes)

    twins = [message, twin(version=(1, 1) if message.version == (1, 0)
                           else (1, 0))]
    if isinstance(message, Request):
        twins += [twin(method=message.method + "X"),
                  twin(target=message.target + "x"),
                  twin(body=message.body + b"!")]
    else:
        twins += [twin(status=message.status + 1),
                  twin(reason=(message.reason or "") + "!"),
                  twin(request_method={"GET": "HEAD"}.get(
                      message.request_method, "GET"))]
    items = message.headers.items()
    for index, (name, value) in enumerate(items):
        for changed in ((name, value + "!"), (name.swapcase(), value)):
            twins.append(twin(items[:index] + [changed] + items[index + 1:]))
    twins.append(twin(items[1:]))
    return twins


@settings(max_examples=150, deadline=None)
@given(st.lists(_requests, min_size=1, max_size=3).map(
           lambda found: [t for r in found for t in near_twins(r)]),
       st.lists(_responses, min_size=1, max_size=3).map(
           lambda found: [t for r in found for t in near_twins(r)]))
def test_to_bytes_is_the_memo_free_serialization(requests, responses):
    expected = ([reference_request_bytes(r) for r in requests]
                + [reference_response_bytes(r) for r in responses])

    def serialize():
        return [m.to_bytes() for m in requests + responses]

    clear_memos()
    assert serialize() == expected                          # cold
    assert serialize() == expected                          # warm
    with always_full():
        assert serialize() == expected                      # at bound
    # A message edited after it was serialized says so next time.
    for message in requests + responses:
        message.headers.add("X-Pad", "late")
    assert serialize() == [
        reference_request_bytes(r) for r in requests] + [
        reference_response_bytes(r) for r in responses]


def test_parsed_request_carries_its_head_bytes():
    block = b"GET /a HTTP/1.1\r\nHost: h"
    (request,) = RequestParser().feed(block + b"\r\n\r\n")
    assert request.head == block
    # Not part of a request's identity: a hand-built twin compares equal.
    assert request == Request("GET", "/a", HTTP11, Headers([("Host", "h")]))


def test_a_space_led_line_means_what_its_position_says():
    # No folding: before any field or after one, a line led by SP or HT
    # is malformed, and the line memo never keeps it.
    led = " Led: by space"
    clear_memos()
    for _ in range(2):
        for lines in ([led, "A: b"], ["A: b", led], ["A: b", "\tfolded"]):
            try:
                Headers.from_lines(lines)
            except ValueError:
                continue
            raise AssertionError("read a space-led line")
    assert led not in headers_mod._LINE_MEMO
    assert "\tfolded" not in headers_mod._LINE_MEMO


def test_malformed_heads_are_never_cached():
    clear_memos()
    for _ in range(2):
        for bad in (b"GET / FOO/1.1\r\nHost: h\r\n\r\n",
                    b"GET / HTTP/1.1\r\nno colon\r\n\r\n",
                    b"GET / HTTP/1.1\r\n Led: by space\r\n\r\n",
                    b"GET / HTTP/1.1\r\nA: b\r\n\tfolded\r\n\r\n"):
            try:
                RequestParser().feed(bad)
            except ParseError:
                continue
            raise AssertionError("parsed a malformed head")
    assert not parser_mod._REQUEST_HEADS
    assert "no colon" not in headers_mod._LINE_MEMO
    assert " Led: by space" not in headers_mod._LINE_MEMO
    assert "\tfolded" not in headers_mod._LINE_MEMO


# ----------------------------------------------------------------------
# (b) a caller's mutations never reach the memo
# ----------------------------------------------------------------------
def _mutate(headers):
    headers.add("Connection", "close")
    headers.remove("Host")
    headers.remove("ETag")
    headers.set("Date", "never")


def test_mutating_a_parsed_request_leaves_the_next_parse_pristine():
    wire = (b"GET /a HTTP/1.1\r\nHost: h\r\nDate: d1\r\n"
            b"If-None-Match: \"x\"\r\n\r\n")
    clear_memos()
    (first,) = RequestParser().feed(wire)
    pristine = first.headers.items()
    _mutate(first.headers)
    assert first.headers.items() != pristine
    (second,) = RequestParser().feed(wire)
    assert second.headers.items() == pristine
    assert second.headers.get("Host") == "h"
    assert not second.headers.contains_token("Connection", "close")


def test_mutating_a_parsed_response_leaves_the_next_parse_pristine():
    wire = (b"HTTP/1.1 304 Not Modified\r\nDate: d1\r\nETag: \"x\"\r\n"
            b"Host: h\r\n\r\n")
    clear_memos()
    (first,) = ResponseParser().feed(wire)
    pristine = first.headers.items()
    assert ("Host", "h") in pristine
    _mutate(first.headers)
    (second,) = ResponseParser().feed(wire)
    assert second.headers.items() == pristine


# ----------------------------------------------------------------------
# (c), (d) the server's response-head templates
# ----------------------------------------------------------------------
def _ask(net, client, wire: bytes) -> Response:
    """Send ``wire`` on the client's connection; the response to it."""
    client.parser.expect("GET")
    client.conn.send(wire)
    net.run()
    return client.responses[-1]


def _serve(store):
    net = TwoHostNetwork(LAN)
    return net, SimHttpServer(net.sim, net.server, store, APACHE)


def test_store_changes_invalidate_the_response_templates():
    store = ResourceStore.from_site(build_microscape_site())
    old = store.get("/home.html")
    net, server = _serve(store)
    client = RawClient(net, [])
    conditional = Request("GET", "/home.html", HTTP11, Headers([
        ("Host", SERVER_HOST), ("If-None-Match", old.etag)])).to_bytes()
    delta_capable = Request("GET", "/home.html", HTTP11, Headers([
        ("Host", SERVER_HOST), ("If-None-Match", old.etag),
        ("A-IM", DELTA_IM_TOKEN)])).to_bytes()
    missing = Request("GET", "/new.txt", HTTP11, Headers([
        ("Host", SERVER_HOST)])).to_bytes()

    for _ in range(2):                      # second round: warm templates
        assert _ask(net, client, conditional).status == 304
        assert _ask(net, client, delta_capable).status == 304
        assert _ask(net, client, missing).status == 404
    assert len(server._heads) == 3

    new_body = old.body.replace(b"Section 1", b"Section A", 1)
    store.update("/home.html", new_body)
    changed = _ask(net, client, conditional)
    assert (changed.status, changed.body) == (200, new_body)
    assert _ask(net, client, delta_capable).status == 226
    assert _ask(net, client, missing).status == 404

    store.add(Resource.create("/new.txt", "text/plain", b"fresh\n"))
    found = _ask(net, client, missing)
    assert (found.status, found.body) == (200, b"fresh\n")
    assert _ask(net, client, conditional).status == 200


def test_same_bytes_across_a_second_boundary_differ_only_in_date():
    store = ResourceStore.from_site(build_microscape_site())
    net, _server = _serve(store)
    client = RawClient(net, [])
    request = Request("GET", "/gifs/hero.gif", HTTP11, Headers([
        ("Host", SERVER_HOST),
        ("If-None-Match", store.get("/gifs/hero.gif").etag)]))
    wire = request.to_bytes()

    def built_at(now):
        wire = build_response(store, request, APACHE).to_bytes()
        status_end = wire.index(b"\r\n") + 2
        date = f"Date: {format_http_date(PAPER_EPOCH + now)}\r\n"
        return wire[:status_end] + date.encode("latin-1") + wire[status_end:]

    early = net.sim.now
    first = _ask(net, client, wire)                  # cold
    second = _ask(net, client, wire)                 # warm, same second
    assert int(net.sim.now) == int(early)
    net.run(until=int(early) + 1.5)
    late = net.sim.now
    third = _ask(net, client, wire)                  # warm, next second

    assert first.to_bytes() == second.to_bytes() == built_at(early)
    assert third.to_bytes() == built_at(late)
    assert first.headers.get("Date") != third.headers.get("Date")
    first.headers.remove("Date")
    third.headers.remove("Date")
    assert first.to_bytes() == third.to_bytes()


# ----------------------------------------------------------------------
# (e) the templates belong to the store, one map per profile
# ----------------------------------------------------------------------
def _counting_builds(monkeypatch):
    """Patch the server's ``build_response`` to record its profiles."""
    from repro.server import base
    built = []

    def counting(store, request, profile, **kwargs):
        built.append(profile)
        return build_response(store, request, profile, **kwargs)

    monkeypatch.setattr(base, "build_response", counting)
    return built


def _hero_request(store):
    return Request("GET", "/gifs/hero.gif", HTTP11, Headers([
        ("Host", SERVER_HOST),
        ("If-None-Match", store.get("/gifs/hero.gif").etag)])).to_bytes()


def test_a_second_server_on_the_same_store_and_profile_builds_nothing(
        monkeypatch):
    from repro.server import JIGSAW
    built = _counting_builds(monkeypatch)
    store = ResourceStore.from_site(build_microscape_site())
    wire = _hero_request(store)
    answers = []
    for profile in (APACHE, APACHE, JIGSAW, JIGSAW):
        net = TwoHostNetwork(LAN)
        SimHttpServer(net.sim, net.server, store, profile)
        answers.append(_ask(net, RawClient(net, []), wire))
    # One build per profile, whichever server met the head first.
    assert built == [APACHE, JIGSAW]
    assert [a.status for a in answers] == [304] * 4
    assert answers[0].to_bytes() == answers[1].to_bytes()
    assert answers[2].to_bytes() == answers[3].to_bytes()
    assert answers[0].headers.get("Server") != \
        answers[2].headers.get("Server")
    # A private store shares nothing.
    net, _server = _serve(ResourceStore.from_site(build_microscape_site()))
    assert _ask(net, RawClient(net, []), wire).status == 304
    assert built == [APACHE, JIGSAW, APACHE]


def test_a_store_update_reaches_every_server_on_the_store():
    store = ResourceStore.from_site(build_microscape_site())
    wire = _hero_request(store)
    sessions = []
    for _ in range(2):
        net, _server = _serve(store)
        sessions.append((net, RawClient(net, [])))
    for net, client in sessions * 2:            # second round: warm
        assert _ask(net, client, wire).status == 304
    store.update("/gifs/hero.gif", b"GIF89a-new")
    for net, client in sessions:
        changed = _ask(net, client, wire)
        assert (changed.status, changed.body) == (200, b"GIF89a-new")


def test_scripted_faults_fire_on_templates_another_server_built():
    from repro.faults import FaultyProfile, RecoveryLog, ServerFaultConfig
    profile = FaultyProfile.wrap(APACHE, ServerFaultConfig(
        error_503_requests=(1,), abort_requests=(3,),
        abort_after_bytes=20))
    store = ResourceStore.from_site(build_microscape_site())
    wire = Request("GET", "/gifs/hero.gif", HTTP11,
                   Headers([("Host", SERVER_HOST)])).to_bytes()
    for _ in range(2):              # the second server starts warm
        net = TwoHostNetwork(LAN)
        server = SimHttpServer(net.sim, net.server, store, profile)
        server.recovery = RecoveryLog()
        client = RawClient(net, ["GET"] * 3)
        for _ in range(3):
            client.conn.send(wire)
            net.run()
        assert [r.status for r in client.responses] == [503, 200]
        assert client.reset             # the third died 20 bytes in
        assert server.recovery.count("server", "503") == 1
        assert server.recovery.count("server", "abort") == 1
        assert len(server._heads) == 1
    # The plain profile's templates are another map.
    _net, plain = _serve(store)
    assert len(plain._heads) == 0


# ----------------------------------------------------------------------
# (f) one shared revalidation prefill per store and profile
# ----------------------------------------------------------------------
def test_a_fresh_testbed_reuses_the_stores_prefill_until_an_update(
        monkeypatch):
    mode = resolve_mode("pipelined")
    config = mode.client_config()
    site = build_microscape_site()
    # A private store: the edit below must not reach the shared one.
    store = ResourceStore.from_site(site)
    monkeypatch.setattr(runner, "_DEFAULT_SITE_AND_STORE", (site, store))

    def first_entry():
        testbed = runner.Testbed(LAN, APACHE, mode.transport)
        caches = []
        testbed.fetch_page(mode.transport, config, REVALIDATE,
                           attach=lambda robot: caches.append(robot.cache))
        return caches[0].get(site.html_url)

    with mock.patch.object(runner, "prefill_cache",
                           wraps=prefill_cache) as prefilled:
        before = first_entry()
        assert first_entry() is before          # shared, not rebuilt
        assert prefilled.call_count == 1
        new_body = site.html.body + b"<!-- edited -->"
        store.update(site.html_url, new_body)
        after = first_entry()
        assert prefilled.call_count == 2
    assert after.body == new_body
    assert after.etag != before.etag


def test_fetch_page_prefills_every_page_alike_without_sharing_updates():
    mode = resolve_mode("pipelined")
    testbed = runner.Testbed(LAN, APACHE, mode.transport)
    config = mode.client_config()
    reference = MemoryCache()
    prefill_cache(reference, testbed.store, testbed.site, testbed.profile)
    assert reference.updates == 43

    caches = []
    testbed.fetch_page(mode.transport, config, REVALIDATE,
                       attach=lambda robot: caches.append(robot.cache))
    first = caches[0]
    assert first.updates == 43
    # A page that stores a fresh 200 replaces its own entry only.
    url = testbed.site.html_url
    first.handle_response(url, Response(
        200, headers=Headers([("ETag", '"changed"')]), body=b"changed"))
    assert first.get(url).body == b"changed"

    testbed.fetch_page(mode.transport, config, REVALIDATE,
                       attach=lambda robot: caches.append(robot.cache))
    second = caches[1]
    assert second is not first
    assert second.updates == 43
    assert list(second.urls()) == list(reference.urls())
    for url in reference.urls():
        mine, theirs = second.get(url), reference.get(url)
        assert (mine.url, mine.body, mine.headers) == \
            (theirs.url, theirs.body, theirs.headers)
