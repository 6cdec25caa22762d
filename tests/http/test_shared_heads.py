"""Parsed heads are shared until edited; framing reads the segment itself.

A parsed message's ``Headers`` hold the head memo's frozen tuples, and
so does every ``copy()``; the first edit copies them into lists the
collection owns.  These tests pin that the sharing is real and that no
edit reaches anything else; that the parser's bytes fast path for the
server's ``Date: `` line cuts exactly as the leading-``Date`` rule
does; and the framing cases an offset scan of each segment must get
right.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.http import (Headers, ParseError, RequestParser, Response,
                        ResponseParser)
from repro.http import parser as parser_mod
from repro.http.parser import MAX_HEADER_BLOCK, _cut_date, _cut_date_by_rule

_REQUEST = (b"GET /a HTTP/1.1\r\nHost: h\r\nAccept: */*\r\n"
            b"Connection: keep-alive\r\n\r\n")
_RESPONSE = (b"HTTP/1.1 304 Not Modified\r\n"
             b"Date: Tue, 24 Jun 1997 09:00:00 GMT\r\n"
             b"ETag: \"a\"\r\nServer: s\r\n\r\n")


def _parse(kind):
    if kind == "request":
        return RequestParser().feed(_REQUEST)[0]
    return ResponseParser().feed(_RESPONSE)[0]


def _memo_entry(kind):
    if kind == "request":
        return parser_mod._REQUEST_HEADS[_REQUEST[:-4]]
    return parser_mod._RESPONSE_HEADS[_cut_date(_RESPONSE[:-4])[0]]


_EDITS = {
    "add": lambda h: h.add("X-New", "v"),
    "set": lambda h: h.set("ETag", "\"b\""),
    "set-new": lambda h: h.set("X-New", "v"),
    "remove": lambda h: h.remove("Host") + h.remove("ETag"),
    "remove-absent": lambda h: h.remove("X-None"),
}


@pytest.mark.parametrize("kind", ["request", "response"])
@pytest.mark.parametrize("edit", sorted(_EDITS))
def test_an_edit_of_a_shared_head_reaches_nothing_else(kind, edit):
    first = _parse(kind)
    entry = _memo_entry(kind)
    fields, lowered = entry.fields, entry.lowered
    pristine = first.headers.items()
    # Shared until edited: a request's parse hands the memo's tuple
    # itself over (a response's carries its own Date first), and a copy
    # shares the parse's.
    if kind == "request":
        assert first.headers._items is fields
    earlier_copy = first.headers.copy()
    assert earlier_copy._items is first.headers._items
    second = _parse(kind)
    _EDITS[edit](first.headers)
    later_copy = first.headers.copy()
    _EDITS[edit](earlier_copy)
    _EDITS[edit](later_copy)
    entry_after = _memo_entry(kind)
    assert entry_after.fields is fields and entry_after.lowered is lowered
    assert type(fields) is tuple and type(lowered) is tuple
    assert second.headers.items() == pristine
    assert _parse(kind).headers.items() == pristine
    # Each edited collection holds exactly what it was edited to (the
    # later copy was taken after the first edit, then edited itself).
    reference = Headers(pristine)
    _EDITS[edit](reference)
    for edited in (first.headers, earlier_copy):
        assert edited.items() == reference.items()
    _EDITS[edit](reference)
    assert later_copy == reference


def test_shared_and_owned_fields_compare_by_content():
    parsed = _parse("response").headers
    owned = Headers(parsed.items())
    assert type(parsed._items) is tuple and type(owned._items) is list
    assert parsed == owned and owned == parsed
    assert parsed.copy() == owned
    owned.add("X-New", "v")
    assert parsed != owned
    owned.remove("X-New")
    assert parsed == owned
    assert Headers() == Headers._from_parts((), ())
    assert Headers([("A", "1")]) != Headers._from_parts(
        (("A", "2"),), ("a",))


def test_a_copy_of_owned_fields_is_frozen_and_independent():
    owned = Headers([("Host", "h")])
    frozen = owned.copy()
    assert type(frozen._items) is tuple
    owned.add("X", "1")
    frozen.add("Y", "2")
    assert owned.items() == [("Host", "h"), ("X", "1")]
    assert frozen.items() == [("Host", "h"), ("Y", "2")]
    assert frozen.get("y") == "2" and "x" not in frozen


# ----------------------------------------------------------------------
# the Date fast path cuts as the rule does
# ----------------------------------------------------------------------
_STATUS = st.sampled_from(["HTTP/1.1 304 Not Modified", "HTTP/1.0 200 OK",
                           "", "HTTP/1.1 200"])
_NAMES = st.sampled_from(["Date", "Date ", "date", "DATE", " Date",
                          "\tDate", "Dat", "Date\t", "ETag", ""])
_SEPARATORS = st.sampled_from([":", ": ", ":\t ", ":  ", " :", ""])
_VALUES = st.text(st.sampled_from(list("ab 0:,\t\r\n\x85\xa0")),
                  max_size=8)
_RESTS = st.lists(st.sampled_from(["ETag: \"a\"", "Server: s",
                                   "Content-Length: 0", "x", ""]),
                  max_size=3)


def _block(status, name, separator, value, rest, crlf_after):
    first = name + separator + value
    lines = [status, first, *rest] if crlf_after else [status + "\r\n"
                                                       + first]
    return "\r\n".join(lines).encode("latin-1")


@settings(max_examples=400, deadline=None)
@given(_STATUS, _NAMES, _SEPARATORS, _VALUES, _RESTS, st.booleans())
@example("HTTP/1.1 200 OK", "Date", ":", "x", [], True)
@example("HTTP/1.1 200 OK", "Date ", ":", "x", ["ETag: \"a\""], True)
@example("HTTP/1.1 200 OK", "Date", ":\t ", "x", [], True)
@example("HTTP/1.1 200 OK", "date", ":", "x", [], True)
@example("HTTP/1.1 200 OK", "DATE", ":", "x", [], True)
@example("HTTP/1.1 200 OK", "Date", ": ", "", ["Server: s"], True)
@example("HTTP/1.1 200 OK", "Date", ": ", "x\ry", ["Server: s"], True)
@example("HTTP/1.1 200 OK", "Date", ": ", "x\ny", ["Server: s"], True)
@example("HTTP/1.1 200 OK", "Date", ": ", "\xa0x\x85", [], True)
@example("HTTP/1.1 200 OK", "Date", ": ", "x", [], False)
def test_the_date_fast_path_cuts_as_the_rule_does(status, name, separator,
                                                  value, rest, crlf_after):
    block = _block(status, name, separator, value, rest, crlf_after)
    assert _cut_date(block) == _cut_date_by_rule(block)


def test_the_servers_date_line_takes_the_fast_path(monkeypatch):
    def refuse(block):
        raise AssertionError("the rule ran")
    monkeypatch.setattr(parser_mod, "_cut_date_by_rule", refuse)
    key, date = _cut_date(_RESPONSE[:-4])
    assert date == "Tue, 24 Jun 1997 09:00:00 GMT"
    assert key == b"HTTP/1.1 304 Not Modified\r\nETag: \"a\"\r\nServer: s"


# ----------------------------------------------------------------------
# framing from the segment's own bytes
# ----------------------------------------------------------------------
def _response(body):
    return (b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body)
            + body)


def _runs_parser():
    parser = ResponseParser()
    runs = []
    parser.on_body_chunk = lambda message, chunk: runs.append(chunk)
    return parser, runs


def test_a_segment_ends_one_body_and_starts_the_next_head():
    first, second = b"a" * 10, b"b" * 7
    wire = _response(first) + _response(second)
    end_first = len(_response(first))
    parser, runs = _runs_parser()
    parser.expect("GET")
    parser.expect("GET")
    head = end_first - len(first)
    segments = [wire[:head + 4], wire[head + 4:end_first + 5],
                wire[end_first + 5:]]
    done = [parser.feed(segment) for segment in segments]
    assert [len(messages) for messages in done] == [0, 1, 1]
    assert done[1][0].body == first and done[2][0].body == second
    assert runs == [first[:4], first[4:], second]


def test_a_body_run_that_is_a_whole_segment_is_that_segment():
    body = bytes(range(256)) * 8
    parser, runs = _runs_parser()
    parser.expect("GET")
    head = _response(body)[:-len(body)]
    middle = body[100:1100]
    parser.feed(head + body[:100])
    parser.feed(middle)
    [response] = parser.feed(body[1100:])
    assert runs[1] is middle
    assert response.body == body
    # One run is the body itself.
    parser.expect("GET")
    parser.feed(head)
    whole = bytes(body)
    [response] = parser.feed(whole)
    assert response.body is whole


def test_a_head_split_across_three_feeds():
    parser = RequestParser()
    wire = _REQUEST + b"\r\n" + _REQUEST
    cuts = [7, len(_REQUEST) - 2, len(_REQUEST) + 3]
    pieces = [wire[:cuts[0]], wire[cuts[0]:cuts[1]], wire[cuts[1]:cuts[2]],
              wire[cuts[2]:]]
    done = [parser.feed(piece) for piece in pieces]
    assert [len(messages) for messages in done] == [0, 0, 1, 1]
    assert done[2][0].head == _REQUEST[:-4] == done[3][0].head
    assert parser._buffer == b""


def test_a_carried_partial_head_over_the_bound_raises():
    parser = RequestParser()
    line = b"X-Long: " + b"v" * (MAX_HEADER_BLOCK - 100) + b"\r\n"
    assert parser.feed(b"GET / HTTP/1.1\r\n") == []
    assert parser.feed(line) == []
    with pytest.raises(ParseError, match="header block too large"):
        parser.feed(b"Y: " + b"w" * 200)


def test_a_whole_head_at_the_bound_still_parses():
    fill = MAX_HEADER_BLOCK - len(b"GET / HTTP/1.1\r\nX: ")
    wire = b"GET / HTTP/1.1\r\nX: " + b"v" * fill + b"\r\n\r\n"
    parser = RequestParser()
    assert parser.feed(wire[:MAX_HEADER_BLOCK]) == []
    [request] = parser.feed(wire[MAX_HEADER_BLOCK:])
    assert len(request.headers.get("X")) == fill
    assert isinstance(request.headers, Headers)
    assert not isinstance(request, Response)
