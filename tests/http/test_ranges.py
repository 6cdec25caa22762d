"""Unit tests for byte ranges and If-Range."""

import pytest
from hypothesis import given, strategies as st

from repro.http import (ByteRange, Headers, apply_range, content_range,
                        if_range_matches, parse_range_header)


def test_simple_range():
    byte_range = parse_range_header("bytes=0-99", 1000)
    assert byte_range == ByteRange(0, 99)
    assert byte_range.length == 100


def test_open_ended_range():
    assert parse_range_header("bytes=500-", 600) == ByteRange(500, 599)


def test_end_clamped_to_entity():
    assert parse_range_header("bytes=0-9999", 50) == ByteRange(0, 49)


def test_unsatisfiable_range():
    assert parse_range_header("bytes=500-600", 100).start >= 100
    assert parse_range_header("bytes=100-", 100).start >= 100


@pytest.mark.parametrize("value", [
    "lines=1-2", "bytes=abc", "bytes=-100", "bytes=0-9, 20-29",
    "bytes=0-9,20-29", "bytes=5-3", "bytes=+1-2", "bytes=1_0-20"])
def test_any_other_form_is_ignored(value):
    assert parse_range_header(value, 100) is None


def test_zero_suffix_ignored():
    assert parse_range_header("bytes=-0", 100) is None


def test_content_range_format():
    assert content_range(ByteRange(0, 99), 1000) == "bytes 0-99/1000"


def test_apply_range_sets_headers():
    headers = Headers()
    body = bytes(range(100))
    partial = apply_range(body, headers, ByteRange(10, 19))
    assert partial == bytes(range(10, 20))
    assert headers.get("Content-Range") == "bytes 10-19/100"
    assert headers.get("Content-Length") == "10"


def test_if_range_absent_allows_range():
    assert if_range_matches(None, '"v1"', None)


def test_if_range_etag():
    assert if_range_matches('"v1"', '"v1"', None)
    assert not if_range_matches('"v1"', '"v2"', None)
    assert not if_range_matches('"v1"', None, None)


def test_if_range_date():
    date = "Tue, 24 Jun 1997 00:00:00 GMT"
    assert if_range_matches(date, None, date)
    assert not if_range_matches(date, None, "Wed, 25 Jun 1997 00:00:00 GMT")


@given(st.binary(min_size=1, max_size=500), st.data())
def test_range_slice_property(body, data):
    start = data.draw(st.integers(0, len(body) - 1))
    end = data.draw(st.integers(start, len(body) - 1))
    byte_range = parse_range_header(f"bytes={start}-{end}", len(body))
    assert byte_range.slice(body) == body[start:end + 1]
