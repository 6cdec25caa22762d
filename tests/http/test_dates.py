"""Unit tests for HTTP date handling."""

from repro.http import PAPER_EPOCH, format_http_date, parse_http_date


def test_paper_epoch_renders_correctly():
    assert format_http_date(PAPER_EPOCH) == "Tue, 24 Jun 1997 00:00:00 GMT"


def test_roundtrip():
    stamp = PAPER_EPOCH + 12345.0
    assert parse_http_date(format_http_date(stamp)) == stamp


def test_parse_rfc850_form():
    # Only RFC 1123 is read: the legacy RFC 850 form is not a date.
    assert parse_http_date("Tuesday, 24-Jun-97 00:00:00 GMT") is None


def test_parse_asctime_form():
    # Only RFC 1123 is read: the legacy asctime form is not a date.
    assert parse_http_date("Tue Jun 24 00:00:00 1997") is None


def test_unparseable_returns_none():
    assert parse_http_date("not a date") is None
    assert parse_http_date("") is None
