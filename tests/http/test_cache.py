"""Unit tests for client caching and server-side validation logic."""

import pytest

from repro.http import (Headers, MemoryCache, Response,
                        format_http_date, is_not_modified, PAPER_EPOCH)


def make_response(body=b"data", etag='"v1"', date=None):
    headers = Headers([("Content-Type", "image/gif"),
                       ("Content-Length", str(len(body)))])
    if etag:
        headers.add("ETag", etag)
    if date:
        headers.add("Last-Modified", date)
    return Response(200, headers=headers, body=body)


def test_store_and_get():
    cache = MemoryCache()
    cache.store("/a.gif", make_response())
    entry = cache.get("/a.gif")
    assert entry is not None
    assert entry.body == b"data"
    assert entry.etag == '"v1"'


def test_non_200_not_stored():
    cache = MemoryCache()
    assert cache.store("/x", Response(404)) is None
    assert "/x" not in cache


def test_conditional_headers_prefer_etag_for_http11():
    cache = MemoryCache()
    date = format_http_date(PAPER_EPOCH)
    cache.store("/a", make_response(etag='"v1"', date=date))
    headers = cache.conditional_headers("/a", http11=True)
    assert headers == (("If-None-Match", '"v1"'),)


def test_conditional_headers_fall_back_to_date():
    cache = MemoryCache()
    date = format_http_date(PAPER_EPOCH)
    cache.store("/a", make_response(etag=None, date=date))
    assert cache.conditional_headers("/a", http11=True) == (
        ("If-Modified-Since", date),)
    # HTTP/1.0 can only use the date even when an ETag exists.
    cache.store("/b", make_response(etag='"v1"', date=date))
    assert cache.conditional_headers("/b", http11=False) == (
        ("If-Modified-Since", date),)


def test_conditional_headers_empty_when_uncached():
    assert MemoryCache().conditional_headers("/nope") == ()


def test_304_returns_cached_body():
    cache = MemoryCache()
    cache.store("/a", make_response(body=b"cached bytes"))
    body = cache.handle_response("/a", Response(304))
    assert body == b"cached bytes"
    assert cache.validations == 1


def test_304_for_uncached_url_raises():
    with pytest.raises(KeyError):
        MemoryCache().handle_response("/nope", Response(304))


def test_200_replaces_entry():
    cache = MemoryCache()
    cache.store("/a", make_response(body=b"old"))
    cache.handle_response("/a", make_response(body=b"new", etag='"v2"'))
    assert cache.get("/a").body == b"new"
    assert cache.get("/a").etag == '"v2"'


def test_clear_empties_cache():
    cache = MemoryCache()
    cache.store("/a", make_response())
    cache.clear()
    assert len(cache) == 0


# ----------------------------------------------------------------------
# Server-side validation predicate
# ----------------------------------------------------------------------
def test_etag_match_means_not_modified():
    assert is_not_modified('"v1"', None, '"v1"', None)
    assert not is_not_modified('"v1"', None, '"v2"', None)


def test_etag_list_and_star():
    assert is_not_modified('"b"', None, '"a", "b"', None)
    assert is_not_modified('"anything"', None, "*", None)


def test_etag_takes_precedence_over_date():
    date = format_http_date(PAPER_EPOCH)
    # ETag mismatch: modified, even though the date would match.
    assert not is_not_modified('"v2"', date, '"v1"', date)


def test_date_comparison():
    earlier = format_http_date(PAPER_EPOCH)
    later = format_http_date(PAPER_EPOCH + 3600)
    assert is_not_modified(None, earlier, None, later)
    assert is_not_modified(None, earlier, None, earlier)
    assert not is_not_modified(None, later, None, earlier)


def test_no_validators_means_modified():
    assert not is_not_modified('"v1"', "whenever", None, None)
