"""Unit tests for resources and response construction."""

import pytest

from repro.content import build_microscape_site
from repro.http import (HTTP10, HTTP11, Headers, Request, deflate_decode)
from repro.server import APACHE, JIGSAW, Resource, ResourceStore
from repro.server.static import build_response


@pytest.fixture(scope="module")
def store():
    return ResourceStore.from_site(build_microscape_site())


def get(url, headers=None, method="GET", version=HTTP11):
    return Request(method, url, version, Headers(headers or []))


def test_store_holds_all_site_objects(store):
    assert len(store) == 43
    assert "/home.html" in store
    assert store.get("/home.html").content_type == "text/html"


def test_html_is_precompressed(store):
    resource = store.get("/home.html")
    assert resource.deflate_body is not None
    assert len(resource.deflate_body) < len(resource.body) / 2
    assert deflate_decode(resource.deflate_body) == resource.body


def test_images_not_precompressed(store):
    resource = store.get("/gifs/hero.gif")
    assert resource.deflate_body is None


def test_etag_is_stable_and_quoted(store):
    a = store.get("/home.html").etag
    fresh = ResourceStore.from_site(build_microscape_site())
    assert fresh.get("/home.html").etag == a
    assert a.startswith('"') and a.endswith('"')


def test_basic_200(store):
    response = build_response(store, get("/home.html"), APACHE)
    assert response.status == 200
    assert response.headers.get("Content-Type") == "text/html"
    assert int(response.headers.get("Content-Length")) == len(response.body)
    assert response.headers.get("ETag")
    assert response.headers.get("Last-Modified")


def test_404(store):
    response = build_response(store, get("/nope.gif"), APACHE)
    assert response.status == 404


def test_405(store):
    response = build_response(store, get("/home.html", method="POST"),
                              APACHE)
    assert response.status == 405


def test_head_omits_body_on_wire(store):
    response = build_response(store, get("/home.html", method="HEAD"),
                              APACHE)
    assert response.status == 200
    assert response.body_on_wire() == b""
    assert int(response.headers.get("Content-Length")) > 0


def test_304_on_matching_etag(store):
    etag = store.get("/home.html").etag
    response = build_response(
        store, get("/home.html", [("If-None-Match", etag)]), APACHE)
    assert response.status == 304


def test_200_on_stale_etag(store):
    response = build_response(
        store, get("/home.html", [("If-None-Match", '"stale"')]), APACHE)
    assert response.status == 200


def test_304_on_date(store):
    date = store.get("/home.html").last_modified
    response = build_response(
        store, get("/home.html", [("If-Modified-Since", date)]), APACHE)
    assert response.status == 304


def test_jigsaw_hides_last_modified_but_validates_dates(store):
    response = build_response(store, get("/home.html"), JIGSAW)
    assert "Last-Modified" not in response.headers
    date = store.get("/home.html").last_modified
    validation = build_response(
        store, get("/home.html", [("If-Modified-Since", date)]), JIGSAW)
    assert validation.status == 304


def test_jigsaw_verbose_304(store):
    etag = store.get("/home.html").etag
    response = build_response(
        store, get("/home.html", [("If-None-Match", etag)]), JIGSAW)
    assert response.status == 304
    assert response.headers.get("Content-Type") == "text/html"
    assert response.to_bytes().endswith(b"\r\n\r\n")   # still bodyless


def test_deflate_negotiation(store):
    response = build_response(
        store, get("/home.html", [("Accept-Encoding", "deflate")]),
        APACHE)
    assert response.headers.get("Content-Encoding") == "deflate"
    assert deflate_decode(response.body) == store.get("/home.html").body


def test_no_deflate_without_accept(store):
    response = build_response(store, get("/home.html"), APACHE)
    assert "Content-Encoding" not in response.headers


def test_gifs_never_deflated(store):
    response = build_response(
        store, get("/gifs/hero.gif", [("Accept-Encoding", "deflate")]),
        APACHE)
    assert "Content-Encoding" not in response.headers


def test_range_request(store):
    response = build_response(
        store, get("/gifs/hero.gif", [("Range", "bytes=0-99")]), APACHE)
    assert response.status == 206
    assert len(response.body) == 100
    assert response.body == store.get("/gifs/hero.gif").body[:100]
    assert response.headers.get("Content-Range").startswith("bytes 0-99/")


def test_unsatisfiable_range(store):
    size = len(store.get("/gifs/bullet0.gif").body)
    response = build_response(
        store, get("/gifs/bullet0.gif",
                   [("Range", f"bytes={size + 10}-{size + 20}")]), APACHE)
    assert response.status == 416


def test_a_reversed_range_is_ignored_not_refused(store):
    """RFC 2068 §14.36.1: a spec whose last byte is below its first is
    invalid, and its recipient must ignore it — a full 200, not 416."""
    response = build_response(
        store, get("/gifs/hero.gif", [("Range", "bytes=5-3")]), APACHE)
    assert response.status == 200
    assert response.body == store.get("/gifs/hero.gif").body


def test_if_range_mismatch_serves_full_entity(store):
    response = build_response(
        store, get("/gifs/hero.gif", [("Range", "bytes=0-99"),
                                      ("If-Range", '"stale"')]), APACHE)
    assert response.status == 200
    assert len(response.body) == len(store.get("/gifs/hero.gif").body)


def test_http10_request_gets_http10_response(store):
    response = build_response(store, get("/home.html", version=HTTP10),
                              APACHE)
    assert response.version == HTTP10


def test_validation_combined_with_range_poor_mans_multiplexing(store):
    """The paper's idiom: If-None-Match + If-Range + Range in one
    request — 304 when unchanged, 206 of the prefix when changed."""
    resource = store.get("/gifs/hero.gif")
    unchanged = build_response(
        store, get("/gifs/hero.gif", [("If-None-Match", resource.etag),
                                      ("If-Range", resource.etag),
                                      ("Range", "bytes=0-511")]), APACHE)
    assert unchanged.status == 304
    changed = build_response(
        store, get("/gifs/hero.gif", [("If-None-Match", '"old"'),
                                      ("If-Range", resource.etag),
                                      ("Range", "bytes=0-511")]), APACHE)
    assert changed.status == 206
    assert len(changed.body) == 512
