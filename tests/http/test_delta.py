"""Tests for delta-encoded responses (reference [26] / RFC 3229 style)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.content import build_microscape_site
from repro.http import HTTP11, Headers, Request
from repro.http.delta import (DELTA_IM_TOKEN, apply_delta, encode_delta,
                              wants_delta)
from repro.server import APACHE, ResourceStore
from repro.server.static import build_response


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
def test_delta_roundtrip():
    old = b"<html><body>version one of the page</body></html>"
    new = b"<html><body>version two of the page!</body></html>"
    delta = encode_delta(old, new)
    assert apply_delta(old, delta) == new
    assert len(delta) < len(new)


def test_small_edit_gives_tiny_delta():
    old = build_microscape_site().html.body
    new = old.replace(b"Section 1", b"Section A", 1)
    delta = encode_delta(old, new)
    assert apply_delta(old, delta) == new
    assert len(delta) < len(new) / 50      # a few dozen bytes vs 43 KB


@settings(max_examples=40)
@given(st.binary(max_size=500), st.binary(max_size=500))
def test_delta_roundtrip_property(old, new):
    assert apply_delta(old, encode_delta(old, new)) == new


def test_wants_delta():
    assert wants_delta(Headers([("A-IM", DELTA_IM_TOKEN)]))
    assert not wants_delta(Headers([("A-IM", "gzip")]))
    assert not wants_delta(Headers())


# ----------------------------------------------------------------------
# Server negotiation
# ----------------------------------------------------------------------
@pytest.fixture()
def store():
    return ResourceStore.from_site(build_microscape_site())


def delta_request(url, etag):
    return Request("GET", url, HTTP11, Headers([
        ("Host", "h"), ("If-None-Match", etag),
        ("A-IM", DELTA_IM_TOKEN)]))


def test_unchanged_resource_still_304(store):
    etag = store.get("/home.html").etag
    response = build_response(store, delta_request("/home.html", etag),
                              APACHE)
    assert response.status == 304


def test_changed_resource_served_as_delta(store):
    old = store.get("/home.html")
    new_body = old.body.replace(b"Section 1", b"Section A", 1)
    store.update("/home.html", new_body)
    response = build_response(store,
                              delta_request("/home.html", old.etag),
                              APACHE)
    assert response.status == 226
    assert response.headers.get("IM") == DELTA_IM_TOKEN
    assert response.headers.get("Delta-Base") == old.etag
    assert len(response.body) < len(new_body) / 50
    assert apply_delta(old.body, response.body) == new_body
    # The response carries the *new* validator for the cache update.
    assert response.headers.get("ETag") == store.get("/home.html").etag


def test_unknown_base_falls_back_to_full_200(store):
    store.update("/home.html",
                 store.get("/home.html").body + b"<p>more</p>")
    response = build_response(store,
                              delta_request("/home.html", '"stranger"'),
                              APACHE)
    assert response.status == 200
    assert response.body == store.get("/home.html").body


def test_client_without_aim_gets_full_200(store):
    old = store.get("/home.html")
    store.update("/home.html", old.body + b"<p>more</p>")
    response = build_response(
        store, Request("GET", "/home.html", HTTP11,
                       Headers([("Host", "h"),
                                ("If-None-Match", old.etag)])), APACHE)
    assert response.status == 200


def test_version_history_is_bounded(store):
    url = "/gifs/bullet0.gif"
    for index in range(8):
        store.update(url, b"version %d" % index)
    resource = store.get(url)
    assert len(resource.previous_versions) <= resource.MAX_RETAINED

