"""Unit tests for the Headers multimap."""

import pytest

from repro.http import Headers


def test_case_insensitive_lookup():
    h = Headers([("Content-Type", "text/html")])
    assert h.get("content-type") == "text/html"
    assert h.get("CONTENT-TYPE") == "text/html"
    assert "cOnTeNt-TyPe" in h


def test_original_spelling_preserved_on_wire():
    h = Headers([("X-WeIrD", "v")])
    assert h.to_bytes() == b"X-WeIrD: v\r\n"


def test_add_keeps_duplicates_set_replaces():
    h = Headers()
    h.add("Accept", "a")
    h.add("Accept", "b")
    assert h.get_all("accept") == ["a", "b"]
    h.set("Accept", "c")
    assert h.get_all("accept") == ["c"]


def test_remove_returns_count():
    h = Headers([("A", "1"), ("a", "2"), ("B", "3")])
    assert h.remove("A") == 2
    assert "A" not in h
    assert h.get("B") == "3"


def test_get_default():
    assert Headers().get("Missing", "fallback") == "fallback"
    assert Headers().get("Missing") is None


def test_contains_token():
    h = Headers([("Connection", "Keep-Alive, Upgrade")])
    assert h.contains_token("Connection", "keep-alive")
    assert h.contains_token("connection", "upgrade")
    assert not h.contains_token("Connection", "close")


def test_from_lines_roundtrip():
    original = Headers([("Host", "www26.w3.org"), ("Accept", "*/*")])
    lines = original.to_bytes().decode("latin-1").split("\r\n")
    parsed = Headers.from_lines([ln for ln in lines if ln])
    assert parsed == original


def test_from_lines_folds_continuations():
    # No folding: a line led by SP or HT is malformed wherever it stands.
    for lines in (["X-Long: part one", "\tpart two"], [" Led: by space"]):
        with pytest.raises(ValueError):
            Headers.from_lines(lines)


def test_from_lines_rejects_garbage():
    with pytest.raises(ValueError):
        Headers.from_lines(["no colon here"])


def test_copy_is_independent():
    h = Headers([("A", "1")])
    copy = h.copy()
    copy.set("A", "2")
    assert h.get("A") == "1"
    # Either way: a copy is a snapshot of the original's fields.
    snapshot = h.copy()
    h.add("B", "2")
    assert snapshot.items() == [("A", "1")]


def test_len_and_iter():
    h = Headers([("A", "1"), ("B", "2")])
    assert len(h) == 2
    assert list(h) == [("A", "1"), ("B", "2")]


def test_collections_built_from_frozen_parts_edit_their_own_fields():
    items, lower = (("A", "1"), ("B", "2")), ("a", "b")
    first = Headers._from_parts(items, lower)
    second = Headers._from_parts(items, lower)
    assert first == second == Headers(items)
    first.add("C", "3")
    second.remove("A")
    assert items == (("A", "1"), ("B", "2")) and lower == ("a", "b")
    assert (first.items(), second.items()) == (
        [("A", "1"), ("B", "2"), ("C", "3")], [("B", "2")])
