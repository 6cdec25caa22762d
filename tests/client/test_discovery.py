"""Unit tests for the incremental HTML image scanner.

The scanner memoizes tokenizer steps on ``(state, unconsumed tail,
chunk)``.  The property at the bottom pins what makes that safe: per
feed, under any segmentation and any memo state, it returns exactly
what the memo-free scanner returns.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.client import IncrementalImageScanner, discovery
from repro.content import HtmlTokenizer

from ..http.test_parser_fuzz import slices


def test_finds_urls_in_single_chunk():
    scanner = IncrementalImageScanner()
    found = scanner.feed(b'<p>x</p><img src="/a.gif"><img src="/b.gif">')
    assert found == ["/a.gif", "/b.gif"]


def test_tag_split_across_chunks():
    scanner = IncrementalImageScanner()
    assert scanner.feed(b'<body><img sr') == []
    assert scanner.feed(b'c="/split.gif"> more text') == ["/split.gif"]


def test_url_split_across_chunks():
    scanner = IncrementalImageScanner()
    assert scanner.feed(b'<img src="/very/long/pa') == []
    assert scanner.feed(b'th/image.gif">') == ["/very/long/path/image.gif"]


def test_duplicates_suppressed_across_chunks():
    scanner = IncrementalImageScanner()
    assert scanner.feed(b'<img src="/a.gif">') == ["/a.gif"]
    assert scanner.feed(b'<img src="/a.gif"><img src="/b.gif">') == \
        ["/b.gif"]
    assert len(scanner._seen) == 2


def test_byte_for_byte_feed_finds_everything():
    html = b''.join(f'<img src="/i{n}.gif">'.encode() for n in range(10))
    scanner = IncrementalImageScanner()
    found = []
    for i in range(len(html)):
        found.extend(scanner.feed(html[i:i + 1]))
    assert found == [f"/i{n}.gif" for n in range(10)]


def test_bytes_seen_counter():
    scanner = IncrementalImageScanner()
    scanner.feed(b"0123456789")
    scanner.feed(b"01234")
    assert scanner.bytes_seen == 15


def test_microscape_page_discovers_all_42():
    from repro.content import build_microscape_site
    site = build_microscape_site()
    scanner = IncrementalImageScanner()
    found = []
    body = site.html.body
    for offset in range(0, len(body), 1460):   # MSS-sized chunks
        found.extend(scanner.feed(body[offset:offset + 1460]))
    assert len(found) == 42


# ----------------------------------------------------------------------
# The step memo never changes a scan
# ----------------------------------------------------------------------
class ReferenceScanner:
    """The pre-memo scanner, kept verbatim as the oracle: the token
    loop over a tokenizer no memo ever restores."""

    def __init__(self):
        self._tokenizer = HtmlTokenizer()
        self._seen = set()

    def feed(self, chunk):
        fresh = []
        for token in self._tokenizer.feed(
                chunk.decode("latin-1", errors="replace")):
            if token.kind != "start" or token.data != "img":
                continue
            url = token.get("src")
            if url and url not in self._seen:
                self._seen.add(url)
                fresh.append(url)
        return fresh


def reference_scan(pieces):
    scanner = ReferenceScanner()
    return [scanner.feed(piece) for piece in pieces]


def memoized_scan(pieces, clear_before=None):
    scanner = IncrementalImageScanner()
    found = []
    for index, piece in enumerate(pieces):
        if index == clear_before:
            discovery._STEPS.clear()
        found.append(scanner.feed(piece))
    assert scanner.bytes_seen == sum(len(piece) for piece in pieces)
    assert len(scanner._seen) == len({u for step in found for u in step})
    return found


#: A small URL pool, so documents repeat URLs (duplicate suppression)
#: and different documents share steps (memo hits across examples).
_URLS = ["/a.gif", "/b.gif", "/gifs/long/path/c.gif", "/a.gif?x=1"]
_url = st.sampled_from(_URLS)
_FRAGMENTS = st.one_of(
    st.sampled_from([
        "text ", "a < b", "1 <! 2", "<!-", "<!doctype html>", "<p>",
        "</p>", "<br/>", "<IMG>", "<img alt=src>", "<a href='/x.gif'>",
        "<!---->", "<!-- <img src=\"/commented.gif\"> -->", "\n", ">"]),
    _url.map(lambda u: f'<img src="{u}">'),
    _url.map(lambda u: f"<img src='{u}'>"),
    _url.map(lambda u: f"<IMG SRC={u}>"),
    _url.map(lambda u: f'<img\n alt="" src = "{u}" width=1>'),
    # A ">" inside a quoted value ends the tag early, for both scanners.
    _url.map(lambda u: f'<img alt="x>y" src="{u}">'),
    _url.map(lambda u: f'<img src="{u}" alt="a>b">'),
    _url.map(lambda u: f'<!-- x --><img src="{u}"><!-- y -->'))
_documents = st.lists(_FRAGMENTS, max_size=12).map(
    lambda parts: "".join(parts).encode("latin-1"))


@settings(max_examples=200, deadline=None)
@given(_documents, st.data())
def test_scan_is_independent_of_memo_state_and_segmentation(body, data):
    cuts = data.draw(st.lists(st.integers(0, len(body)), max_size=8))
    # Chunk ends that leave the tokenizer short of lookahead.
    for lead in (b"<", b"<!", b"<!-"):
        at = body.find(lead)
        if at != -1 and data.draw(st.booleans()):
            cuts.append(at + len(lead))
    for pieces in (slices(body, cuts),                          # random
                   [body[i:i + 1] for i in range(len(body))],   # bytewise
                   [body]):                                     # one shot
        expected = reference_scan(pieces)
        clear_at = data.draw(st.integers(0, max(0, len(pieces) - 1)))
        discovery._STEPS.clear()
        assert memoized_scan(pieces) == expected                # cold
        assert memoized_scan(pieces) == expected                # warm
        assert memoized_scan(pieces, clear_at) == expected      # cleared
        discovery._STEPS.clear()
        with mock.patch.object(discovery._STEPS, "bound", 1):
            assert memoized_scan(pieces) == expected            # capped
            assert len(discovery._STEPS) <= 1
    # Every segmentation finds the same URLs in the same order.
    assert [u for step in expected for u in step] == \
        [u for step in reference_scan(slices(body, cuts)) for u in step]


def test_same_chunk_after_different_tails_is_a_different_step():
    discovery._STEPS.clear()
    for _ in range(2):                      # second round: warm memo
        for name in ("one", "two"):
            scanner = IncrementalImageScanner()
            assert scanner.feed(f'<img src="/{name}'.encode()) == []
            assert scanner.feed(b'.gif">') == [f"/{name}.gif"]


def test_documents_sharing_a_prefix_do_not_cross_contaminate():
    prefix = b'<p>intro</p><img src="/first.gif"><img src="/se'
    endings = {b'cond.gif"><img src="/third.gif">':
               ["/second.gif", "/third.gif"],
               b'lf.gif" alt="a>b"><img src="/first.gif">': ["/self.gif"]}
    discovery._STEPS.clear()
    for _ in range(2):
        for ending, found in endings.items():
            scanner = IncrementalImageScanner()
            assert scanner.feed(prefix) == ["/first.gif"]
            assert scanner.feed(ending) == found
    # prefix step + one step per ending, each stored once.
    assert len(discovery._STEPS) == 3


def test_a_repeated_document_is_tokenized_once():
    body = b'<img src="/a.gif"><!-- <img src="/no.gif"> --><img src="/b.gif">'
    discovery._STEPS.clear()
    assert IncrementalImageScanner().feed(body) == ["/a.gif", "/b.gif"]
    with mock.patch.object(HtmlTokenizer, "feed",
                           side_effect=AssertionError("re-tokenized")):
        assert IncrementalImageScanner().feed(body) == ["/a.gif", "/b.gif"]
