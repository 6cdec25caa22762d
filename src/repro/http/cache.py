"""Client-side HTTP caching with validators.

The revalidation test — the paper's "common operation in the Web,
revisiting a page cached locally" — depends on this machinery:

* HTTP/1.1 supports two validators: **entity tags** (guaranteed-unique
  opaque tags, sent back in ``If-None-Match``) and **date stamps**
  (``Last-Modified`` / ``If-Modified-Since``).  HTTP/1.0 only has dates.
* The HTTP/1.1 robot issues 43 Conditional GETs and receives 304s.
* The paper's libwww persistent cache stored each object as *two files*
  (headers and body), which became a measurable bottleneck; the final
  runs used a memory filesystem.  :class:`MemoryCache` is that final
  configuration.  The two-file overhead is modelled where it can act
  on simulated time: as ``per_response_cpu=0.065`` in
  :func:`repro.core.modes.initial_tuning_client_config` (Table 3).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from .dates import parse_http_date
from .headers import Headers
from .messages import Response

__all__ = ["CacheEntry", "MemoryCache", "is_not_modified"]


#: A Conditional GET's validator fields (empty: no usable validator).
Validators = Tuple[Tuple[str, str], ...]


class CacheEntry:
    """One cached object with its validators.

    An entry is immutable (see :meth:`MemoryCache.adopt`), so its
    validators are read from ``headers`` once, here.
    """

    __slots__ = ("url", "body", "headers", "etag", "last_modified",
                 "_by_etag", "_by_date", "_by_any_date")

    def __init__(self, url: str, body: bytes, headers: Headers) -> None:
        self.url = url
        self.body = body
        self.headers = headers
        #: The stored entity tag and Last-Modified date, if sent.
        self.etag: Optional[str] = headers.get("ETag")
        self.last_modified: Optional[str] = headers.get("Last-Modified")
        date = headers.get("Date")
        self._by_etag: Validators = (
            (("If-None-Match", self.etag),) if self.etag else ())
        self._by_date: Validators = (
            (("If-Modified-Since", self.last_modified),)
            if self.last_modified else ())
        self._by_any_date: Validators = self._by_date or (
            (("If-Modified-Since", date),) if date else ())


class MemoryCache:
    """An in-memory client cache keyed by request URL.

    This models the paper's final configuration ("a persistent cache on
    a memory file system").
    """

    def __init__(self) -> None:
        self._entries: Dict[str, CacheEntry] = {}
        #: Counters for test assertions.
        self.hits = 0
        self.validations = 0
        self.updates = 0

    # ------------------------------------------------------------------
    # Store / fetch
    # ------------------------------------------------------------------
    def store(self, url: str, response: Response) -> Optional[CacheEntry]:
        """Cache a successful response; returns the entry (or None)."""
        if response.status != 200:
            return None
        entry = CacheEntry(url, response.body, response.headers.copy())
        self._entries[url] = entry
        self.updates += 1
        return entry

    def adopt(self, other: "MemoryCache") -> None:
        """Store every entry of ``other``, sharing the entry objects.

        Safe because nothing mutates a :class:`CacheEntry` after
        creation (:meth:`handle_response` *replaces* one), so a
        population of per-page caches can start from one prebuilt
        prefill instead of 43 fresh copies each.
        """
        self._entries.update(other._entries)
        self.updates += len(other._entries)

    def get(self, url: str) -> Optional[CacheEntry]:
        """Look up a cached entry."""
        entry = self._entries.get(url)
        if entry is not None:
            self.hits += 1
        return entry

    def __contains__(self, url: str) -> bool:
        return url in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def urls(self) -> Iterator[str]:
        """All cached URLs."""
        return iter(list(self._entries))

    def clear(self) -> None:
        """Drop every entry (the 'first visit' precondition)."""
        self._entries.clear()

    # ------------------------------------------------------------------
    # Validation protocol
    # ------------------------------------------------------------------
    def conditional_headers(self, url: str, http11: bool = True,
                            date_fallback: bool = False) -> Validators:
        """Validator headers for a Conditional GET of ``url``.

        HTTP/1.1 prefers the entity tag (``If-None-Match``); HTTP/1.0
        can only use ``If-Modified-Since``.  ``date_fallback`` uses the
        stored response ``Date`` when no ``Last-Modified`` was sent — a
        heuristic 1990s browsers (Navigator among them) applied so they
        could still validate against servers that omitted file dates.
        """
        entry = self._entries.get(url)
        if entry is None:
            return ()
        if http11 and entry._by_etag:
            return entry._by_etag
        return entry._by_any_date if date_fallback else entry._by_date

    def handle_response(self, url: str, response: Response) -> bytes:
        """Reconcile a validation response with the cache.

        304 ⇒ the cached body is current (returns it); 200 ⇒ replaces
        the entry.  Other statuses leave the cache untouched.
        """
        if response.status == 304:
            self.validations += 1
            entry = self._entries.get(url)
            if entry is None:
                raise KeyError(f"304 for uncached url {url}")
            return entry.body
        if response.status == 200:
            self.store(url, response)
            return response.body
        return response.body


def is_not_modified(entry_etag: Optional[str],
                    entry_date: Optional[str],
                    if_none_match: Optional[str],
                    if_modified_since: Optional[str]) -> bool:
    """Server-side validation check (RFC 2068 §14.25 / §14.26).

    Entity tags take precedence over dates when both are present.
    """
    if if_none_match is not None:
        if if_none_match.strip() == "*":
            return True
        candidates = [tag.strip() for tag in if_none_match.split(",")]
        return entry_etag is not None and entry_etag in candidates
    if if_modified_since is not None and entry_date is not None:
        since = parse_http_date(if_modified_since)
        modified = parse_http_date(entry_date)
        if since is not None and modified is not None:
            return modified <= since
    return False
