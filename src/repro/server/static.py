"""Static resources with validators, ranges and precompressed variants.

The server side of the paper's content handling:

* every resource carries an **entity tag** (and usually a
  ``Last-Modified`` date) so both HTTP/1.1 and HTTP/1.0 validation work,
* HTML resources keep a **precomputed deflated body** — the paper's
  server "does not perform on-the-fly compression but sends out a
  pre-computed deflated version of the Microscape HTML page",
* a single byte range with ``If-Range`` is honoured (the paper's "poor
  man's multiplexing" idiom); any other ``Range`` is ignored.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import (Any, Callable, Dict, Hashable, Iterable, Optional,
                    Tuple)

from ..content import artifacts
from ..content.microscape import MicroscapeSite
from ..http import (HTTP10, HTTP11, Headers, PAPER_EPOCH, Request,
                    Response, deflate_encode, format_http_date,
                    if_range_matches, is_not_modified, parse_range_header,
                    apply_range, accepted_codings)
from ..http.delta import DELTA_IM_TOKEN, encode_delta, wants_delta
from .profiles import ServerProfile

__all__ = ["Resource", "ResourceStore", "build_response"]


def _make_etag(body: bytes) -> str:
    digest = hashlib.md5(body).hexdigest()[:8]
    return f'"{digest}"'


@dataclasses.dataclass
class Resource:
    """One servable object with its validators."""

    url: str
    content_type: str
    body: bytes
    etag: str
    last_modified: str
    #: Precomputed deflate variant (None when not worth serving).
    deflate_body: Optional[bytes] = None
    #: Retained older instances keyed by entity tag, enabling
    #: delta-encoded responses (paper reference [26] / RFC 3229).
    previous_versions: Dict[str, bytes] = dataclasses.field(
        default_factory=dict)

    #: How many superseded instances to retain for delta encoding.
    MAX_RETAINED = 4

    @classmethod
    def create(cls, url: str, content_type: str, body: bytes) -> "Resource":
        deflated = None
        if content_type.startswith("text/"):
            # Precompression is content-addressed: the deflated variant
            # of the 42 KB Microscape page is built once per cache
            # lifetime, not once per worker process.
            candidate = artifacts.get_store().memoize(
                "deflate.text", {"sha256": hashlib.sha256(body).hexdigest()},
                0, lambda: deflate_encode(body))
            if len(candidate) < len(body):
                deflated = candidate
        return cls(url=url, content_type=content_type, body=body,
                   etag=_make_etag(body),
                   last_modified=format_http_date(PAPER_EPOCH),
                   deflate_body=deflated)

    def superseded_by(self, new_body: bytes) -> "Resource":
        """A new version of this resource that remembers this one."""
        updated = Resource.create(self.url, self.content_type, new_body)
        history = dict(self.previous_versions)
        history[self.etag] = self.body
        while len(history) > self.MAX_RETAINED:
            history.pop(next(iter(history)))
        updated.previous_versions = history
        return updated


class ResourceStore:
    """URL → :class:`Resource` lookup for a server."""

    def __init__(self, resources: Iterable[Resource] = ()) -> None:
        self._resources: Dict[str, Resource] = {
            resource.url: resource for resource in resources}
        #: What :meth:`derived` has built from the current content, and
        #: how many times :meth:`add` / :meth:`update` changed it (a
        #: caller that keeps a derived value compares this first).
        self._derived: Dict[Hashable, Any] = {}
        self.changes = 0

    @classmethod
    def from_site(cls, site: MicroscapeSite) -> "ResourceStore":
        """Build the store from a Microscape site."""
        return cls(Resource.create(obj.url, obj.content_type, obj.body)
                   for obj in site.objects.values())

    def derived(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """``build()``, kept for as long as the content stays as it is.

        The home of whatever is a function of the content and ``key``
        alone (a profile's response-head templates, its revalidation
        prefill), built once per store, not per server or testbed;
        :meth:`add` / :meth:`update` are the one point of invalidation.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build()
            return value

    def add(self, resource: Resource) -> None:
        self._resources[resource.url] = resource
        self._derived.clear()
        self.changes += 1

    def update(self, url: str, new_body: bytes) -> Resource:
        """Replace a resource's content, retaining the old instance so
        delta-capable clients can fetch just the difference."""
        current = self._resources.get(url)
        if current is None:
            raise KeyError(f"no resource at {url}")
        updated = current.superseded_by(new_body)
        self._resources[url] = updated
        self._derived.clear()
        self.changes += 1
        return updated

    def get(self, url: str) -> Optional[Resource]:
        return self._resources.get(url.split("?", 1)[0])

    def __len__(self) -> int:
        return len(self._resources)

    def __contains__(self, url: str) -> bool:
        return self.get(url) is not None

    def urls(self) -> Tuple[str, ...]:
        return tuple(self._resources)


def build_response(store: ResourceStore, request: Request,
                   profile: ServerProfile) -> Response:
    """Construct the response a 1997 server would send for ``request``.

    Handles method checks, cache validation (ETag before date, per RFC
    2068), one byte range with ``If-Range`` (any other ``Range`` is
    ignored: the full 200), and negotiated deflate content coding.
    Every body is framed by its ``Content-Length``.  The returned
    response has no ``Date`` and no connection-management headers; the
    connection layer (:mod:`repro.server.base`) adds those.
    """
    version = HTTP11 if request.version >= HTTP11 else HTTP10
    headers = Headers()
    headers.add("Server", profile.server_header)
    for name, value in profile.extra_response_headers:
        headers.add(name, value)

    if request.method not in ("GET", "HEAD"):
        body = b"<html><body>method not allowed</body></html>"
        headers.add("Content-Type", "text/html")
        headers.add("Content-Length", str(len(body)))
        return Response(405, version, headers, body,
                        request_method=request.method)

    resource = store.get(request.target)
    if resource is None:
        body = b"<html><body>not found</body></html>"
        headers.add("Content-Type", "text/html")
        headers.add("Content-Length", str(len(body)))
        return Response(404, version, headers, body,
                        request_method=request.method)

    headers.add("ETag", resource.etag)
    if profile.sends_last_modified:
        headers.add("Last-Modified", resource.last_modified)

    # The server always *compares* against its internal modification
    # date, even when the profile does not advertise Last-Modified
    # (Jigsaw knew its resources' dates; it just did not emit them).
    if is_not_modified(resource.etag, resource.last_modified,
                       request.headers.get("If-None-Match"),
                       request.headers.get("If-Modified-Since")):
        if profile.verbose_304:
            headers.add("Content-Type", resource.content_type)
            headers.add("Content-Length", str(len(resource.body)))
        return Response(304, version, headers,
                        request_method=request.method)

    # Changed: a delta-capable client holding a retained instance gets
    # just the difference (226 IM Used, paper reference [26]).
    if wants_delta(request.headers):
        stale_tag = (request.headers.get("If-None-Match") or "").strip()
        old_body = resource.previous_versions.get(stale_tag)
        if old_body is not None:
            delta = encode_delta(old_body, resource.body)
            if len(delta) < len(resource.body):
                headers.add("IM", DELTA_IM_TOKEN)
                headers.add("Delta-Base", stale_tag)
                headers.add("Content-Type", resource.content_type)
                headers.add("Content-Length", str(len(delta)))
                return Response(226, version, headers, delta,
                                request_method=request.method)

    body = resource.body
    content_coding = None
    if (resource.deflate_body is not None
            and "deflate" in accepted_codings(request.headers)):
        body = resource.deflate_body
        content_coding = "deflate"

    range_header = request.headers.get("Range")
    if range_header is not None and content_coding is None:
        if if_range_matches(request.headers.get("If-Range"),
                            resource.etag, resource.last_modified):
            byte_range = parse_range_header(range_header, len(body))
            if byte_range is not None:
                if byte_range.start >= len(body):
                    headers.add("Content-Range", f"bytes */{len(body)}")
                    headers.add("Content-Length", "0")
                    return Response(416, version, headers,
                                    request_method=request.method)
                headers.add("Content-Type", resource.content_type)
                partial = apply_range(body, headers, byte_range)
                return Response(206, version, headers, partial,
                                request_method=request.method)

    headers.add("Content-Type", resource.content_type)
    if content_coding:
        headers.add("Content-Encoding", content_coding)
    headers.add("Content-Length", str(len(body)))
    return Response(200, version, headers, body,
                    request_method=request.method)
