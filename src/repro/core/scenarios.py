"""The two client behaviours the paper simulates.

* **First-time retrieval** — "equivalent to a browser visiting a site
  for the first time, e.g. its cache is empty and it has to retrieve
  the top page and all the embedded objects.  In HTTP, this is
  equivalent to 43 GET requests."
* **Cache revalidation** — "equivalent to revisiting a home page where
  the contents are already available in a local cache ... resulting in
  no actual transfer of the HTML or the embedded objects.  In HTTP,
  this is equivalent to 43 Conditional GET requests."  (The HTTP/1.0
  client approximates this with one GET plus 42 HEADs, as old libwww
  did.)

:func:`prefill_cache` establishes the revalidation precondition: a
client cache holding every object with the validators the server would
have sent on a previous visit.
"""

from __future__ import annotations

from ..client.robot import FIRST_TIME, REVALIDATE
from ..content.microscape import MicroscapeSite
from ..http import Headers, MemoryCache, Response
from ..server.profiles import ServerProfile
from ..server.static import ResourceStore

__all__ = ["FIRST_TIME", "REVALIDATE", "SCENARIOS", "prefill_cache"]

#: Both scenarios, in table-column order.
SCENARIOS = (FIRST_TIME, REVALIDATE)


def prefill_cache(cache: MemoryCache, store: ResourceStore,
                  site: MicroscapeSite,
                  profile: ServerProfile) -> MemoryCache:
    """Populate ``cache`` as if the site had been fetched previously.

    Validators mirror what the server would have sent: always the
    entity tag, plus ``Last-Modified`` when the profile emits dates.
    """
    for url in site.all_urls():
        resource = store.get(url)
        if resource is None:
            raise KeyError(f"site url {url} missing from resource store")
        headers = Headers([("Date", resource.last_modified),
                           ("Content-Type", resource.content_type),
                           ("Content-Length", str(len(resource.body))),
                           ("ETag", resource.etag)])
        if profile.sends_last_modified:
            headers.add("Last-Modified", resource.last_modified)
        cache.store(url, Response(200, headers=headers,
                                  body=resource.body))
    return cache
