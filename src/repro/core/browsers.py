"""Product-browser profiles for Tables 10 and 11.

The paper compares the tuned libwww robot against the two dominant 1997
browsers on the PPP link: **Netscape Navigator 4.0 beta 5** and
**Microsoft Internet Explorer 4.0 beta 1** (both on Windows NT).  Both
speak HTTP/1.0 with ``Connection: Keep-Alive`` over up to four parallel
connections and send noticeably more request-header bytes than the
robot's ~190-byte requests.

The revalidation asymmetry the tables show is reproduced mechanically:

* **Navigator** validates with ``If-Modified-Since``, falling back to
  the stored response ``Date`` when the server sent no
  ``Last-Modified`` — so it gets 304s from Jigsaw (which omits
  ``Last-Modified``) as well as Apache.
* **Internet Explorer** has no date fallback; without a validator it
  checks image metadata with HEAD requests — and Jigsaw drops HTTP/1.0
  keep-alive after a HEAD, so against Jigsaw IE pays a fresh TCP
  connection per image (Table 10's 301 packets and ~61 KB, versus 117
  packets / ~23 KB against Apache in Table 11).
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from ..client.robot import ClientConfig
from ..http import HTTP10

__all__ = ["BrowserProfile", "NETSCAPE_40B5", "IE_40B1", "BROWSERS"]


@dataclasses.dataclass(frozen=True)
class BrowserProfile:
    """A named browser configuration for the comparison tables."""

    name: str
    user_agent: str
    extra_headers: Tuple[Tuple[str, str], ...]
    allow_date_fallback: bool

    def client_config(self) -> ClientConfig:
        """Materialize as a robot configuration: both browsers open up
        to four connections and revalidate conditionally, with a HEAD
        for an image that has no usable validator."""
        return ClientConfig(
            http_version=HTTP10,
            max_connections=4,
            keep_alive=True,
            pipeline=False,
            reval_strategy="conditional-or-head",
            validator_preference="date",
            allow_date_fallback=self.allow_date_fallback,
            user_agent=self.user_agent,
            extra_headers=self.extra_headers,
            per_response_cpu=0.004)


NETSCAPE_40B5 = BrowserProfile(
    name="Netscape Navigator",
    user_agent="Mozilla/4.0b5 [en] (WinNT; I)",
    extra_headers=(
        ("Accept", "image/gif, image/x-xbitmap, image/jpeg, "
                   "image/pjpeg, */*"),
        ("Accept-Language", "en"),
        ("Accept-Charset", "iso-8859-1,*,utf-8"),
    ),
    allow_date_fallback=True,
)

IE_40B1 = BrowserProfile(
    name="Internet Explorer",
    user_agent="Mozilla/4.0 (compatible; MSIE 4.0b1; Windows NT)",
    extra_headers=(
        ("Accept", "*/*"),
        ("Accept-Language", "en-us"),
        ("UA-pixels", "1024x768"),
        ("UA-color", "color8"),
        ("UA-OS", "Windows NT"),
        ("UA-CPU", "x86"),
    ),
    allow_date_fallback=False,
)

#: Table row order.
BROWSERS = (NETSCAPE_40B5, IE_40B1)
