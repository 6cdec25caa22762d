"""HTTP date handling (the RFC 1123 format only).

Cache validation with ``If-Modified-Since`` / ``Last-Modified`` — the
only validator HTTP/1.0 supports, as the paper notes — needs real date
headers.  Simulated time is seconds since an arbitrary epoch; dates are
rendered and read in the mandatory RFC 1123 fixed-length format; the
legacy RFC 850 and asctime forms read as unparseable, which a
conditional request treats as "modified".
"""

from __future__ import annotations

import calendar
import time
from typing import Optional

__all__ = ["format_http_date", "parse_http_date", "PAPER_EPOCH"]

#: An arbitrary but fitting epoch for simulated timestamps:
#: 1997-06-24 00:00:00 UTC, the date of the W3C NOTE.
PAPER_EPOCH = calendar.timegm((1997, 6, 24, 0, 0, 0, 0, 0, 0))

_RFC1123 = "%a, %d %b %Y %H:%M:%S GMT"


def format_http_date(epoch_seconds: float) -> str:
    """Render an epoch timestamp as an RFC 1123 HTTP-date."""
    return time.strftime(_RFC1123, time.gmtime(epoch_seconds))


def parse_http_date(text: str) -> Optional[float]:
    """Parse an RFC 1123 HTTP-date; None if it is in any other form."""
    try:
        return float(calendar.timegm(time.strptime(text.strip(), _RFC1123)))
    except ValueError:
        return None
