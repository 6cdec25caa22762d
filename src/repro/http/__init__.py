"""HTTP/1.0 and HTTP/1.1 message layer.

Byte-exact message objects, incremental stream parsers (pipelining
splits messages across TCP segments arbitrarily) for the one framing
the study uses (bodyless or ``Content-Length``), header collections,
RFC 1123 dates, the deflate content coding, client caching with ETag /
Last-Modified validators, and single byte ranges with ``If-Range``.

Shared by the simulated clients (:mod:`repro.client`) and servers
(:mod:`repro.server`).
"""

from .cache import CacheEntry, MemoryCache, is_not_modified
from .compact import (DeltaStreamDecoder, DeltaStreamEncoder, decode_varint,
                      encode_varint)
from .coding import (accepted_codings, compression_ratio, deflate_decode,
                     deflate_encode)
from .dates import PAPER_EPOCH, format_http_date, parse_http_date
from .delta import DELTA_IM_TOKEN, apply_delta, encode_delta, wants_delta
from .headers import Headers
from .messages import (HTTP10, HTTP11, Request, Response, STATUS_REASONS,
                       version_string)
from .parser import ParseError, RequestParser, ResponseParser
from .ranges import (ByteRange, apply_range, content_range,
                     if_range_matches, parse_range_header)

__all__ = [
    "CacheEntry", "MemoryCache", "is_not_modified",
    "DeltaStreamDecoder", "DeltaStreamEncoder",
    "decode_varint", "encode_varint",
    "accepted_codings", "compression_ratio", "deflate_decode",
    "deflate_encode",
    "PAPER_EPOCH", "format_http_date", "parse_http_date",
    "DELTA_IM_TOKEN", "apply_delta", "encode_delta", "wants_delta",
    "Headers",
    "HTTP10", "HTTP11", "Request", "Response", "STATUS_REASONS",
    "version_string",
    "ParseError", "RequestParser", "ResponseParser",
    "ByteRange", "apply_range", "content_range", "if_range_matches",
    "parse_range_header",
]
