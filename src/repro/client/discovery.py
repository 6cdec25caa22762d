"""Incremental discovery of embedded objects in streaming HTML.

A 1997 browser starts requesting inlined images before the HTML finishes
arriving — the paper's "Why Compression is Important" section builds on
exactly this: the first TCP segment of (compressed) HTML carries enough
``<img>`` references to fill a new pipelined request batch.

:class:`IncrementalImageScanner` is the robot's HTML "parser": feed it
body chunks as they arrive and it returns the image URLs that became
visible, holding back any tag still split across a chunk boundary.

Sessions of one (profile, protocol version, coding) see the same head
length, so the page reaches their scanners in the same segments:
:data:`_STEPS` keeps each distinct tokenizer step once per process, and
discovery stays incremental while only the first session tokenizes.
"""

from __future__ import annotations

from typing import List

from ..content.htmlparse import HtmlTokenizer
from ..memo import Memo

__all__ = ["IncrementalImageScanner"]

#: ``(state, unconsumed tail, chunk bytes)`` → ``(the step's img-src
#: URLs before duplicate suppression, state', tail')``.  The key is all
#: :meth:`HtmlTokenizer.feed` reads, so it covers any segmentation.
_STEPS = Memo("client.scan-steps", 1024)


class IncrementalImageScanner:
    """Streaming ``<img src>`` scanner with duplicate suppression.

    Built on the incremental HTML tokenizer, so tags split across
    chunk boundaries are handled and commented-out markup is ignored —
    what a real browser parser does.
    """

    def __init__(self) -> None:
        self._tokenizer = HtmlTokenizer()
        self._seen = set()
        #: Total body bytes fed so far.
        self.bytes_seen = 0

    def feed(self, chunk: bytes) -> List[str]:
        """Scan a body chunk; return newly discovered image URLs."""
        self.bytes_seen += len(chunk)
        tokenizer = self._tokenizer
        key = (*tokenizer.carry(), chunk)
        step = _STEPS.get(key)
        if step is None:
            tokens = tokenizer.feed(
                chunk.decode("latin-1", errors="replace"))
            urls = tuple(filter(None, (
                token.get("src") for token in tokens
                if token.kind == "start" and token.data == "img")))
            _STEPS.store(key, (urls, *tokenizer.carry()))
        else:
            urls, state, tail = step
            tokenizer.restore(state, tail)
        # "New" is relative to this scanner's history, not to the step.
        fresh = []
        for url in urls:
            if url not in self._seen:
                self._seen.add(url)
                fresh.append(url)
        return fresh
