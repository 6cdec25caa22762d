"""An incremental HTML tokenizer (the browser-parser substrate).

The robot's image discovery originally pattern-matched ``<img src>``;
this tokenizer does the job the way a 1997 browser parser did: a
streaming state machine over text / tags / comments / declarations that
tolerates attribute quoting styles, newlines inside tags, and tags
split across arbitrary chunk boundaries — and that does *not* fetch
images referenced inside comments or quoted attribute values of other
tags.

Only tokenization is implemented (no tree building): enough for
discovery, the CSS-replacement rewriter, and the paper's incremental
"first segment triggers the next request batch" behaviour.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Dict, List, Optional, Tuple

from ..memo import Memo

__all__ = ["Token", "HtmlTokenizer", "tokenize"]

#: Attribute syntax inside a complete tag: name[=value] with double-,
#: single- or un-quoted values.
_ATTRIBUTE = re.compile(
    r"""([a-zA-Z_:][-a-zA-Z0-9_:.]*)       # name
        (?:\s*=\s*
           (?:"([^"]*)" | '([^']*)' | ([^\s>]+)))?""",
    re.VERBOSE)

_NAME = re.compile(r"[a-zA-Z][-a-zA-Z0-9_:.]*")


@dataclasses.dataclass(frozen=True)
class Token:
    """One lexical unit of the HTML stream."""

    kind: str                 # "text" | "start" | "end" | "comment" |
    #                           "declaration"
    data: str                 # text content, tag name, or raw body
    attrs: Optional[Dict[str, str]] = None

    def get(self, attribute: str, default: Optional[str] = None
            ) -> Optional[str]:
        """Case-insensitive attribute lookup for tag tokens."""
        if not self.attrs:
            return default
        return self.attrs.get(attribute.lower(), default)


#: Memoized tag classifications.  The same raw tag strings recur across
#: the one-shot :func:`tokenize` callers (site URL extraction) and every
#: step the robot's scanner memo misses, and classification (two regexes
#: + attribute dict) is by far the tokenizer's hottest work.  Tokens are
#: frozen and no caller mutates ``attrs``, so sharing them is safe.
_CLASSIFY_CACHE = Memo("html.classify", 8192)


class HtmlTokenizer:
    """Streaming tokenizer: feed chunks, receive completed tokens.

    Text tokens may be split at chunk boundaries (they are emitted as
    soon as available — a browser renders text incrementally); tags,
    comments and declarations are held until complete.

    The scanner walks the buffer with an index (``_pos``) and compacts
    only when fed the next chunk, so tokenizing an N-byte document costs
    O(N) instead of the O(N·tags) of re-slicing the remaining buffer
    after every tag.

    :meth:`feed` is a pure function of ``(state, unconsumed tail,
    chunk)``; :meth:`carry` reads that pair and :meth:`restore` sets
    it, so a caller can memoize steps (:mod:`repro.client.discovery`).
    """

    def __init__(self) -> None:
        self._buffer = ""
        self._pos = 0
        self._state = "text"       # text | markup | comment

    def feed(self, chunk: str) -> List[Token]:
        """Consume a chunk; return the tokens it completed."""
        if self._pos:
            self._buffer = self._buffer[self._pos:]
            self._pos = 0
        self._buffer += chunk
        tokens: List[Token] = []
        while True:
            if self._state == "text":
                if not self._take_text(tokens):
                    return tokens
            elif self._state == "markup":
                if not self._take_markup(tokens):
                    return tokens
            else:   # comment
                if not self._take_comment(tokens):
                    return tokens

    def carry(self) -> Tuple[str, str]:
        """``(state, unconsumed tail)``: all the next feed depends on."""
        return self._state, self._buffer[self._pos:]

    def restore(self, state: str, tail: str) -> None:
        """Resume from a :meth:`carry` pair."""
        self._state, self._buffer, self._pos = state, tail, 0

    def finish(self) -> List[Token]:
        """Flush any trailing text at end of input."""
        if self._state == "text" and self._pos < len(self._buffer):
            token = Token("text", self._buffer[self._pos:])
            self._buffer = ""
            self._pos = 0
            return [token]
        return []

    # ------------------------------------------------------------------
    def _take_text(self, tokens: List[Token]) -> bool:
        buf = self._buffer
        pos = self._pos
        lt = buf.find("<", pos)
        if lt == -1:
            if pos < len(buf):
                tokens.append(Token("text", buf[pos:]))
                self._buffer = ""
                self._pos = 0
            return False
        if lt > pos:
            tokens.append(Token("text", buf[pos:lt]))
            self._pos = pos = lt
        if buf.startswith("<!--", pos):
            self._state = "comment"
        elif len(buf) - pos < 4 and buf[pos:] in ("<", "<!", "<!-"):
            return False    # not enough lookahead to rule out a comment
        else:
            self._state = "markup"
        return True

    def _take_markup(self, tokens: List[Token]) -> bool:
        buf = self._buffer
        pos = self._pos
        gt = buf.find(">", pos)
        if gt == -1:
            return False
        raw = buf[pos + 1:gt]
        self._pos = gt + 1
        self._state = "text"
        token = _CLASSIFY_CACHE.get(raw)
        if token is None:
            token = _CLASSIFY_CACHE.store(raw, self._classify(raw))
        tokens.append(token)
        return True

    def _take_comment(self, tokens: List[Token]) -> bool:
        buf = self._buffer
        pos = self._pos
        end = buf.find("-->", pos + 4)
        if end == -1:
            return False
        tokens.append(Token("comment", buf[pos + 4:end]))
        self._pos = end + 3
        self._state = "text"
        return True

    @staticmethod
    def _classify(raw: str) -> Token:
        if raw.startswith("!"):
            return Token("declaration", raw[1:].strip())
        if raw.startswith("/"):
            match = _NAME.match(raw[1:].strip())
            name = match.group(0).lower() if match else ""
            return Token("end", name)
        work = raw.strip()
        match = _NAME.match(work)
        if match is None:
            return Token("text", "<" + raw + ">")     # junk, keep as text
        name = match.group(0).lower()
        attrs: Dict[str, str] = {}
        for found in _ATTRIBUTE.finditer(work[match.end():]):
            key = found.group(1).lower()
            value = next((g for g in found.groups()[1:]
                          if g is not None), "")
            attrs.setdefault(key, value)
        return Token("start", name, attrs)


def tokenize(html: str) -> List[Token]:
    """One-shot tokenization of a complete document."""
    tokenizer = HtmlTokenizer()
    tokens = tokenizer.feed(html)
    tokens.extend(tokenizer.finish())
    return tokens
