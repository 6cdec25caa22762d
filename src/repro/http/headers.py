"""Ordered, case-insensitive HTTP header collection.

HTTP field names are case-insensitive (RFC 2068 §4.2) but the paper's
byte counts depend on exactly what goes on the wire, so :class:`Headers`
preserves the original spelling and ordering for serialization while
matching case-insensitively for lookups.

Lookups are a hot path — every simulated request/response consults a
handful of fields — so the collection maintains a parallel sequence of
lowercased names, paying ``str.lower`` once per field at insertion
instead of once per field per lookup.

Parsing is paid once per distinct header **line**: a population of
robots exchanges the same few hundred lines millions of times, so
:meth:`Headers.from_lines` looks each line up in ``_LINE_MEMO`` and
splits, strips and lowercases it only on a miss.  The parsers memoize
whole heads on top of it (``repro.http.parser``), so this memo serves
the heads they have not met yet.

A parsed head is shared until it is edited.  A collection built from a
head memo's frozen tuples (:meth:`Headers._from_parts`), and every
:meth:`Headers.copy`, holds tuples, not lists; the first :meth:`add`
(and so :meth:`set`) copies them into lists the collection owns, and
:meth:`remove` always builds new ones.  A tuple cannot be mutated, so
no edit reaches a memo, another message parsed from the same head or
an earlier copy.
"""
from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..memo import Memo

__all__ = ["Headers"]

#: ``header line → ((name, value), lowercased name)`` for the lines
#: :meth:`Headers.from_lines` has split.  Malformed lines never enter
#: (they raise).
_LINE_MEMO = Memo("http.header-lines", 4096)


def _split_line(line: str) -> Tuple[Tuple[str, str], str]:
    """Parse one ``Name: value`` line.

    A line that starts with SP or HT is malformed: folded continuation
    lines are not read.
    """
    name, sep, value = line.partition(":")
    if not sep or line[0] in " \t":
        raise ValueError(f"malformed header line: {line!r}")
    name = name.strip()
    return (name, value.strip()), name.lower()


class Headers:
    """An ordered multimap of HTTP header fields.

    >>> h = Headers([("Host", "www26.w3.org")])
    >>> h.set("Accept-Encoding", "deflate")
    >>> h.get("accept-encoding")
    'deflate'
    >>> "HOST" in h
    True
    """

    __slots__ = ("_items", "_lower")

    def __init__(self,
                 items: Optional[Iterable[Tuple[str, str]]] = None) -> None:
        #: Lists this collection owns, or tuples it shares (see the
        #: module docstring).
        self._items: Sequence[Tuple[str, str]] = [
            (name, str(value)) for name, value in items or ()]
        self._lower: Sequence[str] = [name.lower() for name, _ in self._items]

    @classmethod
    def _from_parts(cls, items: Tuple[Tuple[str, str], ...],
                    lower: Tuple[str, ...]) -> "Headers":
        """A collection sharing already-parsed, frozen fields.

        Package-internal: ``lower`` must be ``items``' names lowercased.
        The head memos hand their tuples over through this; the first
        edit copies them (:meth:`add`), so no mutator can reach a memo.
        """
        headers = cls.__new__(cls)
        headers._items = items
        headers._lower = lower
        return headers

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, name: str, value: str) -> None:
        """Append a field, keeping any existing fields of the same name."""
        items = self._items
        if type(items) is tuple:        # shared until this first edit
            self._items = items = list(items)
            self._lower = list(self._lower)
        items.append((name, str(value)))
        self._lower.append(name.lower())

    def set(self, name: str, value: str) -> None:
        """Replace all fields named ``name`` with a single field."""
        self.remove(name)
        self.add(name, value)

    def remove(self, name: str) -> int:
        """Remove all fields named ``name``; returns how many were removed.

        Builds new lists, so a shared collection is never edited in place.
        """
        lowered = name.lower()
        if lowered not in self._lower:
            return 0
        before = len(self._items)
        kept = [(item, low) for item, low in zip(self._items, self._lower)
                if low != lowered]
        self._items = [item for item, _ in kept]
        self._lower = [low for _, low in kept]
        return before - len(self._items)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """First value of field ``name``, or ``default``."""
        lowered = name.lower()
        lower = self._lower
        if lowered in lower:     # most lookups miss: no exception raised
            return self._items[lower.index(lowered)][1]
        return default

    def get_all(self, name: str) -> List[str]:
        """All values of field ``name`` in order."""
        lowered = name.lower()
        if lowered not in self._lower:
            return []
        return [item[1] for item, low in zip(self._items, self._lower)
                if low == lowered]

    def contains_token(self, name: str, token: str) -> bool:
        """True if a comma-separated field contains ``token`` (case-insensitive).

        Used for e.g. ``Connection: keep-alive`` and
        ``Accept-Encoding: deflate`` checks.
        """
        if name.lower() not in self._lower:
            return False
        token = token.lower()
        for value in self.get_all(name):
            for part in value.split(","):
                if part.strip().lower() == token:
                    return True
        return False

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._lower

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self._items)

    def items(self) -> List[Tuple[str, str]]:
        """All (name, value) pairs in serialization order."""
        return list(self._items)

    def copy(self) -> "Headers":
        """A copy preserving order and spelling: shared fields are shared
        again, and owned lists are frozen into the copy's tuples."""
        return Headers._from_parts(tuple(self._items), tuple(self._lower))

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize as ``Name: value\\r\\n`` lines (no terminating blank)."""
        return "".join([f"{n}: {v}\r\n" for n, v in self._items]
                       ).encode("latin-1")

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "Headers":
        """Parse header lines (without the terminating blank line).

        Each line is split once per distinct text (``_LINE_MEMO``).
        """
        headers = cls()
        items, lower = headers._items, headers._lower
        for line in lines:
            parsed = _LINE_MEMO.get(line)
            if parsed is None:
                parsed = _LINE_MEMO.store(line, _split_line(line))
            items.append(parsed[0])
            lower.append(parsed[1])
        return headers

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Headers):
            return NotImplemented
        return tuple(self._items) == tuple(other._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Headers({self._items!r})"
