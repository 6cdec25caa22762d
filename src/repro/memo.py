"""Process-lifetime pure memos, declared once.

A :class:`Memo` is a named, bounded ``dict``, emptied when full.  The
contract a site signs by declaring one: the value is a function of the
key alone and never ``None``; a build that raises stores nothing (the
value is an argument, evaluated before :meth:`Memo.store` runs); so a
cold, cleared, full or one-entry memo changes cost, never a result
(gated by ``tests/test_memo.py``).  Sites read ``value = M.get(key)``
and, on ``None``, ``value = M.store(key, <the real code>)``: a hit is one
C-level ``dict.get`` and only misses count (a hit rate is ``1 - builds /
lookups`` wherever lookups are a public count).  Counters depend on
process history, so they ride beside results (``MatrixStats``), not in them.
"""

from __future__ import annotations

import contextlib
import types
from typing import Any, Dict, Hashable, Iterator, Tuple
from weakref import WeakValueDictionary

__all__ = ["Memo", "declared", "stats", "totals", "cold"]

#: name → what its instances share: bound, builds, clears, live (weak).
_REGISTRY: Dict[str, types.SimpleNamespace] = {}
_COLD = False    #: set by :func:`cold` only: every memo holds one entry


class Memo(dict):
    """A declared memo; instances of one name share its counters."""

    __slots__ = ("name", "bound", "_shared", "__weakref__")

    def __init__(self, name: str, bound: int) -> None:
        shared = _REGISTRY.get(name)
        if shared is None:
            shared = _REGISTRY[name] = types.SimpleNamespace(
                bound=bound, builds=0, clears=0, live=WeakValueDictionary())
        elif shared.bound != bound:
            raise ValueError(f"memo {name!r} already has bound {shared.bound}")
        shared.live[id(self)] = self
        self.name, self.bound, self._shared = name, bound, shared

    def fresh(self) -> "Memo":
        """Another instance of this name, for a memo kept per object."""
        return Memo(self.name, self.bound)

    def store(self, key: Hashable, value: Any) -> Any:
        """Keep ``value`` under ``key``, emptying a full memo first."""
        if len(self) >= (1 if _COLD else self.bound):
            self.clear()
            self._shared.clears += 1
        self._shared.builds += 1
        self[key] = value
        return value


def declared() -> Dict[str, int]:
    """Every declared memo's bound, by name."""
    return {name: shared.bound for name, shared in _REGISTRY.items()}


def stats() -> Dict[str, Tuple[int, int, int]]:
    """``name → (builds, clears, entries)`` for this process so far."""
    return {name: (shared.builds, shared.clears,
                   sum(map(len, shared.live.values())))
            for name, shared in _REGISTRY.items()}


def totals() -> Tuple[int, int]:
    """``(builds, clears)`` over every memo for this process so far:
    :func:`stats` without walking the live instances for entry counts."""
    shared = _REGISTRY.values()
    return (sum(entry.builds for entry in shared),
            sum(entry.clears for entry in shared))


@contextlib.contextmanager
def cold() -> Iterator[None]:
    """Test hook: hold every memo, present and future, to one entry."""
    global _COLD
    for live in [m for d in _REGISTRY.values() for m in d.live.values()]:
        live.clear()
    previous, _COLD = _COLD, True
    try:
        yield
    finally:
        _COLD = previous
