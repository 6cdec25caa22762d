"""Deep-corpus: bad_pool's mirror image, with the memo declared.

The same worker, but ``_MEMO`` is a ``repro.memo.Memo`` written through
``store``: that is not a module-level subscript write, so the purity
pass accepts it by construction.  The ``_COUNT`` rebind beside it still
fires (pool-global-write, once).
"""

from repro.memo import Memo

_MEMO = Memo("m", 8)
_COUNT = 0


def _run_chunk_supervised(chunk):
    return [classify(item) for item in chunk]


def classify(item):
    global _COUNT
    _COUNT += 1
    value = _MEMO.get(item)
    if value is None:
        value = _MEMO.store(item, item * 2)
    return value
