"""Deep-corpus: module-global writes reachable from the pool dispatch.

``classify`` runs under ``_run_chunk_supervised`` and both rebinds a
module global and mutates a module-level memo dict (pool-global-write,
twice).  ``offline_report`` does the same writes but is unreachable
from the dispatch, so it stays clean.
"""

_MEMO = {}
_COUNT = 0


def _run_chunk_supervised(chunk):
    return [classify(item) for item in chunk]


def classify(item):
    global _COUNT
    _COUNT += 1
    _MEMO[item] = item * 2
    return _MEMO[item]


def offline_report():
    global _COUNT
    _COUNT = 0
    return dict(_MEMO)
