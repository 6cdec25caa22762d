"""Deep-corpus: a spec with an unkeyed field and a stale key entry.

``jitter`` is a real dataclass field missing from ``CACHE_KEY_FIELDS``
(cache-key-missing); ``ghost`` is a key entry matching no field
(cache-key-stale); ``seeds`` is covered by the default waiver.  The
forwarding method omits the run function's ``turbo`` entirely.
"""

import dataclasses

from .runner import run_experiment

CACHE_KEY_FIELDS = ("mode", "ghost")


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    mode: str = "demo"
    jitter: float = 0.0
    seeds: tuple = (0,)

    def execute_unit(self, seed):
        return run_experiment(self.mode, jitter=self.jitter, seed=seed)
