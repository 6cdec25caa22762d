"""Deep-corpus: a spec whose forwarding method drops a run knob.

``execute_unit`` forwards the spec's fields and the unit seed but omits
the run function's ``turbo`` entirely, so no spec field can ever key it.
"""

import dataclasses

from .runner import run_experiment


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    mode: str = "demo"
    jitter: float = 0.0
    seeds: tuple = (0,)

    def execute_unit(self, seed):
        return run_experiment(self.mode, jitter=self.jitter, seed=seed)
