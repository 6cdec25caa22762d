"""Experiment core: protocol modes, scenarios, runner, browser profiles.

This is the package that turns the substrates (simulated network, HTTP
layer, clients, servers, content) into the paper's experiments::

    from repro.core import run_experiment

    run = run_experiment("pipelined", "first-time",
                         environment="WAN", profile="Apache", seed=0)
    print(run.packets, run.payload_bytes, run.elapsed,
          run.percent_overhead)

Every axis accepts objects or registry names (:mod:`.registry` holds
the single name table shared with the CLI and :mod:`repro.matrix`);
``environment`` and ``profile`` are keyword-only; :mod:`repro.matrix`
averages a cell's seeded runs.
"""

from .browsers import BROWSERS, BrowserProfile, IE_40B1, NETSCAPE_40B5
from .modes import (HTTP10_MODE, HTTP11_PERSISTENT, HTTP11_PIPELINED,
                    HTTP11_PIPELINED_COMPRESSED, ProtocolMode,
                    initial_tuning_client_config)
from .registry import (MODE_ALIASES, MODES, PROFILES, TABLE_CELLS,
                       UnknownNameError, modes_for_environment,
                       resolve_environment, resolve_mode, resolve_profile,
                       resolve_scenario)
from .render import GIF_DIMENSION_BYTES, RenderMetrics, measure_render
from .runner import (AveragedResult, ExperimentError, RunResult,
                     reset_default_site, run_experiment, warm_default_site)
from .scenarios import FIRST_TIME, REVALIDATE, SCENARIOS, prefill_cache

__all__ = [
    "MODE_ALIASES", "MODES", "PROFILES", "TABLE_CELLS",
    "UnknownNameError", "modes_for_environment", "resolve_environment",
    "resolve_mode", "resolve_profile", "resolve_scenario",
    "BROWSERS", "BrowserProfile", "IE_40B1", "NETSCAPE_40B5",
    "HTTP10_MODE", "HTTP11_PERSISTENT", "HTTP11_PIPELINED",
    "HTTP11_PIPELINED_COMPRESSED", "ProtocolMode",
    "initial_tuning_client_config",
    "GIF_DIMENSION_BYTES", "RenderMetrics", "measure_render",
    "AveragedResult", "ExperimentError", "RunResult", "run_experiment",
    "warm_default_site", "reset_default_site",
    "FIRST_TIME", "REVALIDATE", "SCENARIOS", "prefill_cache",
]
