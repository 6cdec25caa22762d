"""The lifetime gate: no ``repro`` object is ever cyclic garbage.

DESIGN.md §6b ("Object lifetime") gives everything a simulation
creates one owner and one exit (stack table → connection → timers /
application state; robot → live connection states; unit → network),
so reference counts free it and CPython's cycle collector finds
nothing of ours.  The gate runs
every kind of unit with the collector off and ``DEBUG_SAVEALL`` on,
then collects once: whatever lands in ``gc.garbage`` was a cycle.  The
standard library's own (``json.encoder`` closures, argparse) are not
ours to fix; a single ``repro`` type is a failure that names it.  (The
per-exit tests are in ``tests/simnet/test_tcp.py``,
``tests/simnet/test_network.py``, ``tests/client/test_robot.py`` and
``tests/server/test_proxy.py``.)
"""

import collections
import contextlib
import gc

from repro.analysis.claims import fetch_through_proxy
from repro.core import measure_render, run_experiment
from repro.core.registry import MODES, resolve_environment, resolve_profile
from repro.faults.chaos import CHAOS_SERVER
from repro.faults.plan import FAULT_PLANS
from repro.fleet import FleetSpec, run_fleet

SEED = 1997


@contextlib.contextmanager
def saved_garbage():
    """Collector off, every cycle it *would* have freed kept: yields a
    function counting them by ``repro`` type."""
    def repro_garbage():
        gc.collect()
        return collections.Counter(
            f"{type(o).__module__}.{type(o).__qualname__}"
            for o in gc.garbage
            if type(o).__module__.split(".")[0] == "repro")

    gc.collect()        # what earlier tests left is not this test's
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield repro_garbage
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def contended_fleet(pages_per_user):
    result = run_fleet(FleetSpec(
        users=16, cohorts=2, environment="WAN", scenario="revalidate",
        arrival_rate=8.0, think_time=0.5, pages_per_user=pages_per_user,
        server_capacity=4, rounds=2, max_sim_time=120.0, seed=SEED))
    assert not result.failures and result.queue_waits
    return result


def test_no_repro_object_is_ever_cyclic_garbage():
    with saved_garbage() as repro_garbage:
        for mode in MODES:
            for scenario in ("first-time", "revalidate"):
                run_experiment(mode, scenario, environment="WAN",
                               profile="Apache", seed=SEED)
        for plan in sorted(FAULT_PLANS):
            for mode in ("pipelined", "mux"):
                run_experiment(mode, "first-time", environment="WAN",
                               profile=CHAOS_SERVER, seed=SEED,
                               faults=plan)
        for proxy_mode in ("blind", "hop_by_hop"):
            fetch_through_proxy(proxy_mode)
        measure_render(MODES["HTTP/1.1 Pipelined"].client_config(),
                       resolve_environment("WAN"),
                       resolve_profile("Apache"), seed=SEED)
        contended_fleet(pages_per_user=1)
        found = repro_garbage()
    assert not found, (
        "cyclic garbage of repro types (an owner kept no exit): "
        + ", ".join(f"{n} {name}" for name, n in found.most_common()))


def test_garbage_does_not_scale_with_the_work():
    """Pinned as scaling, not as a constant: twice the pages per user
    leave no more ``repro`` garbage than once (both none)."""
    totals = []
    for pages_per_user in (1, 2):
        with saved_garbage() as repro_garbage:
            contended_fleet(pages_per_user)
            totals.append(sum(repro_garbage().values()))
    assert totals[1] <= totals[0] == 0, totals
