"""Tests for the fleet population spec and its compiled schedules."""

import dataclasses
import json
import math

import pytest

from repro.core.registry import resolve_mode
from repro.core.transport import MuxTransport, ShardedTransport
from repro.fleet import FleetSpec, FleetUnitSpec
from repro.matrix import unit_key


def small_spec(**overrides):
    kwargs = dict(users=8, cohorts=2, environment="LAN",
                  arrival_rate=50.0, think_time=0.0, pages_per_user=1,
                  rounds=1, max_sim_time=60.0)
    kwargs.update(overrides)
    return FleetSpec(**kwargs)


def test_canonicalizes_names():
    spec = small_spec(environment="wan", server="apache")
    assert spec.environment == "WAN"
    assert spec.server == "Apache"


def test_rejects_multiplexed_modes():
    # A cohort shares one port-80 listener: the mix every population
    # draws from names canonical plain-HTTP modes only.
    for name, weight in FleetSpec.modes:
        mode = resolve_mode(name)
        assert mode.name == name
        assert not isinstance(mode.transport,
                              (MuxTransport, ShardedTransport))
        assert weight > 0


@pytest.mark.parametrize("overrides", [
    {"users": 0},
    {"cohorts": 0},
    {"cohorts": 9},            # more cohorts than users
    {"arrival_rate": 0.0},
    {"think_time": -1.0},
    {"pages_per_user": 0},
    {"server_capacity": 0},
    {"backbone_bps": 0.0},
    {"epoch": 0.0},
    {"rounds": 0},
    {"max_sim_time": 0.0},
    {"arrival_rate": math.nan},
    {"max_sim_time": math.inf},
])
def test_validation(overrides):
    with pytest.raises(ValueError):
        small_spec(**overrides)


def test_population_is_deterministic():
    spec = FleetSpec(users=40, cohorts=4, think_time=3.0,
                     pages_per_user=3, seed=7)
    first = spec.compile_population()
    second = spec.compile_population()
    assert first == second
    # An identically-constructed spec compiles identically too.
    assert spec.replace().compile_population() == first
    # A different seed must change the schedule.
    assert spec.replace(seed=8).compile_population() != first


def test_population_shape():
    spec = FleetSpec(users=30, cohorts=4, think_time=2.0,
                     pages_per_user=3)
    plans = spec.compile_population()
    assert len(plans) == 30
    arrivals = [plan.arrival for plan in plans]
    assert arrivals == sorted(arrivals)
    assert all(arrival > 0 for arrival in arrivals)
    for plan in plans:
        assert plan.cohort == plan.index % 4
        assert len(plan.think_times) == 2
        assert all(think >= 0 for think in plan.think_times)
        assert plan.mode in {name for name, _ in spec.modes}


def test_zero_think_time_draws_nothing():
    plans = small_spec(think_time=0.0, pages_per_user=3,
                       users=6).compile_population()
    assert all(plan.think_times == (0.0, 0.0) for plan in plans)


def test_cohort_plans_partition_population():
    spec = FleetSpec(users=21, cohorts=4)
    merged = sorted((plan for cohort in range(4)
                     for plan in spec.cohort_plans(cohort)),
                    key=lambda plan: plan.index)
    assert merged == spec.compile_population()
    with pytest.raises(ValueError):
        spec.cohort_plans(4)


def test_canonical_dict_covers_every_cache_key_field():
    spec = small_spec()
    payload = spec.canonical_dict()
    # Every population dimension, no opt-outs.
    assert list(payload) == [f.name for f in
                             dataclasses.fields(FleetSpec)]
    # The identity must be JSON-stable.
    dumped = json.dumps(payload, sort_keys=True)
    assert json.dumps(spec.canonical_dict(), sort_keys=True) == dumped


def test_unit_key_digest_is_pinned():
    # Pinned for the reason tests/matrix/test_spec.py::
    # test_unit_key_digest_is_pinned gives.
    unit = FleetUnitSpec(FleetSpec(users=8, cohorts=2, max_sim_time=60.0),
                         1, (750000.0, 750000.0))
    assert unit_key(unit, 0, version="1.5.0") == (
        "ae6e04faa4f6ec1c5e9108a574081a5f"
        "9da22e4d7655d1a289c1f1aa17c31853")


def test_unit_quantizes_shares():
    spec = small_spec()
    n = spec.n_epochs
    unit = FleetUnitSpec(fleet=spec, cohort=0,
                         shares=(12345.6,) * n)
    assert unit.shares == (12346.0,) * n
    assert unit.canonical_dict()["shares"] == [12346] * n


def test_unit_validation():
    spec = small_spec()
    good = (1000.0,) * spec.n_epochs
    with pytest.raises(ValueError):
        FleetUnitSpec(fleet=spec, cohort=2, shares=good)
    with pytest.raises(ValueError):
        FleetUnitSpec(fleet=spec, cohort=0, shares=good + (1000.0,))
    with pytest.raises(ValueError):
        FleetUnitSpec(fleet=spec, cohort=0,
                      shares=(0.0,) * spec.n_epochs)


def test_unit_duck_types_the_matrix_surface():
    spec = small_spec(seed=3)
    unit = FleetUnitSpec(fleet=spec, cohort=1,
                         shares=(1e6,) * spec.n_epochs)
    assert unit.seeds == (3,)
    assert unit.runs == 1
    assert unit.max_sim_time == spec.max_sim_time
    assert "cohort 1" in unit.label
    assert unit.canonical_dict()["kind"] == "fleet-cohort"
    # Different shares are different cache identities.
    other = FleetUnitSpec(fleet=spec, cohort=1,
                          shares=(2e6,) * spec.n_epochs)
    assert unit.canonical_dict() != other.canonical_dict()
