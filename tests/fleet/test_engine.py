"""Tests for cohort execution, the hard deadline, and the result codec."""

import json

import pytest

from repro.fleet import CohortResult, FleetSpec, FleetUnitSpec, run_cohort
from repro.matrix.cache import ResultCache, decode_result, encode_result


def small_spec(**overrides):
    kwargs = dict(users=8, cohorts=2, environment="LAN",
                  arrival_rate=50.0, think_time=0.0, pages_per_user=1,
                  rounds=1, max_sim_time=60.0)
    kwargs.update(overrides)
    return FleetSpec(**kwargs)


def equal_unit(spec, cohort=0):
    share = spec.backbone_bandwidth() / spec.cohorts
    return FleetUnitSpec(fleet=spec, cohort=cohort,
                         shares=(share,) * spec.n_epochs)


@pytest.fixture(scope="module")
def cohort_result():
    return run_cohort(equal_unit(small_spec()), seed=0)


def test_run_cohort_completes_every_page(cohort_result):
    assert cohort_result.users == 4
    assert len(cohort_result.sessions) == 4
    assert cohort_result.errors == 0
    assert len(cohort_result.page_times) == 4
    assert all(elapsed > 0 for elapsed in cohort_result.page_times)
    assert cohort_result.packets > 0
    assert sum(cohort_result.epoch_bytes_down) > 0
    assert cohort_result.requests_served > 0


def test_run_cohort_is_deterministic(cohort_result):
    again = run_cohort(equal_unit(small_spec()), seed=0)
    assert again == cohort_result


def test_codec_round_trips_through_json(cohort_result):
    payload = encode_result(cohort_result)
    assert payload["__kind__"] == "fleet-cohort"
    revived = decode_result(json.loads(json.dumps(payload)))
    assert isinstance(revived, CohortResult)
    assert revived == cohort_result


def test_codec_payload_is_pinned_though_derived(cohort_result):
    # Both directions come from dataclasses.fields; what is on disk in
    # every fleet cache and journal must not move when a field does not.
    payload = json.loads(json.dumps(encode_result(cohort_result)))
    assert sorted(payload) == [
        "__kind__", "cohort", "connections_accepted", "epoch",
        "epoch_bytes_down", "fastforward_spans", "packets",
        "queue_waits", "requests_served", "server_cpu_seconds",
        "sessions", "sim_time", "users"]
    assert sorted(payload["sessions"][0]) == [
        "arrival", "errors", "mode", "page_times", "pages_started", "user"]
    revived = decode_result(payload)
    assert type(revived.sessions) is tuple
    assert type(revived.sessions[0].page_times) is tuple
    assert type(revived.epoch_bytes_down) is tuple
    assert type(revived.queue_waits) is tuple


def test_cohort_results_ride_the_result_cache(tmp_path, cohort_result):
    cache = ResultCache(tmp_path / "cache")
    unit = equal_unit(small_spec())
    cache.put(unit, 0, cohort_result)
    assert cache.get(unit, 0) == cohort_result
    # A different share schedule is a different cache identity.
    other = FleetUnitSpec(fleet=unit.fleet, cohort=0,
                          shares=tuple(2 * s for s in unit.shares))
    assert cache.get(other, 0) is None


def test_finite_capacity_parks_connections():
    spec = small_spec(users=6, cohorts=1, server_capacity=1,
                      arrival_rate=1000.0)
    congested = run_cohort(equal_unit(spec), seed=0)
    assert congested.queue_waits
    assert all(wait > 0 for wait in congested.queue_waits)
    unbounded = run_cohort(equal_unit(spec.replace(server_capacity=None)),
                           seed=0)
    assert unbounded.queue_waits == ()


def test_hard_deadline_counts_unfinished_pages_as_errors():
    spec = small_spec(environment="WAN", users=4, cohorts=1,
                      arrival_rate=1000.0, max_sim_time=1.0)
    result = run_cohort(equal_unit(spec), seed=0)
    # A WAN page load cannot finish inside one simulated second, so the
    # deadline fires mid-flight and the totals must still reconcile.
    assert result.sim_time <= spec.max_sim_time
    assert result.errors > 0
    for session in result.sessions:
        assert session.pages_started == (len(session.page_times)
                                         + session.errors)
