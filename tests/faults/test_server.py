"""FaultyProfile: wrapping, and the scripted server faults end to end."""

import dataclasses

from repro.content import build_microscape_site
from repro.core import run_experiment
from repro.faults import (FAULT_PLANS, FaultyProfile, RecoveryLog,
                          ServerFaultConfig)
from repro.http import HTTP11, Headers, Request
from repro.server import ResourceStore, SimHttpServer
from repro.server.profiles import APACHE, JIGSAW, ServerProfile
from repro.simnet import LAN, SERVER_HOST, TwoHostNetwork

from ..server.test_server import RawClient


def test_wrap_clones_every_base_field():
    faults = ServerFaultConfig(error_503_requests=(2,))
    wrapped = FaultyProfile.wrap(APACHE, faults)
    assert isinstance(wrapped, ServerProfile)
    assert wrapped.faults is faults
    assert wrapped.name == "Apache+faults"
    for field in dataclasses.fields(ServerProfile):
        if field.name == "name":
            continue
        assert getattr(wrapped, field.name) == getattr(APACHE, field.name)


def test_wrap_close_after_one_caps_connection_reuse():
    wrapped = FaultyProfile.wrap(
        JIGSAW, ServerFaultConfig(close_after_one=True))
    assert wrapped.max_requests_per_connection == 1


def test_plain_profiles_expose_no_faults():
    assert getattr(APACHE, "faults", None) is None


def test_scripted_ordinals_fire_through_a_warm_response_memo():
    """Identical request bytes are answered from the server's
    response-head templates from the second request on; faults keyed by
    arrival ordinal still fire on exactly their ordinals, and the
    requests around them get the ordinary answer."""
    profile = FaultyProfile.wrap(APACHE, ServerFaultConfig(
        error_503_requests=(3,), abort_requests=(5,),
        abort_after_bytes=20))
    net = TwoHostNetwork(LAN)
    server = SimHttpServer(
        net.sim, net.server,
        ResourceStore.from_site(build_microscape_site()), profile)
    server.recovery = RecoveryLog()
    wire = Request("GET", "/gifs/hero.gif", HTTP11,
                   Headers([("Host", SERVER_HOST)])).to_bytes()
    client = RawClient(net, ["GET"] * 5)
    for _ in range(5):
        client.conn.send(wire)
        net.run()
    responses = client.responses
    assert [r.status for r in responses] == [200, 200, 503, 200]
    assert client.reset                 # the fifth died 20 bytes in
    assert len(server._heads) == 1      # one distinct head, built once
    assert responses[0].to_bytes() == responses[1].to_bytes() \
        == responses[3].to_bytes()
    assert server.recovery.count("server", "503") == 1
    assert server.recovery.count("server", "abort") == 1


def test_flaky_server_faults_hit_and_are_recovered():
    """The flaky-server plan's scripted ordinals fire exactly once each,
    the robot retries, and the full site still arrives intact.  (The
    client need not parse every 503: bytes queued behind a mid-pipeline
    abort die with the connection and their requests are simply
    requeued — so only the server-side counts are exact.)"""
    plan = FAULT_PLANS["flaky-server"]
    result = run_experiment("pipelined", "first-time", environment="WAN",
                            profile="Apache", seed=0,
                            faults="flaky-server")
    assert len(result.fetch.responses) == 43
    assert all(r.status in (200, 304)
               for r in result.fetch.responses.values())
    recovery = result.fetch.recovery
    assert recovery.count("server", "503") == \
        len(plan.server.error_503_requests)
    assert recovery.count("server", "abort") == \
        len(plan.server.abort_requests)
    assert recovery.count("client", "retry") >= \
        len(plan.server.abort_requests)
    assert result.retries >= len(plan.server.abort_requests)


def test_hostile_server_forces_watchdog_and_downgrade():
    result = run_experiment("pipelined", "first-time", environment="WAN",
                            profile="Apache", seed=0,
                            faults="hostile-server")
    assert len(result.fetch.responses) == 43
    recovery = result.fetch.recovery
    assert recovery.count("server", "stall") == 1
    assert recovery.count("client", "watchdog") >= 1
    assert recovery.count("client", "downgrade") >= 1
    # The stall dominates the fetch time but the run still finishes.
    assert result.elapsed > FAULT_PLANS["hostile-server"] \
        .server.stall_seconds
