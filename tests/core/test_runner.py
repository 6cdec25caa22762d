"""Integration tests for the experiment runner and headline claims.

These encode the paper's qualitative conclusions — the "shape" the
reproduction must preserve — as assertions.
"""

import pytest

from repro.core import (FIRST_TIME, HTTP10_MODE,
                        HTTP11_PERSISTENT, HTTP11_PIPELINED,
                        HTTP11_PIPELINED_COMPRESSED, REVALIDATE,
                        AveragedResult, ExperimentError,
                        modes_for_environment, run_experiment)
from repro.server import APACHE, JIGSAW
from repro.simnet import LAN, PPP, WAN


@pytest.fixture(scope="module")
def lan_cells():
    """All (mode, scenario) cells for Apache/LAN, single seed."""
    cells = {}
    for mode in modes_for_environment(LAN, paper_only=True):
        for scenario in (FIRST_TIME, REVALIDATE):
            cells[(mode.name, scenario)] = run_experiment(
                mode, scenario, environment=LAN, profile=APACHE, seed=0)
    return cells


def test_all_runs_complete_and_verify(lan_cells):
    for result in lan_cells.values():
        assert result.fetch.complete
        assert not result.fetch.errors


def test_first_time_statuses_all_200(lan_cells):
    result = lan_cells[("HTTP/1.1 Pipelined", FIRST_TIME)]
    assert result.statuses == {200: 43}


def test_revalidation_statuses_for_http11(lan_cells):
    result = lan_cells[("HTTP/1.1 Pipelined", REVALIDATE)]
    assert result.statuses == {304: 43}


def test_http10_uses_43_connections_4_parallel(lan_cells):
    result = lan_cells[("HTTP/1.0", FIRST_TIME)]
    assert result.connections_used == 43
    assert result.max_parallel_connections == 4
    http11 = lan_cells[("HTTP/1.1", FIRST_TIME)]
    assert http11.connections_used == 1


# ----------------------------------------------------------------------
# Headline claims
# ----------------------------------------------------------------------
def test_pipelining_saves_at_least_2x_packets_first_time(lan_cells):
    """'The savings were at least a factor of two ... in terms of
    packets transmitted.'"""
    http10 = lan_cells[("HTTP/1.0", FIRST_TIME)]
    pipelined = lan_cells[("HTTP/1.1 Pipelined", FIRST_TIME)]
    assert http10.packets / pipelined.packets >= 2.0


def test_pipelining_saves_order_of_magnitude_on_revalidation(lan_cells):
    """'...and sometimes as much as a factor of ten' — revalidation
    'uses less than 1/10 of the total number of packets that HTTP/1.0
    does'."""
    http10 = lan_cells[("HTTP/1.0", REVALIDATE)]
    pipelined = lan_cells[("HTTP/1.1 Pipelined", REVALIDATE)]
    assert http10.packets / pipelined.packets >= 10.0


def test_persistent_without_pipelining_not_faster_than_http10():
    """'An HTTP/1.1 implementation that does not implement pipelining
    will perform worse (have higher elapsed time) than an HTTP/1.0
    implementation using multiple connections.'  (Strongest on WAN.)"""
    http10 = run_experiment(HTTP10_MODE, FIRST_TIME, environment=WAN,
                            profile=APACHE, seed=0)
    persistent = run_experiment(HTTP11_PERSISTENT, FIRST_TIME, environment=WAN,
                                profile=APACHE, seed=0)
    assert persistent.elapsed > http10.elapsed
    # ...while using far fewer packets.
    assert persistent.packets < http10.packets / 1.5


def test_pipelined_beats_http10_elapsed_everywhere():
    for environment in (LAN, WAN):
        http10 = run_experiment(HTTP10_MODE, FIRST_TIME,
                                environment=environment,
                                profile=APACHE, seed=0)
        pipelined = run_experiment(HTTP11_PIPELINED, FIRST_TIME,
                                   environment=environment, profile=APACHE,
                                   seed=0)
        assert pipelined.elapsed < http10.elapsed


def test_first_time_bandwidth_savings_are_few_percent(lan_cells):
    """'For the first time retrieval test, bandwidth savings due to
    pipelining and persistent connections of HTTP/1.1 is only a few
    percent.'"""
    http10 = lan_cells[("HTTP/1.0", FIRST_TIME)]
    pipelined = lan_cells[("HTTP/1.1 Pipelined", FIRST_TIME)]
    saving = 1 - pipelined.payload_bytes / http10.payload_bytes
    assert 0.0 <= saving <= 0.15


def test_compression_cuts_payload_about_19_percent(lan_cells):
    """'we decrease the overall payload with about 31K or approximately
    19%' (first-time retrieval)."""
    plain = lan_cells[("HTTP/1.1 Pipelined", FIRST_TIME)]
    compressed = lan_cells[
        ("HTTP/1.1 Pipelined w. compression", FIRST_TIME)]
    saving = 1 - compressed.payload_bytes / plain.payload_bytes
    assert 0.12 <= saving <= 0.25


def test_compression_saves_packets_and_time_first_time(lan_cells):
    """'about 16% of the packets and 12% of the elapsed time'."""
    plain = lan_cells[("HTTP/1.1 Pipelined", FIRST_TIME)]
    compressed = lan_cells[
        ("HTTP/1.1 Pipelined w. compression", FIRST_TIME)]
    assert compressed.packets < plain.packets
    assert compressed.elapsed <= plain.elapsed * 1.02


def test_overhead_percentage_higher_for_http10(lan_cells):
    """Small packets mean high header overhead: HTTP/1.0 revalidation
    pays ~20% where pipelining pays ~7%."""
    http10 = lan_cells[("HTTP/1.0", REVALIDATE)]
    pipelined = lan_cells[("HTTP/1.1 Pipelined", REVALIDATE)]
    assert http10.percent_overhead > 15.0
    assert pipelined.percent_overhead < 10.0


def test_mean_packet_size_roughly_doubles(lan_cells):
    """'The mean size of a packet in our traffic roughly doubled.'"""
    http10 = lan_cells[("HTTP/1.0", FIRST_TIME)]
    pipelined = lan_cells[("HTTP/1.1 Pipelined", FIRST_TIME)]
    assert pipelined.mean_packet_size > 1.5 * http10.mean_packet_size


def test_packet_trains_lengthen(lan_cells):
    """'The mean number of packets in a TCP session increased between a
    factor of two and a factor of ten.'"""
    http10 = lan_cells[("HTTP/1.0", FIRST_TIME)]
    pipelined = lan_cells[("HTTP/1.1 Pipelined", FIRST_TIME)]
    ratio = (pipelined.mean_packets_per_connection
             / http10.mean_packets_per_connection)
    assert ratio > 2.0


def test_ppp_elapsed_is_bandwidth_dominated():
    """PPP first-time ≈ payload / effective modem rate."""
    result = run_experiment(HTTP11_PIPELINED, FIRST_TIME, environment=PPP,
                            profile=APACHE,
                            seed=0)
    floor = result.payload_bytes * 8.3 / 28_800 * 0.8
    assert result.elapsed > floor


# ----------------------------------------------------------------------
# Runner machinery
# ----------------------------------------------------------------------
def test_run_repeated_averages(lan_cells):
    averaged = AveragedResult([
        run_experiment(HTTP11_PIPELINED, REVALIDATE, environment=LAN,
                       profile=APACHE, seed=seed) for seed in range(3)])
    assert len(averaged.runs) == 3
    packets = [r.packets for r in averaged.runs]
    assert min(packets) <= averaged.packets <= max(packets)


def test_same_seed_same_result():
    a = run_experiment(HTTP11_PIPELINED, FIRST_TIME, environment=LAN,
                       profile=APACHE, seed=7)
    b = run_experiment(HTTP11_PIPELINED, FIRST_TIME, environment=LAN,
                       profile=APACHE, seed=7)
    assert a.packets == b.packets
    assert a.elapsed == b.elapsed


def test_different_seeds_vary_elapsed():
    a = run_experiment(HTTP11_PIPELINED, FIRST_TIME, environment=WAN,
                       profile=APACHE, seed=1)
    b = run_experiment(HTTP11_PIPELINED, FIRST_TIME, environment=WAN,
                       profile=APACHE, seed=2)
    assert a.elapsed != b.elapsed


def test_verify_names_missing_and_unexpected_urls(lan_cells):
    import dataclasses
    from repro.content import build_microscape_site
    from repro.core.runner import _verify
    fetch = lan_cells[("HTTP/1.1 Pipelined", FIRST_TIME)].fetch
    responses = dict(fetch.responses)
    responses["/gifs/fused.gif"] = responses.pop("/gifs/hero.gif")
    with pytest.raises(ExperimentError) as raised:
        _verify(dataclasses.replace(fetch, responses=responses),
                FIRST_TIME, HTTP11_PIPELINED.client_config(),
                build_microscape_site())
    assert str(raised.value) == (
        "missing responses for ['/gifs/hero.gif']; "
        "unexpected responses for ['/gifs/fused.gif']")


def test_the_modem_cells_are_content_checked(monkeypatch):
    # §8.2.1's HTML-only GET asks for the HTML alone, and a server that
    # serves other bytes for it must quarantine the cell, not average it.
    from repro.analysis.report import modem_specs
    from repro.content import build_microscape_site
    from repro.core import runner
    from repro.matrix import MatrixRunner
    from repro.server.static import ResourceStore
    site = build_microscape_site()
    # A private store: the edit below must not reach the shared one.
    store = ResourceStore.from_site(site)
    store.update(site.html_url, site.html.body + b"<!-- altered -->")
    monkeypatch.setattr(runner, "_DEFAULT_SITE_AND_STORE", (site, store))
    cell = MatrixRunner().run(modem_specs(1)[("Apache", "uncompressed")])
    assert cell.runs == []
    [failure] = cell.failures
    assert failure.kind == "exception"
    assert "body mismatch" in failure.error
