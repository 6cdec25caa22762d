"""Perf-counter surfacing through traces."""

from repro.core.runner import run_experiment


def test_trace_summary_carries_perf_counters():
    result = run_experiment("HTTP/1.1", "first-time", environment="LAN",
                            profile="Apache", seed=0)
    perf = result.perf
    assert perf["events_processed"] > 0
    assert perf["heap_peak"] > 0
    assert perf["segments"] >= result.packets


def test_lazy_timers_absorb_rearms():
    # Every ACKed segment used to pay a cancel+reschedule on the RTO
    # timer; the deadline-based timers absorb those as attribute writes.
    result = run_experiment("HTTP/1.1 Pipelined", "first-time",
                            environment="WAN", profile="Apache", seed=0)
    assert result.perf["cancels_avoided"] > 0
