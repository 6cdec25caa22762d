"""Perf-counter surfacing through traces and averaged results."""

from repro.core.runner import AveragedResult, run_experiment


def test_trace_summary_carries_perf_counters():
    result = run_experiment("HTTP/1.1", "first-time", environment="LAN",
                            profile="Apache", seed=0)
    perf = result.trace.perf
    assert perf is not None
    assert perf.events_processed > 0
    assert perf.heap_peak > 0
    assert perf.segments >= result.packets


def test_lazy_timers_absorb_rearms():
    # Every ACKed segment used to pay a cancel+reschedule on the RTO
    # timer; the deadline-based timers absorb those as attribute writes.
    result = run_experiment("HTTP/1.1 Pipelined", "first-time",
                            environment="WAN", profile="Apache", seed=0)
    assert result.trace.perf.cancels_avoided > 0


def test_averaged_result_aggregates_perf():
    averaged = AveragedResult([
        run_experiment("HTTP/1.1", "first-time", environment="LAN",
                       profile="Apache", seed=seed) for seed in range(2)])
    per_run = [r.trace.perf for r in averaged.runs]
    total = averaged.perf
    assert total.events_processed == sum(p.events_processed
                                         for p in per_run)
    assert total.segments == sum(p.segments for p in per_run)
    assert total.heap_peak == max(p.heap_peak for p in per_run)
