"""The flow-level fast-forward driver: identity, engagement, fallback.

Every test compares against the per-segment path byte for byte — the
fast path's entire contract is that it is *unobservable* in the trace.
"""

import functools

import pytest

from repro.simnet.engine import SimulationError, Simulator
from repro.simnet.fastforward import FastForward
from repro.simnet.link import ENVIRONMENTS
from repro.simnet.network import SERVER_HOST, TwoHostNetwork


def _bulk(environment, size, *, fastpath, modem_compression=None,
          mutate=None, seed=0, on_data=None, **net_kwargs):
    """Stream ``size`` bytes server -> client; return the finished net.

    ``on_data(net, data)``, if given, also runs at every delivery.
    """
    net = TwoHostNetwork(ENVIRONMENTS[environment], seed=seed, jitter=0.02,
                         fastpath=fastpath,
                         modem_compression=modem_compression,
                         **net_kwargs)
    if mutate is not None:
        mutate(net)
    body = (bytes(range(256)) * (size // 256 + 1))[:size]

    def on_accept(conn):
        conn.on_connect = lambda c: c.send(body, close=True)

    net.server.listen(80, on_accept)
    received = [0]
    client = net.client.connect(SERVER_HOST, 80)

    def deliver(_conn, data):
        received[0] += len(data)
        if on_data is not None:
            on_data(net, data)

    client.on_data = deliver
    net.run()
    assert received[0] == size
    return net


def _identical(environment, size, **kwargs):
    fast = _bulk(environment, size, fastpath=True, **kwargs)
    slow = _bulk(environment, size, fastpath=False, **kwargs)
    assert fast.trace.records == slow.trace.records
    assert slow.sim.perf.fastforward_spans == 0
    return fast, slow


def test_wan_bulk_byte_identical_and_engages():
    fast, slow = _identical("WAN", 256 * 1024)
    perf = fast.sim.perf
    assert perf.fastforward_spans > 0
    assert perf.segments_synthesized > 0
    # The span replaced real event processing, not added to it.
    assert perf.events_processed < slow.sim.perf.events_processed


def test_ppp_bulk_byte_identical_without_modem():
    fast, _slow = _identical("PPP", 128 * 1024, modem_compression=False)
    assert fast.sim.perf.fastforward_spans > 0


def test_ppp_bulk_byte_identical_with_modem_compression():
    # The LZW dictionary is stateful across segments: the span must
    # feed it the exact same payloads in the exact same order.
    fast, _slow = _identical("PPP", 64 * 1024, modem_compression=True)
    assert fast.sim.perf.fastforward_spans > 0
    assert fast.modem_down.raw_bytes == _slow.modem_down.raw_bytes
    assert (fast.modem_down.transmitted_bytes
            == _slow.modem_down.transmitted_bytes)


def test_lan_bulk_byte_identical():
    fast, _slow = _identical("LAN", 512 * 1024)
    assert fast.sim.perf.fastforward_spans > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("environment", ["LAN", "WAN", "PPP"])
def test_bulk_byte_identical_across_seeds(environment, seed):
    # Each seed draws its own link jitter: a span whose jitter draws
    # drift from the link's own ``Random.uniform`` calls shows here.
    fast, _slow = _identical(environment, 256 * 1024, seed=seed)
    assert fast.sim.perf.fastforward_spans > 0


def test_mid_span_trace_reads_match_per_segment():
    # A receiver that reads the trace at every delivery sees the rows
    # and payload total the per-segment path would show at that instant
    # (the span appends rows without any per-packet bookkeeping).
    def run(fastpath):
        seen = []

        def on_data(net, _data):
            records = net.trace.records
            seen.append((len(net.trace), len(records),
                         net.trace.summary().payload_bytes,
                         sum(r.payload_len for r in records)))

        net = _bulk("WAN", 256 * 1024, fastpath=fastpath, on_data=on_data)
        return net, seen

    (fast, fast_seen), (slow, slow_seen) = run(True), run(False)
    assert fast.sim.perf.fastforward_spans > 0
    assert fast_seen == slow_seen
    # Neither the records memo nor the payload total is ever stale.
    assert all(rows == records and payload == total
               for rows, records, payload, total in fast_seen)
    assert fast.trace.records == slow.trace.records


def test_span_loop_keeps_its_state_out_of_cells():
    # A nested function that closes over the span's locals turns every
    # one of them into a cell, and each per-packet read of a cell costs
    # time on the bulk_kernel benchmark workload.
    assert FastForward._span.__code__.co_cellvars == (), (
        "FastForward._span must not define closures over its loop state")


def test_network_fastpath_flag_disables_driver():
    net = _bulk("WAN", 64 * 1024, fastpath=False)
    assert net.fastforward is None
    assert net.sim.perf.fastforward_spans == 0


def test_lossy_link_never_fast_forwards():
    def add_loss(net):
        net.link.loss_rate = 0.05

    fast = _bulk("WAN", 64 * 1024, fastpath=True, mutate=add_loss)
    slow = _bulk("WAN", 64 * 1024, fastpath=False, mutate=add_loss)
    assert fast.sim.perf.fastforward_spans == 0
    assert fast.trace.records == slow.trace.records


def test_droptail_queue_never_fast_forwards():
    def limit(net):
        net.link.queue_limit_packets = 64

    fast = _bulk("WAN", 64 * 1024, fastpath=True, mutate=limit)
    slow = _bulk("WAN", 64 * 1024, fastpath=False, mutate=limit)
    assert fast.sim.perf.fastforward_spans == 0
    assert fast.trace.records == slow.trace.records


def test_short_transfer_never_fast_forwards():
    # Below min_queue_bytes the TCP layer never flags a candidate:
    # short responses are all Nagle/PSH/FIN tail.
    net = _bulk("WAN", 2 * 1460, fastpath=True)
    assert net.sim.perf.fastforward_spans == 0


def test_http_pipelined_run_byte_identical(monkeypatch):
    # Full-stack identity through run_experiment.  Pipelined responses
    # queue back-to-back, so the driver probes once — and the span,
    # broken immediately by the client's next request batch, trips the
    # profitability veto: the rest of the page runs per-segment with
    # no further heap surgery.  The per-segment reference is the same
    # run on networks built without fast-forward.
    from repro.core import runner

    def run():
        return runner.run_experiment("HTTP/1.1 Pipelined", "first-time",
                                     environment="WAN", profile="Apache",
                                     seed=0, keep_trace=True)

    fast = run()
    monkeypatch.setattr(runner, "Network",
                        functools.partial(runner.Network, fastpath=False))
    slow = run()
    assert slow.perf["fastforward_spans"] == 0
    assert fast.trace_lines == slow.trace_lines
    # The profitability veto allows at most one probe span per
    # connection before per-segment execution takes over for good.
    assert fast.perf["fastforward_spans"] <= 1


def test_dirty_callback_mid_span_byte_identical():
    # The MUX-credit regime, distilled: the receiver sends a small
    # frame from inside on_data mid-span.  The callback must observe
    # exact live receiver state (rcv_nxt feeds the piggybacked ACK)
    # and its delayed-ACK cancel must survive into the span's
    # replicated _schedule_ack.  The default profitability threshold
    # keeps the driver out of flows with interleaved chatter, so arm
    # it lower explicitly to force engagement.
    def run(fastpath):
        net = TwoHostNetwork(ENVIRONMENTS["WAN"], seed=0, jitter=0.02,
                             fastpath=fastpath)
        if net.fastforward is not None:
            net.fastforward.min_queue_bytes = 4 * 1460
        body = (bytes(range(256)) * 257)[:64 * 1024]

        def on_accept(conn):
            conn.on_connect = lambda c: c.send(body, close=True)

        net.server.listen(80, on_accept)
        state = {"got": 0, "credited": 0}
        client = net.client.connect(SERVER_HOST, 80)

        def on_data(c, data):
            state["got"] += len(data)
            while (state["got"] - state["credited"] >= 16 * 1024
                   and state["credited"] < 48 * 1024):
                state["credited"] += 16 * 1024
                c.send(b"CREDIT 16384\r\n")

        client.on_data = on_data
        net.run()
        assert state["got"] == 64 * 1024
        return net

    fast, slow = run(True), run(False)
    assert fast.trace.records == slow.trace.records
    assert fast.sim.perf.fastforward_spans > 0


# ----------------------------------------------------------------------
# Engine surgery: extract / reinsert bookkeeping
# ----------------------------------------------------------------------
def test_extract_and_reinsert_preserve_count_and_tie_order():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    middle = sim.schedule(1.0, fired.append, "b")
    sim.schedule(1.0, fired.append, "c")
    sim.extract_events([middle])
    assert sim.pending_events() == 2
    sim.reinsert_entry(middle)
    assert sim.pending_events() == 3
    sim.run()
    # Original (time, seq) preserved: tie-break order is untouched.
    assert fired == ["a", "b", "c"]
    assert sim.pending_events() == 0


def test_extract_unknown_event_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    other = Simulator().schedule(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.extract_events([other])


def test_cancel_while_extracted_does_not_double_count():
    # A timer disarm racing an extraction must not decrement the live
    # count twice: an extracted entry is marked as out of the heap.
    sim = Simulator()
    victim = sim.schedule(1.0, lambda: None)
    keeper = sim.schedule(2.0, lambda: None)
    sim.extract_events([victim])
    assert sim.pending_events() == 1
    sim.cancel(victim)                    # stray cancel: slot-only no-op
    assert sim.pending_events() == 1
    (entry,) = sim._heap
    assert entry is keeper                # heap untouched by the cancel
    sim.run()
    assert sim.pending_events() == 0


def test_reinsert_cancelled_event_raises():
    sim = Simulator()
    victim = sim.schedule(1.0, lambda: None)
    sim.extract_events([victim])
    sim.cancel(victim)
    with pytest.raises(SimulationError):
        sim.reinsert_entry(victim)


def test_pending_exact_when_cancelled_event_rescheduled_in_callback(
        monkeypatch):
    # The purge-accounting regression: an event cancelled and then
    # re-scheduled from inside its own callback window (a timer re-arm)
    # while the purge threshold is low must leave pending_events exact.
    from repro.simnet import engine
    monkeypatch.setattr(engine, "_PURGE_MIN_DEAD", 1)
    sim = Simulator()
    fired = []
    box = {}

    def rearm():
        sim.cancel(box["event"])          # cancel the standing event...
        box["event"] = sim.schedule(1.0, fired.append, "rearmed")
        # ...and force purge pressure while the replacement is pending.
        doomed = [sim.schedule(5.0, fired.append, "doomed")
                  for _ in range(4)]
        for event in doomed:
            sim.cancel(event)

    box["event"] = sim.schedule(2.0, fired.append, "original")
    sim.schedule(1.0, rearm)
    sim.run(until=1.5)
    assert sim.pending_events() == 1      # exactly the re-armed event
    sim.run()
    assert fired == ["rearmed"]
    assert sim.pending_events() == 0
