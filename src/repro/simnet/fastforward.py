"""Flow-level fast-forward: analytic advance of steady bulk transfers.

A long response body (the paper's Microscape GIFs over PPP, the
megabyte pages of the follow-on studies) spends almost all of its
simulated life in one regime: the sender is window-limited, ACK
clocking releases a burst of full-size segments per acknowledgement,
and the receiver's delayed-ACK machinery ticks along a fixed rule.  Per
:class:`~repro.simnet.engine.Simulator` event that regime costs a heap
push and pop of an ``[time, seq, callback, args]`` entry, a
:class:`~repro.simnet.packet.Segment` allocation, and a dispatch
through the full TCP receive path — none of which can change the
outcome, because the outcome is determined by closed-form arithmetic
over the connection state.

:class:`FastForward` exploits that: when the TCP layer flags a
window-limited sender with a deep send queue, the driver checks a
strict eligibility predicate, takes ownership of the flow's in-flight
delivery and timer entries (the engine's heap lists, moved out and
back as they are), and replays the per-segment
arithmetic in one closure-free loop — same floats, same jitter draws
(``Random.uniform``'s own expression, inline), same trace rows —
without touching the heap.  At the first discontinuity (another flow's
event, an application callback doing anything at all, a
retransmission-timer deadline, a send queue running low, an exact
event-time tie) it reconciles the connection state and hands back to
the engine, which resumes per-segment execution.  Results are **byte
identical** to the slow path by construction; the golden-trace fixtures
and the chaos grid enforce it.

Eligibility (all must hold, checked before every span):

* link: no fault injector, zero loss rate, unbounded queue;
* sender: ESTABLISHED, past slow-start handshake accounting, not in
  recovery or backoff, no FIN sent or received, no reassembly backlog,
  a contiguous retransmit queue covering exactly ``[snd_una, snd_nxt)``,
  a send queue at least :attr:`min_queue_bytes` deep, and no
  unprofitability veto (a flow whose earlier span synthesized fewer
  than :data:`_MIN_PROFITABLE_SYNTH` segments runs per-segment for
  the rest of its life — the heap surgery costs more than it saves);
* receiver: ESTABLISHED, nothing to send, nothing in flight, no
  reassembly backlog, consistent delayed-ACK state;
* every in-flight segment between the two is either a contiguous
  full-ACK data segment or a plain pure ACK (no flags, no checksum).

The sender's window is ``min(cwnd, RWND)``: every endpoint advertises
the constant :data:`~repro.simnet.tcp.RWND`, so no window update can
arrive mid-span.

Anything else — loss, FIN, Nagle tails, fault injection, a second
flow joining the link — fails the predicate or bounds the span's
horizon, and the flow falls back to per-segment execution at exactly
the point the discontinuity occurs.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Tuple

from .engine import Simulator
from .link import Link
from .packet import HEADER_BYTES, Segment
from .tcp import (DELACK_SEGMENTS, RTO_MAX, RTO_MIN, RWND, TcpConnection,
                  TcpStack)
from .trace import TraceCollector

__all__ = ["FastForward"]

_INF = float("inf")

#: A span that synthesized fewer segments than this did not pay for
#: its heap scan and two heap rebuilds; the sending connection is
#: vetoed and runs per-segment thereafter (see ``_eligible``).
_MIN_PROFITABLE_SYNTH = 16

#: Send-queue depth, in full segments, below which a flow is never a
#: candidate.  A span pays a heap scan plus two heap rebuilds; on
#: request/response traffic (a 35 KB GIF, interleaved client events
#: bounding the horizon) spans synthesize only a couple of segments and
#: the surgery costs more than it saves.  32 full segments (~46 KB) sits
#: above every Microscape object and far below any bulk transfer worth
#: fast-forwarding.
_MIN_QUEUE_SEGMENTS = 32


class FastForward:
    """Analytic fast-forward driver for one :class:`Link`'s flows.

    Wired up by the network layer (one driver per
    :class:`~repro.simnet.network.Network`) and consulted by
    :meth:`Simulator.run` between events whenever the TCP layer has
    flagged a steady bulk-transfer candidate via :meth:`note_candidate`.
    """

    __slots__ = ("sim", "link", "collector", "stacks", "min_queue_bytes",
                 "pending")

    def __init__(self, sim: Simulator, link: Link,
                 stacks: Tuple[TcpStack, ...],
                 collector: TraceCollector) -> None:
        self.sim = sim
        self.link = link
        self.collector = collector
        self.stacks = stacks
        #: Send-queue depth below which a flow is never a candidate.
        self.min_queue_bytes = _MIN_QUEUE_SEGMENTS * max(
            stack.config.mss for stack in stacks)
        #: The connection flagged by the TCP layer, or None.  The engine
        #: polls this between events.
        self.pending: Optional[TcpConnection] = None
        sim.fastforward = self
        for stack in stacks:
            stack.fastforward = self

    def note_candidate(self, conn: TcpConnection) -> None:
        """Flag ``conn`` as a window-limited bulk sender (TCP layer)."""
        if not conn._ff_unprofitable:
            self.pending = conn

    # ------------------------------------------------------------------
    # Eligibility
    # ------------------------------------------------------------------
    def _peer_of(self, sender: TcpConnection) -> Optional[TcpConnection]:
        """The receiving endpoint of ``sender``'s connection, if wired."""
        for stack in self.stacks:
            if stack.host == sender.peer:
                return stack._connections.get(
                    (sender.peer_port, sender.local_host,
                     sender.local_port))
        return None

    def _eligible(self, s: TcpConnection) -> Optional[TcpConnection]:
        """Return the peer connection when a span may start, else None.

        Ordered cheapest-first so ineligible configurations (chaos
        runs) pay a handful of attribute compares per candidate and
        nothing more.
        """
        link = self.link
        if (link.fault_injector is not None or link.loss_rate
                or link.queue_limit_packets is not None):
            return None
        if s._ff_unprofitable:
            return None
        # Sender: steady ESTABLISHED bulk state, nothing exotic.
        if (s.state != "ESTABLISHED" or not s._syn_acked or s._fin_sent
                or s._in_recovery or s._dup_acks != 0
                or s._rto_backoff != 1):
            return None
        if s._segments_unacked != 0 or s._delack_timer.deadline is not None:
            return None
        if s._reassembly or s._receive_shutdown or s._fin_received:
            return None
        if len(s._send_queue) < self.min_queue_bytes:
            return None
        c = self._peer_of(s)
        if c is None:
            return None
        # Receiver: pure sink — nothing queued, nothing in flight.
        if (c.state != "ESTABLISHED" or not c._syn_acked
                or c._send_queue or c._retransmit_queue
                or c._fin_queued or c._fin_sent or c._in_recovery
                or c.snd_una != c.snd_nxt):
            return None
        if c._reassembly or c._receive_shutdown or c._fin_received:
            return None
        if c._rto_timer.deadline is not None:
            return None
        # Delayed-ACK state must be internally consistent and below the
        # immediate-ACK threshold (at the threshold an ACK would already
        # have been sent).
        unacked = c._segments_unacked
        if unacked >= DELACK_SEGMENTS:
            return None
        if (unacked > 0) != (c._delack_timer.deadline is not None):
            return None
        # The two endpoints must agree: every byte the receiver has
        # ACKed has been processed.
        if s.rcv_nxt != c.snd_nxt:
            return None
        # Sender's retransmit queue covers exactly [snd_una, snd_nxt)
        # with plain data segments (no SYN/FIN stragglers, no holes).
        retq = s._retransmit_queue
        if not retq or s._rto_timer.deadline is None:
            return None
        expect = s.snd_una
        for seg in retq:
            if seg.flag_syn or seg.flag_fin or seg.seq != expect:
                return None
            expect = seg.end_seq
        if expect != s.snd_nxt:
            return None
        return c

    # ------------------------------------------------------------------
    # Span execution
    # ------------------------------------------------------------------
    def attempt(self, until: Optional[float]) -> None:
        """Try to fast-forward the flagged candidate (engine hook)."""
        s = self.pending
        self.pending = None
        if s is None:
            return
        c = self._eligible(s)
        if c is not None:
            self._span(s, c, until)

    def _span(self, s: TcpConnection, c: TcpConnection,
              until: Optional[float]) -> None:
        sim = self.sim
        link = self.link
        col = self.collector

        # ---- Scan the heap: claim this flow's events, bound the rest.
        rto_standing = s._rto_timer._standing
        delack_standing = c._delack_timer._standing
        # The link schedules each delivery straight to its receiver.
        recv_s = link._receivers.get(s.local_host)
        recv_c = link._receivers.get(c.local_host)
        s_addr = (s.local_host, s.local_port)
        c_addr = (c.local_host, c.local_port)
        data_entries = []       # deliveries S -> C (data or pure ACK)
        ack_entries = []        # deliveries C -> S (pure ACKs)
        timer_entries = []
        horizon = until if until is not None else _INF
        for entry in sim._heap:
            callback = entry[2]
            if callback is None:
                continue
            if entry is rto_standing or entry is delack_standing:
                timer_entries.append(entry)
                continue
            if callback is recv_c or callback is recv_s:
                seg = entry[3][0]
                src = (seg.src, seg.sport)
                dst = (seg.dst, seg.dport)
                if src == s_addr and dst == c_addr:
                    data_entries.append(entry)
                    continue
                if src == c_addr and dst == s_addr:
                    ack_entries.append(entry)
                    continue
            if entry[0] < horizon:
                horizon = entry[0]
        # Entries order on their unique (time, seq) prefix.
        data_entries.sort()
        ack_entries.sort()

        # A stepwise capacity schedule (fleet bottleneck shares) keeps
        # the rate constant within an epoch; the span must not cross the
        # next boundary, so the single cached rate below stays exact.
        if link._capacity_shares is not None:
            boundary = link.next_capacity_change(sim.now)
            if boundary < horizon:
                horizon = boundary

        # ---- Validate the in-flight picture against the steady state.
        s_rcv = s.rcv_nxt
        expect = c.rcv_nxt
        for entry in data_entries:
            seg = entry[3][0]
            if (seg.flag_syn or seg.flag_fin or seg.flag_rst
                    or seg.checksum is not None or not seg.flag_ack
                    or seg.ack != s_rcv):
                return
            if seg.payload_len:
                if seg.seq != expect:
                    return
                expect = seg.end_seq
        if expect != s.snd_nxt:
            return
        last_ack = s.snd_una
        for entry in ack_entries:
            seg = entry[3][0]
            if (seg.payload_len or seg.flag_syn or seg.flag_fin
                    or seg.flag_rst or seg.flag_psh or not seg.flag_ack
                    or seg.checksum is not None or seg.ack <= last_ack):
                return
            last_ack = seg.ack
        if last_ack > c.rcv_nxt:
            return

        # ---- Take ownership: pull our events out of the heap.
        extracted = data_entries + ack_entries + timer_entries
        sim.extract_events(extracted)
        seq0 = sim._seq

        # ---- Local mirrors of the per-segment state machine.
        mss = s.config.mss
        mss_sq = mss * mss
        wnd = RWND
        snd_una = s.snd_una
        snd_nxt = s.snd_nxt
        snd_nxt0 = snd_nxt
        cwnd = s.cwnd
        ssthresh = s.ssthresh
        srtt = s._srtt
        rttvar = s._rttvar
        rtt_sample = s._rtt_sample
        rto_deadline = s._rto_timer.deadline
        queue = s._send_queue
        qlen = len(queue)
        qpos = 0

        rcv_c = c.rcv_nxt
        unacked_c = c._segments_unacked
        delack_deadline = c._delack_timer.deadline
        das = DELACK_SEGMENTS
        period = c.config.delack_delay

        comp_d = link._compressors.get((s.local_host, c.local_host))
        comp_a = link._compressors.get((c.local_host, s.local_host))
        dir_d = link.direction_key(s.local_host, c.local_host)
        dir_a = link.direction_key(c.local_host, s.local_host)
        nf = link._next_free
        bpb = link.bits_per_byte
        bw = link.bandwidth_at(sim.now)
        prop = link.propagation_delay
        # ``Random.uniform(a, b)`` is ``a + (b - a) * random()``.
        jit = link.jitter
        jit_lo = -jit
        jit_width = jit - jit_lo
        rand = link.rng.random

        s_host, s_port = s_addr
        c_host, c_port = c_addr
        app_time = col._times.append
        app_src = col._srcs.append
        app_sport = col._sports.append
        app_dst = col._dsts.append
        app_dport = col._dports.append
        app_flags = col._flags.append
        app_seq = col._seqs.append
        app_ack = col._acks.append
        app_plen = col._payload_lens.append

        # FIFOs mirror the wire.  Extracted entries ride along so they
        # can be reinserted verbatim if undelivered at span end.
        #   d_fifo: (time, segment|None, queue_offset|None, entry|None,
        #            emit_order|None)           — S -> C deliveries
        #   a_fifo: (time, ack, client_seq, entry|None, emit_order|None)
        #            — C -> S pure-ACK deliveries
        #   retq:   (end_seq, segment|None, queue_offset|None)
        d_fifo = deque((e[0], e[3][0], None, e, None)
                       for e in data_entries)
        a_fifo = deque((e[0], e[3][0].ack, e[3][0].seq, e, None)
                       for e in ack_entries)
        retq = deque((seg.end_seq, seg, None)
                     for seg in s._retransmit_queue)

        made_payload = {}               # queue offset -> payload bytes
        delivered_times = {}            # queue offset -> delivery time
        emit_order = 0
        n_data_sent = 0
        n_acks_sent = 0
        processed = 0
        on_data = c.on_data

        while True:
            t_d = d_fifo[0][0] if d_fifo else _INF
            t_a = a_fifo[0][0] if a_fifo else _INF
            t_k = delack_deadline if delack_deadline is not None else _INF
            nxt = t_d if t_d < t_a else t_a
            if t_k < nxt:
                nxt = t_k
            if nxt >= horizon:
                break
            if rto_deadline is not None and nxt >= rto_deadline:
                # An RTO would fire first: that is a timeout, not steady
                # state — let the per-segment path take it.
                break
            # Exact ties between mini-event sources depend on engine
            # scheduling order; reconcile and let the engine replay them.
            # Exact-tie *detection* is the point: equal floats reproduce
            # equal per-segment ordering hazards, so the span
            # conservatively ends here.
            if (t_d == nxt) + (t_a == nxt) + (t_k == nxt) != 1:
                break

            if t_k == nxt:
                # Delayed-ACK heartbeat fires on C; with segments
                # unacknowledged it falls through to the pure ACK below.
                sim.now = t = nxt
                delack_deadline = None
                processed += 1
                if not unacked_c:
                    continue
                dirty = False

            elif t_a == nxt:
                # A pure ACK arrives at S: replicate _handle_ack + the
                # _try_send burst it unblocks.
                t, ack, _cseq, _entry, _order = a_fifo.popleft()
                # Pre-check: how many full segments will this ACK
                # release, and does the queue stay deep enough that
                # none of them is a PSH/FIN tail?
                growth = mss if cwnd < ssthresh \
                    else (mss_sq // cwnd if mss_sq // cwnd > 1 else 1)
                window2 = cwnd + growth
                if wnd < window2:
                    window2 = wnd
                avail2 = window2 - (snd_nxt - ack)
                k = avail2 // mss if avail2 > 0 else 0
                if qlen - qpos < k * mss + mss:
                    a_fifo.appendleft((t, ack, _cseq, _entry, _order))
                    break
                sim.now = t
                if rtt_sample is not None and ack >= rtt_sample[0]:
                    sample = t - rtt_sample[1]
                    if srtt is None:
                        srtt = sample
                        rttvar = sample / 2
                    else:
                        delta = sample - srtt
                        srtt += 0.125 * delta
                        rttvar += 0.25 * (abs(delta) - rttvar)
                    rtt_sample = None
                # ``TcpConnection._current_rto``, for every timer this
                # ACK arms.
                rto = 3.0 if srtt is None else srtt + 4 * rttvar
                rto = RTO_MIN if rto < RTO_MIN else min(rto, RTO_MAX)
                snd_una = ack
                while retq and retq[0][0] <= ack:
                    retq.popleft()
                rto_deadline = t + rto if retq else None
                cwnd += growth
                window = cwnd if cwnd < wnd else wnd
                while window - (snd_nxt - snd_una) >= mss:
                    seq = snd_nxt
                    app_time(t)
                    app_src(s_host)
                    app_sport(s_port)
                    app_dst(c_host)
                    app_dport(c_port)
                    app_flags("A")
                    app_seq(seq)
                    app_ack(s_rcv)
                    app_plen(mss)
                    if comp_d is not None:
                        payload = bytes(queue[qpos:qpos + mss])
                        made_payload[qpos] = payload
                        wire = HEADER_BYTES + comp_d.wire_bytes(payload)
                    else:
                        wire = mss + HEADER_BYTES
                    tx = wire * bpb / bw
                    if jit:
                        tx *= 1.0 + (jit_lo + jit_width * rand())
                    free = nf.get(dir_d, 0.0)
                    start = free if free > t else t
                    finish = start + tx
                    nf[dir_d] = finish
                    emit_order += 1
                    d_fifo.append((finish + prop, None, qpos, None,
                                   emit_order))
                    snd_nxt = seq + mss
                    retq.append((snd_nxt, None, qpos))
                    if rtt_sample is None:
                        rtt_sample = (snd_nxt, t)
                    if rto_deadline is None:
                        rto_deadline = t + rto
                    n_data_sent += 1
                    qpos += mss
                processed += 1
                continue

            else:
                # A delivery arrives at C (data, or a pre-span pure ACK).
                t, seg, qoff, entry, _order = d_fifo.popleft()
                sim.now = t
                if seg is not None:
                    payload = seg.payload
                else:
                    delivered_times[qoff] = t
                    payload = made_payload.get(qoff)
                    if payload is None:
                        payload = bytes(queue[qoff:qoff + mss])
                processed += 1
                if not payload:
                    continue
                rcv_c += len(payload)
                unacked_c += 1
                # Sync the live receiver before the application callback,
                # exactly as per-segment ``_absorb`` does: a callback
                # that sends (a pipelined request batch, a MUX credit)
                # reads ``rcv_nxt`` for its piggybacked ACK and cancels
                # the delayed ACK as the ACK rides along.
                c.rcv_nxt = rcv_c
                c.bytes_received += len(payload)
                c._segments_unacked = unacked_c
                c._delack_timer.deadline = delack_deadline
                on_data(c, payload)
                dirty = (sim._seq != seq0 or c._send_queue
                         or c._fin_queued or c._receive_shutdown
                         or c.state != "ESTABLISHED")
                # Adopt whatever the callback did to the delayed-ACK
                # state (a send zeroes the counter and disarms the timer
                # — the ACK rode along).
                unacked_c = c._segments_unacked
                delack_deadline = c._delack_timer.deadline
                # Replicate _schedule_ack (runs after on_data, as in
                # ``_receive``): below the threshold, arm the heartbeat;
                # at it, fall through to the pure ACK below.
                if unacked_c < das:
                    if delack_deadline is None:
                        delack_deadline = (int(t / period) + 1) * period
                    if dirty:
                        # The application did something (new request,
                        # close): per-segment execution takes over right
                        # after this segment, exactly as it would have.
                        break
                    continue

            # C sends a pure ACK at ``t``: ``TcpConnection._send_pure_ack``.
            unacked_c = 0
            delack_deadline = None
            cseq = c.snd_nxt            # live: a mid-span app send moves it
            app_time(t)
            app_src(c_host)
            app_sport(c_port)
            app_dst(s_host)
            app_dport(s_port)
            app_flags("A")
            app_seq(cseq)
            app_ack(rcv_c)
            app_plen(0)
            if comp_a is not None:
                wire = HEADER_BYTES + comp_a.wire_bytes(b"")
            else:
                wire = HEADER_BYTES
            tx = wire * bpb / bw
            if jit:
                tx *= 1.0 + (jit_lo + jit_width * rand())
            free = nf.get(dir_a, 0.0)
            start = free if free > t else t
            finish = start + tx
            nf[dir_a] = finish
            emit_order += 1
            a_fifo.append((finish + prop, rcv_c, cseq, None, emit_order))
            n_acks_sent += 1
            if dirty:
                break

        if processed == 0:
            # Nothing advanced: put every extracted entry back verbatim
            # (original times *and* sequence numbers — tie-break order
            # is untouched) and report nothing.
            for entry in extracted:
                sim.reinsert_entry(entry)
            return

        # ---- Reconcile: write the mirrors back and restore the heap.
        made = {}
        new_retq = []
        for _end, seg, qoff in retq:
            if seg is None:
                seg = made[qoff] = _materialize(
                    s, c, qoff, snd_nxt0, made_payload, delivered_times)
            new_retq.append(seg)
        s._retransmit_queue[:] = new_retq
        s.snd_una = snd_una
        s.snd_nxt = snd_nxt
        s.cwnd = cwnd
        s._srtt = srtt
        s._rttvar = rttvar
        s._rtt_sample = rtt_sample
        s._rto_timer.fast_forward(rto_deadline)

        # rcv_nxt and bytes_received were kept live in the delivery loop
        # (a callback that sends reads rcv_nxt); only the delayed-ACK
        # view remains.
        c._segments_unacked = unacked_c
        c._delack_timer.fast_forward(delack_deadline)

        # Undelivered traffic goes back on the heap: extracted entries
        # verbatim, synthesized ones in emission order (matching the
        # sequence numbers per-segment scheduling would have assigned).
        pending_synth = []      # (time, emit_order, receiver, segment)
        for t, seg, qoff, entry, order in d_fifo:
            if entry is not None:
                sim.reinsert_entry(entry)
            else:
                seg = made.get(qoff)
                if seg is None:
                    seg = _materialize(s, c, qoff, snd_nxt0, made_payload,
                                       delivered_times)
                pending_synth.append((t, order, recv_c, seg))
        for t, ack, cseq, entry, order in a_fifo:
            if entry is not None:
                sim.reinsert_entry(entry)
            else:
                pending_synth.append((t, order, recv_s, Segment(
                    c_host, c_port, s_host, s_port, seq=cseq, ack=ack,
                    flag_ack=True)))
        pending_synth.sort(key=lambda item: (item[0], item[1]))
        schedule_at = sim.schedule_at
        for t, _order, receiver, seg in pending_synth:
            seg.delivered_at = t
            schedule_at(t, receiver, seg)

        del queue[:qpos]
        perf = sim.perf
        perf.segments += n_data_sent + n_acks_sent
        perf.fastforward_spans += 1
        perf.segments_synthesized += n_data_sent + n_acks_sent
        if n_data_sent + n_acks_sent < _MIN_PROFITABLE_SYNTH:
            # Application callbacks (a pipelined request batch every
            # few segments) break every span on this flow early; the
            # surgery costs more than the synthesized segments save.
            s._ff_unprofitable = True


def _materialize(s: TcpConnection, c: TcpConnection, qoff: int, seq0: int,
                 made_payload: dict, delivered_times: dict) -> Segment:
    """The :class:`Segment` the span sent from send-queue offset
    ``qoff``; ``seq0`` is the sequence number of offset 0."""
    payload = made_payload.get(qoff)
    if payload is None:
        payload = bytes(s._send_queue[qoff:qoff + s.config.mss])
    return Segment(s.local_host, s.local_port, c.local_host, c.local_port,
                   seq=seq0 + qoff, ack=s.rcv_nxt, payload=payload,
                   flag_ack=True, delivered_at=delivered_times.get(qoff))
