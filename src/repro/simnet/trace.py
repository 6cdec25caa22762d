"""tcpdump-style packet trace capture and summarization.

The paper's primary data-gathering tool was ``tcpdump`` on the client
host, post-processed into the Pa / Bytes / Sec / %ov columns of
Tables 3–11.  :class:`TraceCollector` plays the same role for the
simulator: it is a :class:`~repro.simnet.link.Link`'s one observer,
records every segment, and computes the same summary statistics, including
per-direction packet counts (Table 3 reports "packets from client to
server" and "packets from server to client" separately) and
packet-train lengths (the paper discusses mean packets per TCP
connection as an Internet-health metric).

Capture is **columnar**: :meth:`TraceCollector.capture` appends each
field to a parallel list (one ``list.append`` per field) instead of
allocating a frozen :class:`PacketRecord` dataclass per segment — the
collector sits on the per-packet hot path of every simulation.
Summaries and :meth:`TraceCollector.rows` (the tuples the unit-end
protocol check of :mod:`repro.simnet.checks` replays) read straight
from the columns; :attr:`TraceCollector.records` synthesizes
:class:`PacketRecord` objects on demand (memoized until the row count
changes) for tests and ``format_trace``.

The trace text format has one owner, :meth:`PacketRecord.format`; the
simulator never reads it back.  The golden fixtures under
``tests/simnet/fixtures`` are ``format_trace`` output, and their cells
are re-run and checked live rather than parsed.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Tuple

from ..perf import PerfCounters
from .link import Link
from .packet import HEADER_BYTES, Segment

__all__ = ["PacketRecord", "TraceSummary", "TraceCollector", "Row"]

#: One captured segment: ``(time, src, sport, dst, dport, flags, seq,
#: ack, payload_len)``, ``flags`` in tcpdump letters (``"PA"``).
Row = Tuple[float, str, int, str, int, str, int, int, int]


@dataclasses.dataclass(frozen=True)
class PacketRecord:
    """One captured segment, in client-side tcpdump style."""

    time: float
    src: str
    sport: int
    dst: str
    dport: int
    flags: str
    seq: int
    ack: int
    payload_len: int
    wire_size: int

    def format(self, start_time: float = 0.0) -> str:
        """Render one human-readable trace line."""
        return (f"{self.time - start_time:10.6f} {self.src}:{self.sport} > "
                f"{self.dst}:{self.dport} [{self.flags}] seq={self.seq} "
                f"ack={self.ack} len={self.payload_len}")


@dataclasses.dataclass
class TraceSummary:
    """Aggregate statistics over a captured trace.

    ``percent_overhead`` follows the paper's definition: the share of all
    wire bytes consumed by 40-byte TCP/IP headers,
    ``40·Pa / (payload + 40·Pa) × 100``.
    """

    packets: int
    payload_bytes: int
    header_bytes: int
    packets_client_to_server: int
    packets_server_to_client: int
    connections: int
    duration: float
    mean_packets_per_connection: float
    mean_packet_size: float
    #: Simulator work counters for the run that produced this trace
    #: (None for hand-built summaries).
    perf: Optional[PerfCounters] = None
    #: Link drops by the random / injected loss process.
    dropped_loss: int = 0
    #: Link drops by drop-tail queue overflow.
    dropped_overflow: int = 0

    @property
    def wire_bytes(self) -> int:
        """Total bytes on the wire including headers."""
        return self.payload_bytes + self.header_bytes

    @property
    def percent_overhead(self) -> float:
        """TCP/IP header overhead as a percentage of wire bytes."""
        if self.wire_bytes == 0:
            return 0.0
        return 100.0 * self.header_bytes / self.wire_bytes


class TraceCollector:
    """Records every segment crossing a link.

    Parameters
    ----------
    link:
        The link to observe (the collector becomes its
        :attr:`~repro.simnet.link.Link.collector`).
    client_host:
        Name of the client host, used to split per-direction counts the
        way the paper's client-side traces do.
    """

    __slots__ = ("client_host", "_sim", "_link", "_times", "_srcs",
                 "_sports", "_dsts", "_dports", "_flags", "_seqs", "_acks",
                 "_payload_lens", "_records_cache", "__weakref__")

    def __init__(self, link: Link, client_host: str) -> None:
        self.client_host = client_host
        self._sim = link.sim
        self._link = link
        # Parallel columns, one entry per captured segment, and nothing
        # derivable (wire size, payload total); the fast-forward span
        # appends to them directly.
        self._times: List[float] = []
        self._srcs: List[str] = []
        self._sports: List[int] = []
        self._dsts: List[str] = []
        self._dports: List[int] = []
        self._flags: List[str] = []
        self._seqs: List[int] = []
        self._acks: List[int] = []
        self._payload_lens: List[int] = []
        self._records_cache: Optional[List[PacketRecord]] = None
        link.collector = self

    def capture(self, segment: Segment, now: float) -> None:
        """Record ``segment``, sent at ``now`` (the link calls this)."""
        self._times.append(now)
        self._srcs.append(segment.src)
        self._sports.append(segment.sport)
        self._dsts.append(segment.dst)
        self._dports.append(segment.dport)
        self._flags.append(segment.flags)
        self._seqs.append(segment.seq)
        self._acks.append(segment.ack)
        self._payload_lens.append(segment.payload_len)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def records(self) -> List[PacketRecord]:
        """The capture as :class:`PacketRecord` objects (synthesized
        lazily from the columns and memoized until the row count
        changes)."""
        cache = self._records_cache
        if cache is None or len(cache) != len(self._times):
            cache = self._records_cache = [
                PacketRecord(*row, row[8] + HEADER_BYTES)
                for row in self.rows()]
        return cache

    def rows(self) -> Iterator[Row]:
        """The capture as :data:`Row` tuples, in capture order: the
        form :func:`repro.simnet.checks.validate_rows` replays."""
        return zip(self._times, self._srcs, self._sports, self._dsts,
                   self._dports, self._flags, self._seqs, self._acks,
                   self._payload_lens)

    def clear(self) -> None:
        """Discard all captured records."""
        for column in (self._times, self._srcs, self._sports, self._dsts,
                       self._dports, self._flags, self._seqs, self._acks,
                       self._payload_lens):
            column.clear()
        self._records_cache = None

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def summary(self) -> TraceSummary:
        """Compute paper-style aggregate statistics for the capture."""
        packets = len(self._times)
        payload = sum(self._payload_lens)
        header = packets * HEADER_BYTES
        client = self.client_host
        c2s = sum(1 for src in self._srcs if src == client)
        s2c = packets - c2s
        flows = self._flows()
        duration = (self._times[-1] - self._times[0]) if packets else 0.0
        per_conn = (packets / len(flows)) if flows else 0.0
        mean_size = (payload + header) / packets if packets else 0.0
        return TraceSummary(
            packets=packets, payload_bytes=payload, header_bytes=header,
            packets_client_to_server=c2s, packets_server_to_client=s2c,
            connections=len(flows), duration=duration,
            mean_packets_per_connection=per_conn,
            mean_packet_size=mean_size,
            perf=self._sim.perf.snapshot(),
            dropped_loss=self._link.dropped_loss,
            dropped_overflow=self._link.dropped_overflow)

    def wire_bytes_per_epoch(self, host: str, epoch: float,
                             n_epochs: int) -> List[float]:
        """Wire bytes ``host`` sent in each ``epoch``-second window:
        bucket ``i`` covers ``[i*epoch, (i+1)*epoch)``, and a packet at
        or after ``n_epochs * epoch`` counts in the last one."""
        buckets = [0.0] * n_epochs
        for time, src, payload in zip(self._times, self._srcs,
                                      self._payload_lens):
            if src == host:
                buckets[min(int(time / epoch), n_epochs - 1)] += (
                    payload + HEADER_BYTES)
        return buckets

    def _flows(self) -> Dict[Tuple[str, int, str, int], int]:
        """Group records into bidirectional flows (connections)."""
        flows: Dict[Tuple[str, int, str, int], int] = {}
        for src, sport, dst, dport in zip(self._srcs, self._sports,
                                          self._dsts, self._dports):
            if (src, sport) <= (dst, dport):
                key = (src, sport, dst, dport)
            else:
                key = (dst, dport, src, sport)
            flows[key] = flows.get(key, 0) + 1
        return flows

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def format_trace(self, limit: Optional[int] = None) -> str:
        """Render the capture as readable trace lines (like tcpshow)."""
        records = self.records if limit is None else self.records[:limit]
        start = self._times[0] if self._times else 0.0
        return "\n".join(r.format(start) for r in records)

