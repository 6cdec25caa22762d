"""TCP segment model and header accounting.

The paper reports packet counts and a ``%ov`` column defined as the
fraction of bytes on the wire that are TCP/IP header overhead.  Every
simulated segment therefore carries an explicit header size (20 bytes of
IPv4 plus 20 bytes of TCP, no options — matching the way the paper's
numbers work out: ``%ov = 40·Pa / (payload + 40·Pa)``).

Segments carry the *actual* application bytes: the simulated TCP layer
delivers real HTTP messages to the application code, so request parsing,
pipelining and compression all operate on genuine byte streams.

:class:`Segment` is the single most-allocated object of a simulation —
one per packet on the wire — so it is a plain ``__slots__`` class with
``payload_len`` / ``wire_size`` / ``end_seq`` and the tcpdump flag
string (from a small table of interned strings) computed once at
construction instead of on every access.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

__all__ = [
    "IP_HEADER_BYTES",
    "TCP_HEADER_BYTES",
    "HEADER_BYTES",
    "Segment",
]

#: IPv4 header without options.
IP_HEADER_BYTES = 20
#: TCP header without options.
TCP_HEADER_BYTES = 20
#: Total per-segment overhead used for the paper's ``%ov`` metric.
HEADER_BYTES = IP_HEADER_BYTES + TCP_HEADER_BYTES

#: Interned tcpdump-style flag strings, keyed by (syn, fin, rst, psh, ack).
_FLAG_STRINGS: Dict[Tuple[bool, bool, bool, bool, bool], str] = {}
for _syn in (False, True):
    for _fin in (False, True):
        for _rst in (False, True):
            for _psh in (False, True):
                for _ack in (False, True):
                    _s = (("S" if _syn else "") + ("F" if _fin else "")
                          + ("R" if _rst else "") + ("P" if _psh else "")
                          + ("A" if _ack else ""))
                    _FLAG_STRINGS[(_syn, _fin, _rst, _psh, _ack)] = _s or "."
del _syn, _fin, _rst, _psh, _ack, _s


class Segment:
    """One TCP segment in flight.

    Addressing is (host name, port) pairs; the simulated network routes
    purely on host names, and the TCP demultiplexer routes on ports.

    Attributes
    ----------
    src, sport, dst, dport:
        Source / destination addressing.
    seq:
        Sequence number of the first payload byte (or of the SYN/FIN,
        which each consume one sequence number, as in real TCP).
    ack:
        Acknowledgement number; only meaningful when :attr:`flag_ack`.
    payload:
        The application bytes carried (b"" for pure control segments).
    flag_syn, flag_ack, flag_fin, flag_rst, flag_psh:
        TCP flags.
    flags:
        tcpdump-style flag string, e.g. ``'S'``, ``'PA'``, ``'FA'``.
    payload_len / wire_size / end_seq:
        Derived sizes, precomputed at construction (segments are
        immutable in payload and flags once built).
    """

    __slots__ = ("src", "sport", "dst", "dport", "seq", "ack", "payload",
                 "flag_syn", "flag_ack", "flag_fin", "flag_rst",
                 "flag_psh", "flags", "delivered_at", "checksum",
                 "payload_len", "wire_size", "end_seq")

    def __init__(self, src: str, sport: int, dst: str, dport: int,
                 seq: int = 0, ack: int = 0, payload: bytes = b"",
                 flag_syn: bool = False, flag_ack: bool = False,
                 flag_fin: bool = False, flag_rst: bool = False,
                 flag_psh: bool = False,
                 delivered_at: Optional[float] = None,
                 checksum: Optional[int] = None) -> None:
        self.src = src
        self.sport = sport
        self.dst = dst
        self.dport = dport
        self.seq = seq
        self.ack = ack
        self.payload = payload
        self.flag_syn = flag_syn
        self.flag_ack = flag_ack
        self.flag_fin = flag_fin
        self.flag_rst = flag_rst
        self.flag_psh = flag_psh
        self.flags = _FLAG_STRINGS[(flag_syn, flag_fin, flag_rst, flag_psh,
                                    flag_ack)]
        #: The arrival time, stamped when the link schedules delivery.
        self.delivered_at = delivered_at
        #: CRC32 the payload must match at the receiver, or None for a
        #: trusted segment.  ``None`` is the universal fast path: only
        #: the fault injector ever stamps a checksum (of the *original*
        #: payload, onto a corrupted copy), so clean runs never pay for
        #: a hash and corrupted segments are discarded on receipt.
        self.checksum = checksum
        length = len(payload)
        self.payload_len = length
        self.wire_size = length + HEADER_BYTES
        self.end_seq = (seq + length + (1 if flag_syn else 0)
                        + (1 if flag_fin else 0))

    def replace(self, **overrides: object) -> "Segment":
        """A copy with ``overrides`` applied (``dataclasses.replace``-style)."""
        kwargs = {
            "seq": self.seq, "ack": self.ack, "payload": self.payload,
            "flag_syn": self.flag_syn, "flag_ack": self.flag_ack,
            "flag_fin": self.flag_fin, "flag_rst": self.flag_rst,
            "flag_psh": self.flag_psh, "delivered_at": self.delivered_at,
            "checksum": self.checksum,
        }
        kwargs.update(overrides)
        return Segment(self.src, self.sport, self.dst, self.dport,
                       **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Segment {self.src}:{self.sport}>{self.dst}:{self.dport}"
                f" {self.flags} seq={self.seq} ack={self.ack}"
                f" len={self.payload_len}>")
