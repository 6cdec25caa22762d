"""V.42bis-style modem data compression (BTLZ).

The paper's "Further Compression Experiments" compare DEFLATE at the
HTTP layer against "the data compression found in current modems"
(ITU-T V.42bis), concluding that deflate is significantly better.  To
reproduce that comparison the PPP link can run each direction's byte
stream through this module: a streaming LZW compressor in the BTLZ
family, with

* a 256-symbol initial alphabet plus CLEAR / END control codes,
* variable code width growing from 9 to 12 bits,
* dictionary reset (CLEAR) when the dictionary fills, and
* per-frame *transparent mode*: if compression would expand a frame the
  modem sends it raw plus a one-byte mode marker, as V.42bis does for
  incompressible data (e.g. GIFs or already-deflated HTML).

The dictionary persists across packets in a direction, so later HTML
packets compress better than the first — exactly the stream behaviour of
a real modem pair.

:class:`LzwEncoder` counts the bits the codec would send, which is all
:class:`ModemCompressor` needs to adapt it to the
:class:`~repro.simnet.link.WireCompressor` protocol (on-the-wire byte
counts).  The codec round-trip — the code-emitting encoder and its
decoder — lives in ``tests/simnet/lzw_oracle.py``, and the tests hold
this encoder to that one's bit totals.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from ..memo import Memo

__all__ = ["LzwEncoder", "ModemCompressor"]

#: LZW control codes following the 256 literal byte codes.
CLEAR_CODE = 256
END_CODE = 257
FIRST_FREE_CODE = 258
MIN_CODE_BITS = 9
MAX_CODE_BITS = 12
MAX_CODES = 1 << MAX_CODE_BITS

#: Stream-history digest -> LZW byte count of the packet that ends that
#: history (see :class:`ModemCompressor`).  The paper's method reruns
#: the same fetch five times per cell over one site, so most PPP
#: packets repeat a history an earlier unit already coded.  Entries are
#: tens of bytes; one cold report stores about 5k of them.
_COMPRESSED_MEMO = Memo("modem.lzw-sizes", 65536)


class LzwEncoder:
    """Streaming LZW encoder with variable-width codes, counting bits.

    Use :meth:`encode` repeatedly for stream chunks and :meth:`flush` to
    force out the pending prefix (a modem flushes at frame boundaries so
    the remote end can deliver the frame).  The link needs only how
    many bits each frame costs, so the encoder keeps the dictionary and
    the running bit total and never materializes the codes.

    ``max_string`` caps dictionary-string length, as V.42bis's N7
    parameter does (default 6 octets) — the reason modem compression
    tops out well below what an unbounded LZW achieves on repetitive
    text like HTTP headers.  ``None`` removes the cap.

    The dictionary stores each string as ``(prefix_code << 8) | byte``
    rather than the bytes themselves: every multi-byte string enters the
    dictionary exactly once, as its prefix's code plus one byte, so the
    pair key identifies it uniquely and the per-byte probe is an
    int-keyed dict lookup with no allocation.  Codes 0–255 are the
    implicit single-byte strings.
    """

    def __init__(self, max_string: Optional[int] = None) -> None:
        self.max_string = max_string
        self._dict: Dict[int, int] = {}
        self._next_code = FIRST_FREE_CODE
        self._code_bits = MIN_CODE_BITS
        self._prefix_code: Optional[int] = None
        self._prefix_len = 0
        self.bits_emitted = 0

    def encode(self, data: bytes) -> int:
        """Consume ``data``; return bits emitted so far (cumulative).

        The loop runs once per payload byte of every PPP packet the
        memo has not seen, so all state lives in locals.  A hit needs
        no length check: an entry exists only if its prefix was shorter
        than the cap when it was added, and a code names one string,
        so a prefix at the cap never finds a hit.  A CLEAR restarts the
        prefix at one byte against an empty dictionary, so this holds
        across resets too.
        """
        byte_stream = iter(data)
        prefix_code = self._prefix_code
        prefix_len = self._prefix_len
        if prefix_code is None:
            prefix_code = next(byte_stream, None)
            if prefix_code is None:
                return self.bits_emitted
            prefix_len = 1
        # A string never outgrows the code space, so MAX_CODES is "no cap".
        cap = MAX_CODES if self.max_string is None else self.max_string
        pairs = self._dict
        pairs_get = pairs.get
        bits = self.bits_emitted
        code_bits = self._code_bits
        next_code = self._next_code
        for byte in byte_stream:
            key = (prefix_code << 8) | byte
            hit = pairs_get(key)
            if hit is not None:
                prefix_code = hit
                prefix_len += 1
                continue
            bits += code_bits
            if prefix_len < cap:
                if next_code >= MAX_CODES:
                    bits += code_bits           # CLEAR
                    pairs = {}
                    pairs_get = pairs.get
                    next_code = FIRST_FREE_CODE
                    code_bits = MIN_CODE_BITS
                else:
                    pairs[key] = next_code
                    next_code += 1
                    if (next_code > (1 << code_bits)
                            and code_bits < MAX_CODE_BITS):
                        code_bits += 1
            prefix_code = byte
            prefix_len = 1
        self._prefix_code = prefix_code
        self._prefix_len = prefix_len
        self._dict = pairs
        self._next_code = next_code
        self._code_bits = code_bits
        self.bits_emitted = bits
        return bits

    def flush(self) -> int:
        """Emit the pending prefix (frame boundary).  Returns total bits."""
        if self._prefix_code is not None:
            self.bits_emitted += self._code_bits
            self._prefix_code = None
            self._prefix_len = 0
        return self.bits_emitted

    def finish(self) -> int:
        """Flush and emit the END code.  Returns total bits."""
        self.flush()
        self.bits_emitted += self._code_bits
        return self.bits_emitted


class ModemCompressor:
    """Adapts :class:`LzwEncoder` to one link direction.

    For each packet payload the modem compares the LZW output size with
    the raw size and transmits whichever is smaller, plus
    ``MODE_MARKER_BYTES`` of framing — the V.42bis transparent-mode
    escape.  Dictionary state carries across packets either way (real
    V.42bis keeps learning while transparent).

    :attr:`EFFICIENCY` is the fraction of the LZW savings the modem
    pair actually realizes.  An idealized 12-bit LZW reaches ~2.2x on
    HTML, but the paper's own modem throughput (§8.2.1: 42 KB of HTML in
    12.21 s on a 28.8k line) implies only ~1.15x from the real V.42bis
    pair — its 2048-entry LRU dictionary, frame flushes and retrains
    eat the rest.  0.25 reproduces the measured path; 1.0 would be the
    idealized codec.

    The LZW size of a packet depends only on :attr:`V42BIS_MAX_STRING`
    and the payloads that came before it, so it is looked up in
    ``_COMPRESSED_MEMO`` under a 128-bit digest of exactly that history
    and the encoder runs only on a miss, after catching up on the
    packets it skipped.  A repeated stream costs one hash per packet; a
    new one costs the encode it always did; the sizes are the same.
    """

    MODE_MARKER_BYTES = 1
    #: V.42bis N7 default: dictionary strings of at most 6 octets.
    V42BIS_MAX_STRING = 6
    #: Fraction of ideal-LZW savings the modem pair realizes.
    EFFICIENCY = 0.25

    def __init__(self) -> None:
        max_string = self.V42BIS_MAX_STRING
        self._encoder = LzwEncoder(max_string=max_string)
        #: Rolling digest of ``(max_string, payload_1 .. payload_n)``,
        #: each payload length-framed: the key into ``_COMPRESSED_MEMO``.
        self._history = hashlib.blake2b(repr(max_string).encode("ascii"),
                                        digest_size=16)
        #: Payloads answered from the memo that the encoder has not
        #: consumed yet; fed in order before the next miss is coded.
        self._skipped: List[bytes] = []
        #: Totals for inspection: raw payload bytes vs wire bytes.
        self.raw_bytes = 0
        self.transmitted_bytes = 0

    def wire_bytes(self, payload: bytes) -> int:
        """On-the-wire byte count for ``payload`` (stateful)."""
        if not payload:
            return 0
        history = self._history
        history.update(len(payload).to_bytes(4, "big"))
        history.update(payload)
        key = history.digest()
        compressed = _COMPRESSED_MEMO.get(key)
        if compressed is None:
            compressed = _COMPRESSED_MEMO.store(key, self._encode(payload))
        else:
            self._skipped.append(payload)
        savings = max(0, len(payload) - compressed)
        realized = int(savings * self.EFFICIENCY)
        wire = len(payload) - realized + self.MODE_MARKER_BYTES
        self.raw_bytes += len(payload)
        self.transmitted_bytes += wire
        return wire

    def _encode(self, payload: bytes) -> int:
        """Run the real encoder over ``payload``; its LZW byte count.

        The dictionary must first learn every packet the memo answered
        for it, frame by frame (encode + flush each), so the state that
        codes ``payload`` is the one an always-encoding modem has.
        """
        encoder = self._encoder
        for earlier in self._skipped:
            encoder.encode(earlier)
            encoder.flush()
        self._skipped.clear()
        before = encoder.bits_emitted
        encoder.encode(payload)
        return (encoder.flush() - before + 7) // 8

    @property
    def compression_ratio(self) -> float:
        """Raw bytes divided by transmitted bytes (≥ ~1.0 so far)."""
        if self.transmitted_bytes == 0:
            return 1.0
        return self.raw_bytes / self.transmitted_bytes
