"""Differential oracle for the V.42bis LZW encoder.

``repro.simnet.modem.LzwEncoder`` only counts the bits it would send.
This is the code-emitting encoder it replaced, kept verbatim, plus the
matching decoder: the codes round-trip through :class:`LzwDecoder`,
and ``test_modem.py`` holds the count-only encoder to this one's bit
totals.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.simnet.modem import (CLEAR_CODE, END_CODE, FIRST_FREE_CODE,
                                MAX_CODE_BITS, MAX_CODES, MIN_CODE_BITS)


class LzwEncoder:
    """Streaming LZW encoder with variable-width codes (see module)."""

    def __init__(self, max_string: Optional[int] = None) -> None:
        self.max_string = max_string
        self._reset_dictionary()
        self._prefix_code: Optional[int] = None
        self._prefix_len = 0
        self.codes_emitted: List[int] = []
        self.bits_emitted = 0

    def _reset_dictionary(self) -> None:
        self._dict: Dict[int, int] = {}
        self._next_code = FIRST_FREE_CODE
        self._code_bits = MIN_CODE_BITS

    def _emit(self, code: int) -> None:
        self.codes_emitted.append(code)
        self.bits_emitted += self._code_bits

    def encode(self, data: bytes) -> int:
        """Consume ``data``; return bits emitted so far (cumulative)."""
        limit = self.max_string
        prefix_code = self._prefix_code
        prefix_len = self._prefix_len
        pairs = self._dict
        pairs_get = pairs.get
        codes_append = self.codes_emitted.append
        bits = self.bits_emitted
        code_bits = self._code_bits
        next_code = self._next_code
        for byte in data:
            if prefix_code is None:
                prefix_code = byte
                prefix_len = 1
                continue
            key = (prefix_code << 8) | byte
            hit = pairs_get(key)
            if hit is not None and (limit is None or prefix_len < limit):
                prefix_code = hit
                prefix_len += 1
                continue
            codes_append(prefix_code)
            bits += code_bits
            if limit is None or prefix_len < limit:
                if next_code >= MAX_CODES:
                    codes_append(CLEAR_CODE)
                    bits += code_bits
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
            self._emit(self._prefix_code)
            self._prefix_code = None
            self._prefix_len = 0
        return self.bits_emitted

    def finish(self) -> int:
        """Flush and emit the END code.  Returns total bits."""
        self.flush()
        self._emit(END_CODE)
        return self.bits_emitted


class LzwDecoder:
    """Decoder matching :class:`LzwEncoder` (for round-trip testing).

    ``max_string`` must match the encoder's setting: both sides of a
    V.42bis link negotiate the same N7 limit and skip dictionary entries
    beyond it.
    """

    def __init__(self, max_string: Optional[int] = None) -> None:
        self.max_string = max_string
        self._reset_dictionary()
        self._previous: bytes = b""

    def _reset_dictionary(self) -> None:
        self._entries: Dict[int, bytes] = {i: bytes([i]) for i in range(256)}
        self._next_code = FIRST_FREE_CODE
        self._previous = b""

    def decode(self, codes: List[int]) -> bytes:
        """Decode a list of codes into the original bytes."""
        out = bytearray()
        for code in codes:
            if code == CLEAR_CODE:
                self._reset_dictionary()
                continue
            if code == END_CODE:
                break
            if code in self._entries:
                entry = self._entries[code]
            elif code == self._next_code and self._previous:
                entry = self._previous + self._previous[:1]
            else:
                raise ValueError(f"corrupt LZW stream: code {code}")
            out.extend(entry)
            candidate = self._previous + entry[:1]
            if (self._previous and self._next_code < MAX_CODES
                    and (self.max_string is None
                         or len(candidate) <= self.max_string)):
                self._entries[self._next_code] = candidate
                self._next_code += 1
            self._previous = entry
        return bytes(out)


def lzw_compress(data: bytes) -> Tuple[List[int], int]:
    """One-shot compress; returns (codes, total bits)."""
    encoder = LzwEncoder()
    encoder.encode(data)
    bits = encoder.finish()
    return encoder.codes_emitted, bits


def lzw_decompress(codes: List[int]) -> bytes:
    """One-shot decompress of :func:`lzw_compress` output."""
    return LzwDecoder().decode(codes)
