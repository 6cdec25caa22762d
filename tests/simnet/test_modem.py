"""Unit and property tests for the V.42bis-style modem compressor."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.simnet import modem as modem_module
from repro.simnet.modem import LzwEncoder, ModemCompressor

from . import lzw_oracle
from .lzw_oracle import LzwDecoder, lzw_compress, lzw_decompress


# ----------------------------------------------------------------------
# The codec (round trips run on the code-emitting oracle)
# ----------------------------------------------------------------------
def test_lzw_roundtrip_simple():
    codes, _bits = lzw_compress(b"the quick brown fox " * 20)
    assert lzw_decompress(codes) == b"the quick brown fox " * 20


def test_lzw_roundtrip_empty():
    codes, _ = lzw_compress(b"")
    assert lzw_decompress(codes) == b""


def test_lzw_streaming_matches_oneshot():
    data = b"abcabcabcabd" * 50
    streaming = lzw_oracle.LzwEncoder()
    counting = LzwEncoder()
    for i in range(0, len(data), 7):
        streaming.encode(data[i:i + 7])
        counting.encode(data[i:i + 7])
    assert counting.finish() == streaming.finish() == lzw_compress(data)[1]
    decoder = LzwDecoder()
    assert decoder.decode(streaming.codes_emitted) == data


def test_lzw_dictionary_reset_on_overflow():
    rng = random.Random(3)
    data = bytes(rng.randrange(256) for _ in range(40000))
    codes, bits = lzw_compress(data)
    assert 256 in codes[1:]        # CLEAR re-emitted mid-stream
    assert lzw_decompress(codes) == data
    counting = LzwEncoder()
    counting.encode(data)
    assert counting.finish() == bits


def test_max_string_limits_compression():
    data = b"abcdefghij" * 200
    unlimited = LzwEncoder(max_string=None)
    unlimited.encode(data)
    capped = LzwEncoder(max_string=3)
    capped.encode(data)
    assert capped.flush() > unlimited.flush()


def test_max_string_roundtrip():
    data = b"hello world, hello world, hello world" * 30
    encoder = lzw_oracle.LzwEncoder(max_string=6)
    encoder.encode(data)
    encoder.finish()
    assert LzwDecoder(max_string=6).decode(encoder.codes_emitted) == data


@settings(max_examples=40)
@given(st.binary(max_size=3000))
def test_lzw_roundtrip_property(data):
    codes, _ = lzw_compress(data)
    assert lzw_decompress(codes) == data


@settings(max_examples=20)
@given(st.binary(max_size=1000), st.integers(2, 10))
def test_lzw_capped_roundtrip_property(data, cap):
    encoder = lzw_oracle.LzwEncoder(max_string=cap)
    encoder.encode(data)
    encoder.finish()
    assert LzwDecoder(max_string=cap).decode(
        encoder.codes_emitted) == data


#: Byte streams LZW codes very differently: uniform noise (misses,
#: dictionary resets), a small alphabet (long strings, the N7 cap
#: bites) and HTTP-ish text.
_ALPHABETS = (bytes(range(256)), b"ab", b"abcd", b"GET /gifs/ HTTP1.\r\n")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), alphabet=st.sampled_from(_ALPHABETS),
       length=st.integers(0, 12000),
       max_string=st.sampled_from((None, 3, 6)), flush_frames=st.booleans())
def test_counting_encoder_matches_oracle_per_frame(seed, alphabet, length,
                                                   max_string, flush_frames):
    """Bits after every frame equal the code-emitting oracle's over
    random frame splits (empty frames and CLEARs included)."""
    rng = random.Random(seed)
    data = bytes(rng.choice(alphabet) for _ in range(length))
    counting = LzwEncoder(max_string=max_string)
    oracle = lzw_oracle.LzwEncoder(max_string=max_string)
    offset = 0
    while offset < len(data):
        frame = data[offset:offset + rng.choice((0, 1, 2, 40, 1460, 5000))]
        offset += len(frame)
        assert counting.encode(frame) == oracle.encode(frame)
        if flush_frames:                # as ModemCompressor does
            assert counting.flush() == oracle.flush()
    assert counting.finish() == oracle.finish()
    if not flush_frames:
        # A flush skips the entry spanning the frame boundary, which a
        # decoder cannot see; an unflushed stream decodes.
        assert LzwDecoder(max_string=max_string).decode(
            oracle.codes_emitted) == data


# ----------------------------------------------------------------------
# ModemCompressor
# ----------------------------------------------------------------------
def tuned(max_string=ModemCompressor.V42BIS_MAX_STRING,
          efficiency=ModemCompressor.EFFICIENCY):
    """A modem whose model constants (N7, realized savings) differ."""
    return type("TunedModem", (ModemCompressor,), {
        "V42BIS_MAX_STRING": max_string, "EFFICIENCY": efficiency})()


def test_compressible_text_shrinks_on_wire():
    modem = ModemCompressor()
    text = b"GET /gifs/icon0.gif HTTP/1.1\r\nHost: www26.w3.org\r\n" * 40
    wire = modem.wire_bytes(text)
    assert wire < len(text)
    assert modem.compression_ratio > 1.0


def test_incompressible_data_stays_near_raw():
    import zlib
    deflated = zlib.compress(b"some html body " * 500)
    modem = ModemCompressor()
    wire = modem.wire_bytes(deflated)
    # Transparent mode: raw size plus the one-byte marker, at worst.
    assert wire <= len(deflated) + ModemCompressor.MODE_MARKER_BYTES


def test_dictionary_carries_across_packets():
    modem = tuned(efficiency=1.0)
    chunk = b"If-None-Match: \"0011223344\"\r\nAccept: */*\r\n\r\n"
    first = modem.wire_bytes(chunk)
    later = modem.wire_bytes(chunk)
    assert later < first


def test_empty_payload_costs_nothing():
    assert ModemCompressor().wire_bytes(b"") == 0


def test_efficiency_scales_savings():
    text = b"solutions products download support " * 100
    ideal = tuned(efficiency=1.0)
    real = ModemCompressor()
    assert real.wire_bytes(text) > ideal.wire_bytes(text)


# ----------------------------------------------------------------------
# The stream-history memo: exact whatever state it is in
# ----------------------------------------------------------------------
class _AlwaysEncoding:
    """``ModemCompressor`` without the memo: every packet is encoded."""

    def __init__(self, max_string, efficiency):
        self._encoder = LzwEncoder(max_string=max_string)
        self.efficiency = efficiency
        self._bits_reported = 0
        self.raw_bytes = 0
        self.transmitted_bytes = 0

    def wire_bytes(self, payload):
        if not payload:
            return 0
        self._encoder.encode(payload)
        total_bits = self._encoder.flush()
        compressed = (total_bits - self._bits_reported + 7) // 8
        self._bits_reported = total_bits
        savings = max(0, len(payload) - compressed)
        realized = int(savings * self.efficiency)
        wire = len(payload) - realized + ModemCompressor.MODE_MARKER_BYTES
        self.raw_bytes += len(payload)
        self.transmitted_bytes += wire
        return wire

    compression_ratio = ModemCompressor.compression_ratio


def _drive(make, streams, clear_before=None):
    """Feed each stream to its own compressor, round-robin by packet.

    All compressors are live at once, as a cell's up and down modems
    are.  ``clear_before`` empties the memo ahead of that packet
    ordinal, leaving compressors with skipped packets and no entries.
    """
    modems = [make() for _ in streams]
    wires = [[] for _ in streams]
    ordinal = 0
    for index in range(max(map(len, streams))):
        for modem, stream, wire in zip(modems, streams, wires):
            if index < len(stream):
                if ordinal == clear_before:
                    modem_module._COMPRESSED_MEMO.clear()
                wire.append(modem.wire_bytes(stream[index]))
                ordinal += 1
    return [(wire, modem.raw_bytes, modem.transmitted_bytes,
             modem.compression_ratio)
            for wire, modem in zip(wires, modems)]


_WORDS = (b"GET /gifs/icon", b" HTTP/1.1\r\n", b"Host: www26.w3.org\r\n",
          b"<td><img src=", b"0", b"1", b".gif", b"\r\n")
_PAYLOAD = st.one_of(
    st.just(b""),                                   # a bare ACK
    st.binary(min_size=1, max_size=60),
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=40)
    .map(b"".join))
_PACKETS = st.lists(_PAYLOAD, max_size=6)
#: Streams that share a prefix and then diverge.
_STREAMS = st.builds(
    lambda prefix, tails: [prefix + tail for tail in tails],
    _PACKETS, st.lists(_PACKETS, min_size=1, max_size=4))


@settings(max_examples=60, deadline=None)
@given(streams=_STREAMS, clear_before=st.integers(0, 30),
       max_string=st.sampled_from((6, 3, None)),
       efficiency=st.sampled_from((0.25, 1.0)))
def test_memo_state_never_changes_a_wire_size(streams, clear_before,
                                              max_string, efficiency):
    expected = _drive(lambda: _AlwaysEncoding(max_string, efficiency),
                      streams)
    make = lambda: tuned(max_string, efficiency)
    memo = modem_module._COMPRESSED_MEMO
    memo.clear()
    assert _drive(make, streams) == expected                    # cold
    assert _drive(make, streams) == expected                    # warm
    assert _drive(make, streams, clear_before) == expected      # cleared
    with mock.patch.object(memo, "bound", 2):
        memo.clear()
        assert _drive(make, streams) == expected                # at cap
        assert len(memo) <= 2


def test_replayed_stream_never_runs_the_encoder():
    packets = [b"<tr><td>cell</td></tr>" * 40, b"", b"<p>tail</p>" * 9]
    first, replay, diverging = (ModemCompressor() for _ in range(3))
    sizes = [first.wire_bytes(p) for p in packets]
    assert [replay.wire_bytes(p) for p in packets] == sizes
    assert replay._encoder.bits_emitted == 0
    # A stream that leaves the known history catches the encoder up
    # (dictionary included) before coding the new packet.
    for packet in packets[:2]:
        diverging.wire_bytes(packet)
    novel = b"<tr><td>cell</td></tr>" * 7 + b"!"
    oracle = _AlwaysEncoding(ModemCompressor.V42BIS_MAX_STRING,
                             ModemCompressor.EFFICIENCY)
    for packet in packets[:2]:
        oracle.wire_bytes(packet)
    assert diverging.wire_bytes(novel) == oracle.wire_bytes(novel)
    assert (diverging._encoder.bits_emitted
            == oracle._encoder.bits_emitted)


def test_packet_boundaries_are_part_of_the_history():
    # Same bytes, framed differently: the modem flushes per packet, so
    # the second packets have different sizes and must not share a key.
    x, y, z = b"alpha " * 30, b"beta " * 30, b"gamma " * 30
    modem_module._COMPRESSED_MEMO.clear()
    got = _drive(ModemCompressor, [[x + y, z], [x, y + z]])
    assert got == _drive(lambda: _AlwaysEncoding(6, 0.25),
                         [[x + y, z], [x, y + z]])
    assert got[0][0][1] != got[1][0][1]


def test_different_n7_limits_do_not_share_entries():
    text = b"abcabcabcabcabcabcabcabc" * 30
    assert (tuned(max_string=None, efficiency=1.0).wire_bytes(text)
            < tuned(max_string=3, efficiency=1.0).wire_bytes(text))


def test_ppp_cell_repeats_byte_identically_in_process():
    # The second run finds every stream of the first in the memo.
    from repro.core.runner import run_experiment
    modem_module._COMPRESSED_MEMO.clear()
    runs = [run_experiment("HTTP/1.1 Pipelined", "first-time",
                           environment="PPP", profile="Apache", seed=0,
                           keep_trace=True) for _ in range(2)]
    assert runs[0].trace_lines == runs[1].trace_lines
    assert runs[0].elapsed == runs[1].elapsed
    assert modem_module._COMPRESSED_MEMO


def _modem_link(sim):
    """A PPP-flavoured link with a modem pair on the a -> b direction."""
    from repro.simnet.link import Link
    link = Link(sim, 28_800.0, 0.075, bits_per_byte=10)
    link.set_compressor("a", "b", ModemCompressor())
    return link


def test_serialization_delay_uses_compressed_wire_bytes():
    from repro.simnet.engine import Simulator
    from repro.simnet.packet import HEADER_BYTES, Segment

    sim = Simulator()
    link = _modem_link(sim)
    arrivals = []
    link.attach("b", lambda seg: arrivals.append(sim.now))
    link.attach("a", lambda seg: None)
    payload = b"GET /gifs/icon0.gif HTTP/1.1\r\nHost: w3.org\r\n" * 30
    # An identical oracle modem predicts the on-the-wire size.
    oracle = ModemCompressor()
    wire = HEADER_BYTES + oracle.wire_bytes(payload)
    assert wire < HEADER_BYTES + len(payload)   # really compressed
    link.transmit(Segment("a", 1, "b", 2, payload=payload))
    sim.run()
    expected = wire * 10 / 28_800.0 + 0.075
    assert arrivals == [pytest.approx(expected)]


def test_busy_period_queues_second_segment():
    from repro.simnet.engine import Simulator
    from repro.simnet.packet import HEADER_BYTES, Segment

    sim = Simulator()
    link = _modem_link(sim)
    arrivals = []
    link.attach("b", lambda seg: arrivals.append((seg.seq, sim.now)))
    link.attach("a", lambda seg: None)
    payload = b"repetition repetition repetition " * 20
    oracle = ModemCompressor()
    wire1 = HEADER_BYTES + oracle.wire_bytes(payload)
    wire2 = HEADER_BYTES + oracle.wire_bytes(payload)
    assert wire2 < wire1        # the shared dictionary keeps learning
    link.transmit(Segment("a", 1, "b", 2, seq=1, payload=payload))
    link.transmit(Segment("a", 1, "b", 2, seq=2, payload=payload))
    sim.run()
    tx1 = wire1 * 10 / 28_800.0
    tx2 = wire2 * 10 / 28_800.0
    # FIFO busy period: the second transmission starts when the first
    # finishes, so its delivery stacks both serialization delays.
    assert arrivals[0] == (1, pytest.approx(tx1 + 0.075))
    assert arrivals[1] == (2, pytest.approx(tx1 + tx2 + 0.075))


def test_fastpath_preserves_link_busy_state_with_modem():
    # The fast-forward driver writes its synthesized transmissions
    # through the link's per-direction busy clock and the modem's LZW
    # dictionary; after a fast-forwarded bulk transfer both must match
    # per-segment execution exactly (so a later real transmit — or an
    # eligibility check that assumes an idle link — sees the same
    # world either way).
    from repro.simnet.link import ENVIRONMENTS
    from repro.simnet.network import SERVER_HOST, TwoHostNetwork

    def run(fastpath):
        net = TwoHostNetwork(ENVIRONMENTS["PPP"], seed=0, jitter=0.02,
                             fastpath=fastpath, modem_compression=True)
        body = (b"<html>" + b"row " * 400 + b"</html>") * 40

        def on_accept(conn):
            conn.on_connect = lambda c: c.send(body, close=True)

        net.server.listen(80, on_accept)
        net.client.connect(SERVER_HOST, 80)
        net.run()
        return net

    fast, slow = run(True), run(False)
    assert fast.sim.perf.fastforward_spans > 0
    assert fast.trace.records == slow.trace.records
    assert fast.link._next_free == slow.link._next_free
    assert (fast.modem_down.transmitted_bytes
            == slow.modem_down.transmitted_bytes)


def test_realized_ratio_matches_paper_ballpark():
    """The paper's modem moved HTML at ~1.15-1.4x the line rate."""
    from repro.content import build_microscape_site
    html = build_microscape_site().html.body
    modem = ModemCompressor()
    total_wire = 0
    for offset in range(0, len(html), 1460):
        total_wire += modem.wire_bytes(html[offset:offset + 1460])
    ratio = len(html) / total_wire
    assert 1.05 <= ratio <= 1.5
