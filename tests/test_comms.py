from __future__ import annotations

import dataclasses
import heapq
import math
import struct
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swarmsim import comms
from swarmsim.comms import (
    FRAME_ERRORS,
    FRAME_SIZE,
    IR_MAX_MM,
    PAYLOAD_SIZE,
    BadPayload,
    BadSync,
    ChannelModel,
    CrcMismatch,
    FrameError,
    FreshnessBuffer,
    SensorPacket,
    StarChannel,
    Truncated,
    corrupt,
    crc16,
    decode_frame,
    decode_frames,
    encode_frame,
    encode_frames,
    encode_heading_frames,
    wrap_flow,
    wrap_i16,
)

# Independent table-driven CRC-16/CCITT-FALSE reference.
_TABLE = []
for i in range(256):
    _c = i << 8
    for _ in range(8):
        _c = ((_c << 1) ^ 0x1021) & 0xFFFF if _c & 0x8000 else (_c << 1) & 0xFFFF
    _TABLE.append(_c)


def crc16_reference(data: bytes) -> int:
    crc = 0xFFFF
    for b in data:
        crc = ((crc << 8) & 0xFFFF) ^ _TABLE[((crc >> 8) ^ b) & 0xFF]
    return crc


def make_packet(rng: np.random.Generator, robot_id: int = 3, t_sent: int = 1234) -> SensorPacket:
    # Field values drawn on the wire lattice so round-trips are exact.
    gyro_mrad = int(rng.integers(-3141, 3143))
    ir = tuple(
        None if rng.random() < 0.3 else float(rng.integers(0, 0xFFFF))
        for _ in range(5)
    )
    return SensorPacket(
        robot_id=robot_id,
        t_sent=t_sent,
        ticks_left=int(rng.integers(-0x8000, 0x8000)),
        ticks_right=int(rng.integers(-0x8000, 0x8000)),
        flow_dx_left=int(rng.integers(-0x8000, 0x8000)) * 0.1,
        flow_dx_right=int(rng.integers(-0x8000, 0x8000)) * 0.1,
        gyro_heading=gyro_mrad * 1e-3,
        ir=ir,
    )


# --- CRC ------------------------------------------------------------------


def test_crc_empty_is_init():
    assert crc16(b"") == 0xFFFF


def test_crc_check_value():
    # Catalog check input for CCITT-FALSE.
    assert crc16(b"123456789") == 0x29B1
    assert crc16_reference(b"123456789") == 0x29B1


@given(st.binary(min_size=0, max_size=64))
def test_crc_matches_table_reference(data):
    assert crc16(data) == crc16_reference(data)


@given(st.binary(max_size=64), st.binary(max_size=64))
def test_crc_seed_chains(a, b):
    assert crc16(b, crc16(a)) == crc16(a + b) == crc16_reference(a + b)


def test_crc_matches_reference_bulk():
    rng = np.random.default_rng(7)
    for _ in range(500):
        data = rng.integers(0, 256, size=int(rng.integers(0, 40)), dtype=np.uint8).tobytes()
        assert crc16(data) == crc16_reference(data)


# --- framing --------------------------------------------------------------


def test_frame_layout():
    p = make_packet(np.random.default_rng(0))
    frame = encode_frame(p)
    assert len(frame) == FRAME_SIZE == 30
    assert frame[:2] == b"\xaa\x55"
    assert frame[2] == PAYLOAD_SIZE == 25
    # Trailer is the big-endian CRC over length byte plus payload.
    crc = crc16_reference(frame[2:-2])
    assert frame[-2] == crc >> 8
    assert frame[-1] == crc & 0xFF


def test_round_trip_example():
    p = SensorPacket(
        robot_id=1,
        t_sent=70,
        ticks_left=28,
        ticks_right=28,
        flow_dx_left=0.7,
        flow_dx_right=0.7,
        gyro_heading=0.004,
        ir=(250.0, None, 417.0, None, None),
    )
    q = decode_frame(encode_frame(p))
    assert (q.robot_id, q.t_sent) == (1, 70)
    assert (q.ticks_left, q.ticks_right) == (28, 28)
    # Wire lattice: 0.1 mm for flow, 1 mrad for headings.
    assert q.flow_dx_left == pytest.approx(0.7, abs=1e-12)
    assert q.flow_dx_right == pytest.approx(0.7, abs=1e-12)
    assert q.gyro_heading == pytest.approx(0.004, abs=1e-12)
    assert q.ir == (250.0, None, 417.0, None, None)


def test_round_trip_heading_boundaries():
    # Both wrap boundaries must survive the mrad lattice: +pi rounds up to
    # 3142 and values just above -pi round down to -3142.
    for theta in (math.pi, -3.1415119, -3.142, 3.142):
        p = SensorPacket(robot_id=0, t_sent=1, ticks_left=0, ticks_right=0,
                         flow_dx_left=0.0, flow_dx_right=0.0,
                         gyro_heading=theta)
        q = decode_frame(encode_frame(p))
        assert q.gyro_heading == pytest.approx(theta, abs=5.1e-4)


def test_round_trip_saturates_ir_beyond_the_wire_field():
    # A reading past the u16 field arrives as the field's maximum, the
    # sensor saturating; 0xFFFF stays the out-of-range marker.
    p = SensorPacket(robot_id=0, t_sent=1, ticks_left=0, ticks_right=0,
                     flow_dx_left=0.0, flow_dx_right=0.0, gyro_heading=0.0,
                     ir=(65534.4, 65534.6, 65535.0, 1e9, None))
    q = decode_frame(encode_frame(p))
    assert IR_MAX_MM == 0xFFFE
    assert q.ir == (65534.0, 65534.0, 65534.0, 65534.0, None)


def test_round_trip_bulk():
    # Large randomized round-trip sweep over wire-representable packets.
    rng = np.random.default_rng(42)
    for i in range(100_000):
        p = make_packet(rng, robot_id=i % 256, t_sent=i)
        assert decode_frame(encode_frame(p)) == p


def test_bad_sync():
    frame = bytearray(encode_frame(make_packet(np.random.default_rng(1))))
    frame[0] = 0xAB
    with pytest.raises(BadSync):
        decode_frame(bytes(frame))


def test_truncated():
    frame = encode_frame(make_packet(np.random.default_rng(2)))
    with pytest.raises(Truncated):
        decode_frame(frame[:-3])
    with pytest.raises(Truncated):
        decode_frame(b"\xaa\x55")


def test_length_corruption_rejected():
    frame = bytearray(encode_frame(make_packet(np.random.default_rng(3))))
    frame[2] = 24
    with pytest.raises(Truncated):
        decode_frame(bytes(frame))


def test_payload_corruption_is_crc_mismatch():
    frame = bytearray(encode_frame(make_packet(np.random.default_rng(4))))
    frame[10] ^= 0x01
    with pytest.raises(CrcMismatch):
        decode_frame(bytes(frame))


def test_every_single_bit_corruption_detected():
    frame = encode_frame(make_packet(np.random.default_rng(5)))
    for bit in range(len(frame) * 8):
        mutated = bytearray(frame)
        mutated[bit // 8] ^= 1 << (7 - bit % 8)
        with pytest.raises(FrameError):
            decode_frame(bytes(mutated))


def test_random_two_bit_corruptions_detected():
    frame = encode_frame(make_packet(np.random.default_rng(6)))
    nbits = len(frame) * 8
    rng = np.random.default_rng(8)
    for _ in range(100_000):
        a, b = rng.choice(nbits, size=2, replace=False)
        mutated = bytearray(frame)
        mutated[a // 8] ^= 1 << (7 - a % 8)
        mutated[b // 8] ^= 1 << (7 - b % 8)
        with pytest.raises(FrameError):
            decode_frame(bytes(mutated))


def test_gyro_field_range_enforced():
    with pytest.raises(ValueError):
        SensorPacket(
            robot_id=0, t_sent=0, ticks_left=0, ticks_right=0,
            flow_dx_left=0.0, flow_dx_right=0.0, gyro_heading=3.5,
        )


# --- channel ----------------------------------------------------------------


def test_total_loss_drops_everything():
    rng = np.random.default_rng(9)
    ch = StarChannel(ChannelModel(loss_prob=1.0), rng)
    frame = encode_frame(make_packet(rng))
    for t in range(100):
        ch.send(frame, float(t), robot_id=0)
    assert ch.dropped == 100
    assert ch.pending == 0
    assert ch.pop_due(1e9) == []


def test_latency_statistics():
    rng = np.random.default_rng(10)
    ch = StarChannel(ChannelModel(latency_min_ms=50, latency_max_ms=100), rng)
    frame = encode_frame(make_packet(rng))
    n = 10_000
    for _ in range(n):
        ch.send(frame, 0.0, robot_id=0)
    latencies = [d.deliver_ms for d in ch.pop_due(1e9)]
    assert len(latencies) == n
    assert min(latencies) >= 50.0
    assert max(latencies) <= 100.0
    assert np.mean(latencies) == pytest.approx(75.0, abs=2.0)


def test_delivery_fraction_matches_loss_probability():
    rng = np.random.default_rng(11)
    p = 0.3
    ch = StarChannel(ChannelModel(loss_prob=p), rng)
    frame = encode_frame(make_packet(rng))
    n = 10_000
    for _ in range(n):
        ch.send(frame, 0.0, robot_id=0)
    delivered = len(ch.pop_due(1e9))
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(delivered - n * (1 - p)) <= 3 * sigma


def test_jitter_wider_than_send_period_reorders():
    rng = np.random.default_rng(12)
    ch = StarChannel(ChannelModel(latency_min_ms=0, latency_max_ms=100), rng)
    frame = encode_frame(make_packet(rng))
    for k in range(200):
        ch.send(frame, 10.0 * k, robot_id=0)
    deliveries = ch.pop_due(1e9)
    assert len(deliveries) == 200
    times = [d.deliver_ms for d in deliveries]
    assert times == sorted(times)
    seqs = [d.seq for d in deliveries]
    assert seqs != sorted(seqs)  # at least one frame overtaken in flight


def test_corrupted_channel_frames_fail_decode():
    rng = np.random.default_rng(13)
    ch = StarChannel(ChannelModel(latency_min_ms=0, latency_max_ms=0, bit_flip_prob=0.02), rng)
    frame = encode_frame(make_packet(rng))
    for _ in range(200):
        ch.send(frame, 0.0, robot_id=0)
    outcomes = []
    for d in ch.pop_due(1e9):
        try:
            decode_frame(d.data)
            outcomes.append(True)
        except FrameError:
            outcomes.append(False)
    # With ~2% bit flips on a 240-bit frame almost every frame is corrupted.
    assert outcomes.count(False) > 150


def test_receive_matches_decoding_a_twin_channel():
    model = ChannelModel(latency_min_ms=0, latency_max_ms=150, loss_prob=0.2,
                         bit_flip_prob=0.002)
    ch = StarChannel(model, np.random.default_rng(15))
    twin = StarChannel(model, np.random.default_rng(15))
    rng = np.random.default_rng(16)
    received = 0
    for step in range(400):
        t = 10.0 * step
        for robot_id in range(3):
            frame = encode_frame(make_packet(rng, robot_id=robot_id, t_sent=step))
            ch.send(frame, t, robot_id)
            twin.send(frame, t, robot_id)
        expected = []
        for d in twin.pop_due(t):
            try:
                expected.append(decode_frame(d.data))
            except FrameError:
                pass
        got = ch.receive(t)
        assert got == expected
        received += len(got)
        assert ch.sent == ch.dropped + received + ch.undecodable + ch.pending
    assert ch.sent == 1200
    assert min(ch.dropped, received, ch.undecodable, ch.pending) > 0


@given(st.integers(min_value=-10**9, max_value=10**9))
def test_wrap_i16_is_congruent_and_in_range(value):
    wrapped = wrap_i16(value)
    assert -0x8000 <= wrapped <= 0x7FFF
    assert (wrapped - value) % 0x10000 == 0


@given(st.floats(min_value=-1e6, max_value=1e6))
def test_wrap_flow_fits_the_wire_field(mm):
    packet = SensorPacket(robot_id=0, t_sent=0, ticks_left=0, ticks_right=0,
                          flow_dx_left=wrap_flow(mm), flow_dx_right=0.0,
                          gyro_heading=0.0)
    decoded = decode_frame(encode_frame(packet))
    assert decoded.flow_dx_left == pytest.approx(wrap_flow(mm), abs=1e-9)
    assert (round(mm / 0.1) - round(decoded.flow_dx_left / 0.1)) % 0x10000 == 0


def test_corrupt_zero_probability_is_identity():
    rng = np.random.default_rng(14)
    data = bytes(range(32))
    assert corrupt(data, 0.0, rng.random(8 * len(data))) == data


def test_channel_model_rejects_an_infinite_latency():
    # A latency of lo + (hi - lo) * u must be a finite delivery time, as
    # rng.uniform(lo, hi) would raise on an infinite span.
    with pytest.raises(ValueError):
        ChannelModel(latency_min_ms=0.0, latency_max_ms=math.inf)
    with pytest.raises(ValueError):
        ChannelModel(latency_min_ms=math.inf, latency_max_ms=math.inf)


# --- freshness buffer -------------------------------------------------------


def _packet_at(t_sent: int, robot_id: int = 0) -> SensorPacket:
    return SensorPacket(
        robot_id=robot_id, t_sent=t_sent, ticks_left=0, ticks_right=0,
        flow_dx_left=0.0, flow_dx_right=0.0, gyro_heading=0.0,
    )


def test_buffer_keeps_newest():
    buf = FreshnessBuffer()
    assert buf.update(_packet_at(70))
    assert buf.update(_packet_at(140))
    assert not buf.update(_packet_at(70))   # late reordered frame
    assert not buf.update(_packet_at(140))  # duplicate
    assert buf.latest(0).t_sent == 140
    assert buf.superseded == 2
    assert buf.latest(9) is None


def test_buffer_tracks_robots_independently():
    buf = FreshnessBuffer()
    buf.update(_packet_at(70, robot_id=2))
    buf.update(_packet_at(140, robot_id=1))
    assert buf.robot_ids() == [1, 2]
    assert buf.latest(2).t_sent == 70


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50))
def test_buffer_latest_never_goes_backwards(times):
    buf = FreshnessBuffer()
    seen_max = 0
    for t in times:
        buf.update(_packet_at(t))
        seen_max = max(seen_max, t)
        assert buf.latest(0).t_sent == seen_max


# --- oracle: the frozen-dataclass codec and the scalar-draw channel -------------
#
# The codec and channel as they were before the report path was made cheap:
# a dataclass that checks every field on every construction, a codec that
# packs and unpacks the payload alone, and a channel that makes one rng call
# per draw. Production must match them bit for bit.


@dataclass(frozen=True)
class ReferencePacket:
    robot_id: int
    t_sent: int
    ticks_left: int
    ticks_right: int
    flow_dx_left: float
    flow_dx_right: float
    gyro_heading: float
    ir: tuple = (None,) * 5

    def __post_init__(self) -> None:
        if not 0 <= self.robot_id <= 0xFF:
            raise ValueError("robot_id must fit u8")
        if not 0 <= self.t_sent <= 0xFFFFFFFF:
            raise ValueError("t_sent must fit u32")
        for t in (self.ticks_left, self.ticks_right):
            if not -0x8000 <= t <= 0x7FFF:
                raise ValueError("tick counts must fit i16")
        if not -3.142 <= self.gyro_heading <= 3.142:
            raise ValueError("gyro_heading must be wrapped to [-3142, 3142] mrad")
        if len(self.ir) != 5:
            raise ValueError("ir must hold exactly 5 readings")


_REFERENCE_PAYLOAD = struct.Struct("<BIhhhhh5H")


def _reference_quantize(value, unit, lo, hi):
    q = int(round(value / unit))
    if not lo <= q <= hi:
        raise ValueError(f"value {value!r} does not fit the wire field")
    return q


def reference_encode(packet: ReferencePacket) -> bytes:
    gyro_mrad = _reference_quantize(packet.gyro_heading, 1e-3, -3142, 3142)
    ir_wire = tuple(
        0xFFFF if r is None else _reference_quantize(min(r, 0xFFFE), 1.0, 0, 0xFFFE)
        for r in packet.ir
    )
    payload = _REFERENCE_PAYLOAD.pack(
        packet.robot_id, packet.t_sent, packet.ticks_left, packet.ticks_right,
        _reference_quantize(packet.flow_dx_left, 0.1, -0x8000, 0x7FFF),
        _reference_quantize(packet.flow_dx_right, 0.1, -0x8000, 0x7FFF),
        gyro_mrad, *ir_wire,
    )
    body = bytes([len(payload)]) + payload
    crc = crc16_reference(body)
    return b"\xaa\x55" + body + bytes([crc >> 8, crc & 0xFF])


def reference_decode(data: bytes) -> ReferencePacket:
    if len(data) < 5:
        raise Truncated("short")
    if data[:2] != b"\xaa\x55":
        raise BadSync("sync")
    length = data[2]
    if len(data) != 3 + length + 2:
        raise Truncated("length")
    if crc16_reference(data[2:-2]) != (data[-2] << 8) | data[-1]:
        raise CrcMismatch("crc")
    if length != _REFERENCE_PAYLOAD.size:
        raise Truncated("payload size")
    (robot_id, t_sent, ticks_l, ticks_r, flow_l, flow_r, gyro,
     *ir_wire) = _REFERENCE_PAYLOAD.unpack(data[3:-2])
    try:
        return ReferencePacket(
            robot_id, t_sent, ticks_l, ticks_r, flow_l * 0.1, flow_r * 0.1,
            gyro * 1e-3, tuple(None if r == 0xFFFF else float(r) for r in ir_wire))
    except ValueError as exc:
        raise BadPayload(str(exc)) from exc


def _outcome(fn, *args):
    """("packet", repr of its fields), ("ok", repr of another result) or
    ("raised", exception class)."""
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return "raised", type(exc)
    # repr tells -0.0 from 0.0 and 3 from 3.0.
    if isinstance(result, ReferencePacket):
        return "packet", repr(dataclasses.astuple(result))
    if isinstance(result, SensorPacket):
        return "packet", repr(tuple(result))
    return "ok", repr(result)


_EDGE_HEADINGS = (math.pi, -math.pi, 3.142, -3.142, 3.1415, -3.1415, 3.1425,
                  -3.1425, math.nextafter(3.142, 4.0), math.nextafter(-3.142, -4.0),
                  0.0, -0.0, math.nan)
_EDGE_RANGES = (None, 0.0, 0.4, 0.5, -0.4, -0.6, 65533.5, 65534.4, 65534.5,
                65534.6, 65535.0, 65535.5, 1e9, math.inf, -math.inf, math.nan)
_EDGE_FLOWS = (0.0, -0.0, 0.05, -0.05, 3276.7, 3276.75, 3276.8, -3276.8,
               -3276.85, math.inf, -math.inf, math.nan)


# In-range values of every field, and the values at or past each edge.
_VALID_FIELDS = {
    "robot_id": st.integers(min_value=0, max_value=0xFF),
    "t_sent": st.integers(min_value=0, max_value=0xFFFFFFFF),
    "ticks_left": st.integers(min_value=-0x8000, max_value=0x7FFF),
    "ticks_right": st.integers(min_value=-0x8000, max_value=0x7FFF),
    "flow_dx_left": st.floats(min_value=-3276.8, max_value=3276.7),
    "flow_dx_right": st.floats(min_value=-3276.8, max_value=3276.7),
    "gyro_heading": st.floats(min_value=-math.pi, max_value=math.pi),
    "ir": st.tuples(*[st.none() | st.floats(min_value=0.0, max_value=66000.0)] * 5),
}
_EDGE_FIELDS = {
    "robot_id": st.sampled_from((-1, 0x100, 2**40)),
    "t_sent": st.sampled_from((-1, 2**32)),
    "ticks_left": st.sampled_from((-0x8001, 0x8000)),
    "ticks_right": st.sampled_from((-0x8001, 0x8000)),
    "flow_dx_left": st.sampled_from(_EDGE_FLOWS) | st.floats(),
    "flow_dx_right": st.sampled_from(_EDGE_FLOWS) | st.floats(),
    "gyro_heading": st.sampled_from(_EDGE_HEADINGS) | st.floats(),
    "ir": (st.tuples(*[st.sampled_from(_EDGE_RANGES)] * 5)
           | st.lists(st.none(), max_size=6).map(tuple)),
}


def _assert_encodes_as_the_reference(fields: dict) -> None:
    expected = _outcome(lambda: reference_encode(ReferencePacket(**fields)))
    assert _outcome(lambda: encode_frame(SensorPacket(**fields))) == expected
    # A record built positionally checks the same ranges.
    assert (_outcome(lambda: SensorPacket(*fields.values()))[0]
            == _outcome(lambda: ReferencePacket(*fields.values()))[0])


@settings(max_examples=1000, deadline=None)
@given(st.fixed_dictionaries(_VALID_FIELDS),
       st.lists(st.sampled_from(sorted(_EDGE_FIELDS)), max_size=2, unique=True),
       st.data())
def test_encode_matches_the_reference_codec(fields, at_edge, data):
    for name in at_edge:
        fields[name] = data.draw(_EDGE_FIELDS[name], label=name)
    _assert_encodes_as_the_reference(fields)


@pytest.mark.parametrize("gyro_heading", _EDGE_HEADINGS)
def test_encode_matches_the_reference_codec_at_the_heading_edges(gyro_heading):
    _assert_encodes_as_the_reference(dict(
        robot_id=0, t_sent=0, ticks_left=0, ticks_right=0, flow_dx_left=0.0,
        flow_dx_right=0.0, gyro_heading=gyro_heading, ir=(None,) * 5))


@pytest.mark.parametrize("reading", _EDGE_RANGES)
def test_encode_matches_the_reference_codec_at_the_ir_edges(reading):
    _assert_encodes_as_the_reference(dict(
        robot_id=0, t_sent=0, ticks_left=0, ticks_right=0, flow_dx_left=0.0,
        flow_dx_right=0.0, gyro_heading=0.0, ir=(reading, None, 100.0, reading, None)))


def _valid_frame(seed: int) -> bytes:
    return encode_frame(make_packet(np.random.default_rng(seed)))


def _reseal(frame: bytes) -> bytes:
    """Recompute the CRC trailer, so a mutated frame passes the checksum."""
    return frame[:-2] + crc16(frame[2:-2]).to_bytes(2, "big")


def _sealed_frame(gyro_mrad: int) -> bytes:
    """A frame with a valid CRC whatever its gyro field holds."""
    head = struct.pack("<2sBBIhhhhh5H", b"\xaa\x55", PAYLOAD_SIZE, 1, 70, 0, 0,
                       0, 0, gyro_mrad, *(0xFFFF,) * 5)
    return head + crc16(head[2:]).to_bytes(2, "big")


mutated_frames = st.builds(
    lambda seed, flips, reseal, cut: (
        (_reseal if reseal else bytes)(
            bytes(b ^ flips.get(i, 0)
                  for i, b in enumerate(_valid_frame(seed))))[:cut]),
    st.integers(min_value=0, max_value=10_000),
    st.dictionaries(st.integers(min_value=0, max_value=29),
                    st.integers(min_value=1, max_value=255), max_size=3),
    st.booleans(),
    st.none() | st.integers(min_value=0, max_value=40),
)


@settings(max_examples=1000, deadline=None)
@given(st.binary(max_size=40) | mutated_frames
       | st.integers(min_value=-0x8000, max_value=0x7FFF).map(_sealed_frame))
def test_decode_matches_the_reference_codec(data):
    assert _outcome(decode_frame, data) == _outcome(reference_decode, data)


@pytest.mark.parametrize("gyro_mrad", [3143, -3143, 0x7FFF, -0x8000])
def test_a_sealed_frame_with_an_unwrapped_gyro_field_is_a_bad_payload(gyro_mrad):
    frame = _sealed_frame(gyro_mrad)
    with pytest.raises(BadPayload):
        reference_decode(frame)
    with pytest.raises(BadPayload):
        decode_frame(frame)
    # One mrad inside the field decodes.
    inside = 3142 if gyro_mrad > 0 else -3142
    assert decode_frame(_sealed_frame(inside)).gyro_heading == inside * 1e-3


class ReferenceChannel:
    """The star channel with one rng call per draw: a scalar loss draw, a
    bit-flip draw per bit, then a scalar rng.uniform latency."""

    def __init__(self, model: ChannelModel, rng: np.random.Generator):
        self.model = model
        self.rng = rng
        self.sent = self.dropped = self.undecodable = 0
        self._queue = []

    def send(self, frame, t_now_ms, robot_id):
        self.sent += 1
        if self.rng.random() < self.model.loss_prob:
            self.dropped += 1
            return
        if self.model.bit_flip_prob > 0.0:
            bits = np.unpackbits(np.frombuffer(frame, dtype=np.uint8))
            flips = self.rng.random(bits.size) < self.model.bit_flip_prob
            frame = np.packbits(bits ^ flips).tobytes()
        latency = self.rng.uniform(self.model.latency_min_ms, self.model.latency_max_ms)
        heapq.heappush(self._queue, (t_now_ms + latency, robot_id, self.sent, frame))

    def pop_due(self, t_now_ms):
        due = []
        while self._queue and self._queue[0][0] <= t_now_ms:
            due.append(heapq.heappop(self._queue))
        return due

    def receive(self, t_now_ms):
        packets = []
        for *_, data in self.pop_due(t_now_ms):
            try:
                packets.append(reference_decode(data))
            except FrameError:
                self.undecodable += 1
        return packets

    @property
    def pending(self):
        return len(self._queue)


def _counters(channel):
    return channel.sent, channel.dropped, channel.undecodable, channel.pending


@pytest.mark.parametrize("loss_prob", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("bit_flip_prob", [0.0, 0.002])
@pytest.mark.parametrize("latency_ms", [(50.0, 50.0), (0.0, 150.0), (20.0, 33.3)])
def test_channel_matches_the_scalar_draw_reference(loss_prob, bit_flip_prob, latency_ms):
    model = ChannelModel(latency_min_ms=latency_ms[0], latency_max_ms=latency_ms[1],
                         loss_prob=loss_prob, bit_flip_prob=bit_flip_prob)
    frames = np.random.default_rng(17)
    for consume in ("pop_due", "receive"):
        channel = StarChannel(model, np.random.default_rng(18))
        reference = ReferenceChannel(model, np.random.default_rng(18))
        for step in range(400):
            # Sends every 10 ms, so a 150 ms jitter span reorders frames.
            t = 10.0 * step
            for robot_id in range(3):
                frame = encode_frame(make_packet(frames, robot_id, step))
                if step % 97 == 5:
                    # Longer than one draw block of bit flips, and not a report.
                    frame = frame * 20
                channel.send(frame, t, robot_id)
                reference.send(frame, t, robot_id)
            if consume == "pop_due":
                got = [(d.deliver_ms.hex(), d.robot_id, d.seq, d.data)
                       for d in channel.pop_due(t)]
                want = [(d[0].hex(), *d[1:]) for d in reference.pop_due(t)]
            else:
                got = [_outcome(lambda p=p: p) for p in channel.receive(t)]
                want = [_outcome(lambda p=p: p) for p in reference.receive(t)]
            assert got == want
            assert _counters(channel) == _counters(reference)
        assert channel.sent == 1200
    if loss_prob == 1.0:
        assert channel.dropped == 1200
    if 0.0 < loss_prob < 1.0 and bit_flip_prob > 0.0:
        assert min(channel.dropped, channel.undecodable, channel.pending) > 0


# --- batched codec and channel ----------------------------------------------


def _decoded_or_raised(data: bytes):
    """repr of decode_frame's packet, or its exception's class and text."""
    try:
        return "packet", repr(decode_frame(data))
    except FrameError as exc:
        return type(exc), str(exc)


def _batch_outcome(item):
    if isinstance(item, FrameError):
        return type(item), str(item)
    return "packet", repr(item)


_BAD_SYNC = b"\xab" + _valid_frame(1)[1:]
_BAD_LENGTH = _reseal(_valid_frame(2)[:2] + bytes([24]) + _valid_frame(2)[3:])
# Frames that pass the sync, length and CRC checks of a batch but not its
# gyro check, one of each other check, and sizes other than FRAME_SIZE.
_EDGE_FRAMES = (_sealed_frame(3143), _sealed_frame(-0x8000), _sealed_frame(3142),
                _BAD_SYNC, _BAD_LENGTH, _valid_frame(3)[:-1], _valid_frame(4) + b"\x00",
                _valid_frame(5) * 2, b"", b"\xaa\x55\x19")
any_frames = st.lists(
    st.binary(max_size=40) | mutated_frames | st.sampled_from(_EDGE_FRAMES)
    | st.integers(min_value=-0x8000, max_value=0x7FFF).map(_sealed_frame)
    | st.integers(min_value=0, max_value=10_000).map(_valid_frame),
    max_size=40)


@settings(max_examples=300, deadline=None)
@given(any_frames)
@example(list(_EDGE_FRAMES))
@example([_valid_frame(i) for i in range(30)])
def test_decode_frames_is_decode_frame_of_each(frames):
    want = [_decoded_or_raised(data) for data in frames]
    assert [_batch_outcome(item) for item in decode_frames(frames)] == want
    # The array path, which a batch of fewer than MIN_DECODE_BATCH frames
    # skips.
    with mock.patch.object(comms, "MIN_DECODE_BATCH", 0):
        assert [_batch_outcome(item) for item in decode_frames(frames)] == want


def _encoded_or_raised(encode, packets):
    try:
        return "frames", encode(packets)
    except Exception as exc:  # noqa: BLE001 - the class and text are the outcome
        return type(exc), str(exc)


# Valid reports with the values at the edge of each float wire field.
_EDGE_FIELD_VALUES = st.fixed_dictionaries({
    **_VALID_FIELDS,
    "flow_dx_left": _VALID_FIELDS["flow_dx_left"] | st.sampled_from(_EDGE_FLOWS),
    "flow_dx_right": _VALID_FIELDS["flow_dx_right"] | st.sampled_from(_EDGE_FLOWS),
    "gyro_heading": _VALID_FIELDS["gyro_heading"] | st.sampled_from(
        tuple(h for h in _EDGE_HEADINGS if not math.isnan(h))),
    "ir": _VALID_FIELDS["ir"] | st.tuples(*[st.sampled_from(_EDGE_RANGES)] * 5),
}).filter(lambda f: -3.142 <= f["gyro_heading"] <= 3.142)


@settings(max_examples=300, deadline=None)
@given(st.lists(_EDGE_FIELD_VALUES.map(lambda f: SensorPacket(**f)), max_size=30))
@example([SensorPacket(0, 0, 0, 0, 3276.7, -3276.8, 3.142, (None,) * 5),
          SensorPacket(1, 2, -0x8000, 0x7FFF, 0.0, -0.0, -3.142,
                       (None, 65534.4, 65534.6, 1e9, math.inf))])
@example([SensorPacket(0, 0, 0, 0, 0.0, 0.0, 0.0),
          SensorPacket(0, 1, 0, 0, 3276.75, 0.0, 0.0),
          SensorPacket(0, 2, 0, 0, 0.0, math.nan, 0.0)])
@example([SensorPacket(0, 0, 0, 0, 0.0, 0.0, 0.0, (-0.6, None, None, None, None)),
          SensorPacket(0, 1, 0, 0, math.inf, 0.0, 0.0)])
def test_encode_frames_is_encode_frame_joined(packets):
    assert (_encoded_or_raised(encode_frames, packets)
            == _encoded_or_raised(lambda ps: b"".join(map(encode_frame, ps)), packets))


def test_heading_frames_are_the_packets_encoded():
    headings = np.array([0.0, -0.0, 3.142, -3.142, 1.0005, -1.0005, 0.25])
    packets = [SensorPacket(i, 70, 0, 0, 0.0, 0.0, h) for i, h in enumerate(headings.tolist())]
    assert encode_heading_frames(70, headings) == encode_frames(packets)
    assert encode_frames(packets) == b"".join(map(encode_frame, packets))


def _queued(channel):
    return [(d.deliver_ms.hex(), d.robot_id, d.seq, d.data) for d in channel.pop_due(1e12)]


@pytest.mark.parametrize("loss_prob", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("bit_flip_prob", [0.0, 0.01])
@pytest.mark.parametrize("latency_ms", [(50.0, 50.0), (0.0, 150.0)])
def test_send_many_is_one_send_per_frame(loss_prob, bit_flip_prob, latency_ms):
    # Batches of every size up to 2 x 4096 / 242 doubles, between single
    # sends, so the draw blocks run out inside a batch and inside a frame.
    model = ChannelModel(latency_min_ms=latency_ms[0], latency_max_ms=latency_ms[1],
                         loss_prob=loss_prob, bit_flip_prob=bit_flip_prob)
    batched = StarChannel(model, np.random.default_rng(19))
    single = StarChannel(model, np.random.default_rng(19))
    rng = np.random.default_rng(20)
    sizes = [0, 1, 2, 7, 8, 33, 1] * 3
    for size in sizes:
        t_sent = rng.uniform(0.0, 1e4, size).tolist()
        packets = [make_packet(rng, robot_id=i, t_sent=i) for i in range(size)]
        frames = encode_frames(packets)
        at = t_sent if size % 2 else 123.25
        batched.send_many(frames, at, range(size))
        for i in range(size):
            single.send(frames[FRAME_SIZE * i:FRAME_SIZE * (i + 1)],
                        t_sent[i] if size % 2 else 123.25, i)
        frame = encode_frame(make_packet(rng))
        batched.send(frame, 5.0, 9)
        single.send(frame, 5.0, 9)
        assert _counters(batched) == _counters(single)
    assert _queued(batched) == _queued(single)
    assert batched.sent == sum(sizes) + len(sizes)


def test_receive_counts_each_reject_class_as_decode_frame_does():
    # Batches large enough to decode as arrays, and single frames, through
    # a channel that corrupts about one frame in three.
    model = ChannelModel(latency_min_ms=0, latency_max_ms=50, bit_flip_prob=0.0015)
    channel = StarChannel(model, np.random.default_rng(21))
    twin = StarChannel(model, np.random.default_rng(21))
    rng = np.random.default_rng(22)
    counts = dict.fromkeys(FRAME_ERRORS, 0)
    for step in range(300):
        t = 10.0 * step
        size = 40 if step % 3 else 1
        frames = encode_frames([make_packet(rng, i % 256, step) for i in range(size)])
        channel.send_many(frames, t, range(size))
        twin.send_many(frames, t, range(size))
        expected = []
        for delivery in twin.pop_due(t + 25.0):
            outcome = _decoded_or_raised(delivery.data)
            if outcome[0] == "packet":
                expected.append(outcome[1])
            else:
                counts[outcome[0]] += 1
        assert [repr(p) for p in channel.receive(t + 25.0)] == expected
        assert channel.rejected == counts
    assert channel.undecodable == sum(counts.values())
    assert min(counts[BadSync], counts[Truncated], counts[CrcMismatch]) > 0
