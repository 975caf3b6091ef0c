from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmsim.comms import (
    FRAME_SIZE,
    IR_MAX_MM,
    PAYLOAD_SIZE,
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
    encode_frame,
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
    assert corrupt(data, 0.0, rng) == data


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
