"""Sensor-report wire protocol and star-network channel model.

Frame layout: 0xAA 0x55 | length u8 | payload | crc_hi crc_lo, where the
CRC-16 (CCITT-FALSE: poly 0x1021, init 0xFFFF, unreflected, no final xor)
covers length byte plus payload and travels big-endian.  The payload is a
little-endian packed sensor report, see SensorPacket.
"""

from __future__ import annotations

import binascii
import heapq
import math
import struct
from dataclasses import dataclass, field

import numpy as np

SYNC = b"\xaa\x55"

# id u8 | t_sent u32 | ticks i16 x2 | flow i16 x2 | gyro i16 | ir u16 x5
_PAYLOAD = struct.Struct("<BIhhhhh5H")
PAYLOAD_SIZE = _PAYLOAD.size  # 25 bytes
FRAME_SIZE = 2 + 1 + PAYLOAD_SIZE + 2

IR_OUT_OF_RANGE = 0xFFFF
# Largest IR range (mm) the u16 field carries; a longer reading saturates
# to it, as the sensor itself would.
IR_MAX_MM = 0xFFFE

# Wire scaling: flow displacements in 0.1 mm units, headings in milliradians.
FLOW_UNIT_MM = 0.1
# Flow counters are i16 on the wire, so they wrap every 6553.6 mm.
FLOW_WRAP_MM = FLOW_UNIT_MM * 0x10000
GYRO_UNIT_RAD = 1e-3


class FrameError(Exception):
    """A received frame was rejected."""


class BadSync(FrameError):
    pass


class Truncated(FrameError):
    """Frame too short, or length byte inconsistent with the bytes present."""


class CrcMismatch(FrameError):
    pass


class BadPayload(FrameError):
    """Checksum passed but the payload is not a valid sensor report."""


def wrap_i16(value: int) -> int:
    """Wrap an integer counter onto the signed 16-bit wire range."""
    return ((value + 0x8000) & 0xFFFF) - 0x8000


def wrap_flow(mm: float) -> float:
    """Wrap a flow distance counter (mm) onto its i16 wire field.

    Snaps to the 0.1 mm wire grid before wrapping, so the wrapped value
    quantizes back to the same i16."""
    return wrap_i16(round(mm / FLOW_UNIT_MM)) * FLOW_UNIT_MM


def crc16(data: bytes, crc: int = 0xFFFF) -> int:
    """CRC-16/CCITT-FALSE; crc seeds the register, so calls chain."""
    return binascii.crc_hqx(data, crc)


@dataclass(frozen=True)
class SensorPacket:
    """One robot's sensor report.

    Tick and flow fields are free-running odometry counters sampled at send
    time (they wrap at the i16 wire width), so a consumer differencing two
    reports recovers the motion across the whole gap even when intermediate
    frames were lost.  gyro_heading is an absolute wrapped heading.  Flow
    distances are in mm here and in 0.1 mm units on the wire; headings in
    rad here, mrad on the wire.  ir holds five ranges in mm with None for
    out-of-range rays.
    """

    robot_id: int
    t_sent: int                        # ms
    ticks_left: int
    ticks_right: int
    flow_dx_left: float                # mm
    flow_dx_right: float               # mm
    gyro_heading: float                # rad, wrapped
    ir: tuple[float | None, ...] = (None,) * 5

    def __post_init__(self) -> None:
        if not 0 <= self.robot_id <= 0xFF:
            raise ValueError("robot_id must fit u8")
        if not 0 <= self.t_sent <= 0xFFFFFFFF:
            raise ValueError("t_sent must fit u32")
        for t in (self.ticks_left, self.ticks_right):
            if not -0x8000 <= t <= 0x7FFF:
                raise ValueError("tick counts must fit i16")
        # Wrapped heading, with headroom for the mrad wire quantization:
        # (-pi, pi] rounds into [-3142, 3142] mrad at the boundaries.
        if not -3.142 <= self.gyro_heading <= 3.142:
            raise ValueError("gyro_heading must be wrapped to [-3142, 3142] mrad")
        if len(self.ir) != 5:
            raise ValueError("ir must hold exactly 5 readings")


def _quantize(value: float, unit: float, lo: int, hi: int) -> int:
    q = int(round(value / unit))
    if not lo <= q <= hi:
        raise ValueError(f"value {value!r} does not fit the wire field")
    return q


def encode_frame(packet: SensorPacket) -> bytes:
    """Pack a sensor report into a framed byte string."""
    # Wrapped (-pi, pi] headings quantize into [-3142, 3142] mrad: values
    # just above -pi round down to -3142, and +pi itself rounds up to 3142.
    gyro_mrad = _quantize(packet.gyro_heading, GYRO_UNIT_RAD, -3142, 3142)
    ir_wire = tuple(
        IR_OUT_OF_RANGE if r is None else _quantize(min(r, IR_MAX_MM), 1.0, 0, IR_MAX_MM)
        for r in packet.ir
    )
    payload = _PAYLOAD.pack(
        packet.robot_id,
        packet.t_sent,
        packet.ticks_left,
        packet.ticks_right,
        _quantize(packet.flow_dx_left, FLOW_UNIT_MM, -0x8000, 0x7FFF),
        _quantize(packet.flow_dx_right, FLOW_UNIT_MM, -0x8000, 0x7FFF),
        gyro_mrad,
        *ir_wire,
    )
    body = bytes([len(payload)]) + payload
    crc = crc16(body)
    return SYNC + body + bytes([crc >> 8, crc & 0xFF])


def decode_frame(data: bytes) -> SensorPacket:
    """Unpack one framed byte string, raising a FrameError subclass on any
    corruption: BadSync, Truncated (short or inconsistent length), or
    CrcMismatch."""
    if len(data) < 5:
        raise Truncated(f"frame of {len(data)} bytes is below the minimum")
    if data[:2] != SYNC:
        raise BadSync(f"bad sync bytes {data[:2].hex()}")
    length = data[2]
    if len(data) != 3 + length + 2:
        raise Truncated(f"length byte says {length}, frame has {len(data)} bytes")
    expected = (data[-2] << 8) | data[-1]
    actual = crc16(data[2:-2])
    if actual != expected:
        raise CrcMismatch(f"crc {actual:#06x} != trailer {expected:#06x}")
    if length != PAYLOAD_SIZE:
        raise Truncated(f"payload of {length} bytes is not a sensor report")
    (robot_id, t_sent, ticks_l, ticks_r, flow_l, flow_r, gyro, *ir_wire) = _PAYLOAD.unpack(
        data[3:-2]
    )
    try:
        return SensorPacket(
            robot_id=robot_id,
            t_sent=t_sent,
            ticks_left=ticks_l,
            ticks_right=ticks_r,
            flow_dx_left=flow_l * FLOW_UNIT_MM,
            flow_dx_right=flow_r * FLOW_UNIT_MM,
            gyro_heading=gyro * GYRO_UNIT_RAD,
            ir=tuple(None if r == IR_OUT_OF_RANGE else float(r) for r in ir_wire),
        )
    except ValueError as exc:
        raise BadPayload(str(exc)) from exc


@dataclass(frozen=True)
class ChannelModel:
    """Independent loss, bit corruption, and uniform latency per frame."""

    latency_min_ms: float = 50.0
    latency_max_ms: float = 100.0
    loss_prob: float = 0.0
    bit_flip_prob: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.latency_min_ms <= self.latency_max_ms:
            raise ValueError("require 0 <= latency_min_ms <= latency_max_ms")
        for p in (self.loss_prob, self.bit_flip_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0, 1]")


@dataclass(frozen=True)
class Delivery:
    """A frame due to arrive at deliver_ms (possibly corrupted in flight)."""

    deliver_ms: float
    robot_id: int
    seq: int
    data: bytes


def corrupt(data: bytes, bit_flip_prob: float, rng: np.random.Generator) -> bytes:
    """Flip each bit independently with the given probability."""
    if bit_flip_prob <= 0.0:
        return data
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    flips = rng.random(bits.size) < bit_flip_prob
    return np.packbits(bits ^ flips).tobytes()


class StarChannel:
    """Uplink of the star network: queues frames, delivers them in
    (deliver time, robot id, send sequence) order.

    Latency jitter can reorder frames from the same robot when the jitter
    span exceeds the send period; the tie-break keeps delivery deterministic.
    Every frame sent is counted once: dropped in flight, undecodable on
    receipt, returned by receive, or still pending.
    """

    def __init__(self, model: ChannelModel, rng: np.random.Generator):
        self.model = model
        self.rng = rng
        self.sent = 0
        self.dropped = 0
        self.undecodable = 0
        self._queue: list[tuple[float, int, int, bytes]] = []

    def send(self, frame: bytes, t_now_ms: float, robot_id: int) -> None:
        self.sent += 1
        if self.rng.random() < self.model.loss_prob:
            self.dropped += 1
            return
        data = corrupt(frame, self.model.bit_flip_prob, self.rng)
        latency = self.rng.uniform(self.model.latency_min_ms, self.model.latency_max_ms)
        heapq.heappush(self._queue, (t_now_ms + latency, robot_id, self.sent, data))

    def pop_due(self, t_now_ms: float) -> list[Delivery]:
        """All deliveries due at or before t_now_ms, in delivery order."""
        due = []
        while self._queue and self._queue[0][0] <= t_now_ms:
            deliver_ms, robot_id, seq, data = heapq.heappop(self._queue)
            due.append(Delivery(deliver_ms, robot_id, seq, data))
        return due

    def receive(self, t_now_ms: float) -> list[SensorPacket]:
        """Reports due at or before t_now_ms, decoded, in delivery order;
        frames that fail to decode are counted in undecodable."""
        packets = []
        for delivery in self.pop_due(t_now_ms):
            try:
                packets.append(decode_frame(delivery.data))
            except FrameError:
                self.undecodable += 1
        return packets

    @property
    def pending(self) -> int:
        return len(self._queue)


@dataclass
class FreshnessBuffer:
    """Per-robot latest-report cache keyed by send timestamp.

    A report only replaces the cached one if its t_sent is strictly newer,
    so late (reordered) frames never roll state back.
    """

    _latest: dict[int, SensorPacket] = field(default_factory=dict)
    superseded: int = 0

    def update(self, packet: SensorPacket) -> bool:
        """Insert a report; returns False if an equal-or-newer one is cached."""
        cached = self._latest.get(packet.robot_id)
        if cached is not None and packet.t_sent <= cached.t_sent:
            self.superseded += 1
            return False
        self._latest[packet.robot_id] = packet
        return True

    def latest(self, robot_id: int) -> SensorPacket | None:
        return self._latest.get(robot_id)

    def robot_ids(self) -> list[int]:
        return sorted(self._latest)
