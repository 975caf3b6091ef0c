"""Sensor-report wire protocol and star-network channel model.

Frame layout: 0xAA 0x55 | length u8 | payload | crc_hi crc_lo, where the
CRC-16 (CCITT-FALSE: poly 0x1021, init 0xFFFF, unreflected, no final xor)
covers length byte plus payload and travels big-endian.  The payload is a
little-endian packed sensor report, see SensorPacket.

encode_frame, decode_frame and StarChannel.send handle one frame each and
are the reference.  A batch goes through their array forms, with the same
bytes, doubles and errors: encode_frames packs many reports into one
buffer of 30-byte records, StarChannel.send_many draws each frame's loss,
flip and latency doubles in send order, and decode_frames checks and
unpacks a batch of many frames at once; StarChannel.receive decodes
through decode_frames alone.
"""

from __future__ import annotations

import binascii
import bisect
import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import NamedTuple

import numpy as np

from .core import BlockStream

SYNC = b"\xaa\x55"
_SYNC_WORD = int.from_bytes(SYNC, "big")

# id u8 | t_sent u32 | ticks i16 x2 | flow i16 x2 | gyro i16 | ir u16 x5
_PAYLOAD = struct.Struct("<BIhhhhh5H")
PAYLOAD_SIZE = _PAYLOAD.size  # 25 bytes
FRAME_SIZE = 2 + 1 + PAYLOAD_SIZE + 2
# Robot ids are u8 on the wire: at most 256 robots share one channel.
MAX_ROBOTS = 0x100
# sync | length | payload: everything the CRC trailer follows.
_HEAD = struct.Struct("<2sB" + _PAYLOAD.format[1:])
# One whole frame as a record, for the array forms of the codec.
_FRAME = np.dtype([("sync", ">u2"), ("length", "u1"), ("robot_id", "u1"),
                   ("t_sent", "<u4"), ("ticks", "<i2", (2,)), ("flow", "<i2", (2,)),
                   ("gyro", "<i2"), ("ir", "<u2", (5,)), ("crc", ">u2")])

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


# Every class of FrameError that decode_frame raises.
FRAME_ERRORS = (BadSync, Truncated, CrcMismatch, BadPayload)


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


_NO_IR = (None,) * 5
_NO_IR_WIRE = (IR_OUT_OF_RANGE,) * 5


class _SensorFields(NamedTuple):
    robot_id: int
    t_sent: int                        # ms
    ticks_left: int
    ticks_right: int
    flow_dx_left: float                # mm
    flow_dx_right: float               # mm
    gyro_heading: float                # rad, wrapped
    ir: tuple[float | None, ...] = _NO_IR


class SensorPacket(_SensorFields):
    """One robot's sensor report.

    Tick and flow fields are free-running odometry counters sampled at send
    time (they wrap at the i16 wire width), so a consumer differencing two
    reports recovers the motion across the whole gap even when intermediate
    frames were lost.  gyro_heading is an absolute wrapped heading.  Flow
    distances are in mm here and in 0.1 mm units on the wire; headings in
    rad here, mrad on the wire.  ir holds five ranges in mm with None for
    out-of-range rays.

    Building a report checks every field range; decode_frame skips the
    checks the wire format already enforces.
    """

    __slots__ = ()

    def __new__(cls, robot_id: int, t_sent: int, ticks_left: int, ticks_right: int,
                flow_dx_left: float, flow_dx_right: float, gyro_heading: float,
                ir: tuple[float | None, ...] = _NO_IR) -> "SensorPacket":
        if not 0 <= robot_id < MAX_ROBOTS:
            raise ValueError("robot_id must fit u8")
        if not 0 <= t_sent <= 0xFFFFFFFF:
            raise ValueError("t_sent must fit u32")
        if not (-0x8000 <= ticks_left <= 0x7FFF and -0x8000 <= ticks_right <= 0x7FFF):
            raise ValueError("tick counts must fit i16")
        # Wrapped heading, with headroom for the mrad wire quantization:
        # (-pi, pi] rounds into [-3142, 3142] mrad at the boundaries.
        if not -3.142 <= gyro_heading <= 3.142:
            raise ValueError("gyro_heading must be wrapped to [-3142, 3142] mrad")
        if len(ir) != 5:
            raise ValueError("ir must hold exactly 5 readings")
        return tuple.__new__(cls, (robot_id, t_sent, ticks_left, ticks_right,
                                   flow_dx_left, flow_dx_right, gyro_heading, ir))


def _quantize(value: float, unit: float, lo: int, hi: int) -> int:
    q = int(round(value / unit))
    if not lo <= q <= hi:
        raise ValueError(f"value {value!r} does not fit the wire field")
    return q


def encode_frame(packet: SensorPacket) -> bytes:
    """Pack a sensor report into a framed byte string."""
    robot_id, t_sent, ticks_l, ticks_r, flow_l, flow_r, gyro, ir = packet
    # Wrapped (-pi, pi] headings quantize into [-3142, 3142] mrad: values
    # just above -pi round down to -3142, and +pi itself rounds up to 3142.
    gyro_mrad = _quantize(gyro, GYRO_UNIT_RAD, -3142, 3142)
    ir_wire = _NO_IR_WIRE if ir == _NO_IR else tuple(
        IR_OUT_OF_RANGE if r is None else _quantize(min(r, IR_MAX_MM), 1.0, 0, IR_MAX_MM)
        for r in ir
    )
    return _seal(_HEAD.pack(
        SYNC, PAYLOAD_SIZE, robot_id, t_sent, ticks_l, ticks_r,
        _quantize(flow_l, FLOW_UNIT_MM, -0x8000, 0x7FFF),
        _quantize(flow_r, FLOW_UNIT_MM, -0x8000, 0x7FFF),
        gyro_mrad, *ir_wire,
    ))


def _seal(head: bytes) -> bytes:
    """A frame's sync, length and payload with its CRC trailer added."""
    return head + crc16(head[2:]).to_bytes(2, "big")


def _pack_frames(robot_id, t_sent, ticks, flow, gyro, ir) -> bytes:
    """The sealed frames of these wire fields, one per element of gyro:
    ticks and flow hold left then right, ir the five readings of each
    frame or one value for all; each field broadcasts as numpy does."""
    records = np.empty(len(gyro), _FRAME)
    records["sync"] = _SYNC_WORD
    records["length"] = PAYLOAD_SIZE
    records["robot_id"] = robot_id
    records["t_sent"] = t_sent
    records["ticks"] = ticks
    records["flow"] = flow
    records["gyro"] = gyro
    records["ir"] = ir
    head, crc_hqx = records.tobytes(), binascii.crc_hqx
    records["crc"] = [crc_hqx(head[i:i + 1 + PAYLOAD_SIZE], 0xFFFF)
                      for i in range(2, len(head), FRAME_SIZE)]
    return records.tobytes()


def encode_frames(packets: Sequence[SensorPacket]) -> bytes:
    """b"".join(map(encode_frame, packets)), quantized and packed as
    columns with the same float operations.  When a value does not fit its
    wire field, or is not a float numpy can take, the packets go through
    encode_frame one by one, which raises its error for the first such
    packet."""
    if not packets:
        return b""
    robot_id, t_sent, ticks_l, ticks_r, flow_l, flow_r, gyro, ir = zip(*packets)
    # np.rint rounds half to even, as round does in _quantize; a NaN fails
    # every range test.
    try:
        with np.errstate(all="ignore"):
            gyro_q = np.rint(np.array(gyro, dtype=float) / GYRO_UNIT_RAD)
            flow_q = np.rint(np.array((flow_l, flow_r), dtype=float) / FLOW_UNIT_MM)
            fits = ((np.abs(gyro_q) <= 3142).all()
                    and ((-0x8000 <= flow_q) & (flow_q <= 0x7FFF)).all())
            if ir.count(_NO_IR) == len(ir):
                ir_wire = IR_OUT_OF_RANGE
            else:
                missing = np.array([[r is None for r in row] for row in ir])
                # None reads as NaN here; min(r, IR_MAX_MM) keeps a NaN too.
                ir_q = np.rint(np.minimum(np.array(ir, dtype=float), IR_MAX_MM))
                fits = fits and (missing | ((0 <= ir_q) & (ir_q <= IR_MAX_MM))).all()
                ir_wire = np.where(missing, IR_OUT_OF_RANGE, ir_q)
    except (TypeError, ValueError, OverflowError):
        fits = False
    if not fits:
        return b"".join(map(encode_frame, packets))
    return _pack_frames(robot_id, t_sent, np.transpose((ticks_l, ticks_r)), flow_q.T,
                        gyro_q, ir_wire)


def encode_heading_frames(t_sent: int, headings: np.ndarray) -> bytes:
    """The frames of robots 0, 1, ... reporting only their gyro headings at
    t_sent, in one buffer: encode_frame of each one's SensorPacket with
    zero ticks and flows and no IR readings, after the same checks."""
    if len(headings) > MAX_ROBOTS:
        raise ValueError("robot_id must fit u8")
    if not 0 <= t_sent <= 0xFFFFFFFF:
        raise ValueError("t_sent must fit u32")
    if np.count_nonzero(np.abs(headings) <= 3.142) < len(headings):
        raise ValueError("gyro_heading must be wrapped to [-3142, 3142] mrad")
    # np.rint rounds half to even, as round does in _quantize.
    mrad = np.rint(headings / GYRO_UNIT_RAD)
    misfit = np.abs(mrad) > 3142
    if np.count_nonzero(misfit):
        value = float(headings[misfit.argmax()])
        raise ValueError(f"value {value!r} does not fit the wire field")
    return _pack_frames(np.arange(len(mrad)), t_sent, 0, 0, mrad, IR_OUT_OF_RANGE)


def decode_frame(data: bytes) -> SensorPacket:
    """Unpack one framed byte string, raising a FrameError subclass on any
    corruption: BadSync, Truncated (short or inconsistent length),
    CrcMismatch, or BadPayload (a gyro field outside [-3142, 3142] mrad;
    the field widths bound every other field)."""
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
    fields = _PAYLOAD.unpack_from(data, 3)
    gyro = fields[6]
    if not -3142 <= gyro <= 3142:
        raise BadPayload(f"gyro field {gyro} mrad is not a wrapped heading")
    ir_wire = fields[7:]
    ir = _NO_IR if ir_wire == _NO_IR_WIRE else tuple(
        None if r == IR_OUT_OF_RANGE else float(r) for r in ir_wire)
    return tuple.__new__(SensorPacket, (
        fields[0], fields[1], fields[2], fields[3], fields[4] * FLOW_UNIT_MM,
        fields[5] * FLOW_UNIT_MM, gyro * GYRO_UNIT_RAD, ir))


def _decoded(data: bytes) -> SensorPacket | FrameError:
    """decode_frame's packet, or the FrameError it raises."""
    try:
        return decode_frame(data)
    except FrameError as error:
        return error


# decode_frames decodes fewer frames than this one at a time: below about
# 16 frames the array path's fixed cost of some 20 us exceeds the 1-2 us a
# frame it saves.
MIN_DECODE_BATCH = 16


def decode_frames(frames: Sequence[bytes]) -> list[SensorPacket | FrameError]:
    """decode_frame of each frame, in order: its packet, or the FrameError
    it raises.

    In a batch of at least MIN_DECODE_BATCH, the frames of FRAME_SIZE
    bytes are read as records of one array and pass when the sync, length
    byte, CRC and gyro field all check, as in decode_frame; any other
    frame goes through decode_frame.
    """
    if len(frames) < MIN_DECODE_BATCH:
        return list(map(_decoded, frames))
    sized = [len(data) == FRAME_SIZE for data in frames]
    wire = b"".join(compress(frames, sized))
    records = np.frombuffer(wire, _FRAME)
    gyro = records["gyro"]
    passed = ((records["sync"] == _SYNC_WORD) & (records["length"] == PAYLOAD_SIZE)
              & (-3142 <= gyro) & (gyro <= 3142))
    # A sealed frame's CRC register ends at zero after its trailer.
    crc_hqx = binascii.crc_hqx
    residues = [crc_hqx(wire[i:i + FRAME_SIZE - 2], 0xFFFF)
                for i in range(2, len(wire), FRAME_SIZE)]
    if residues.count(0) < len(residues):
        passed &= np.array(residues) == 0
    good = records if passed.all() else records[passed]
    ir = good["ir"]
    if (ir == IR_OUT_OF_RANGE).all():
        readings = repeat(_NO_IR)
    else:
        readings = [_NO_IR if row == _NO_IR_WIRE else tuple(
            None if r == IR_OUT_OF_RANGE else float(r) for r in row)
            for row in map(tuple, ir.tolist())]
    ticks, flow = good["ticks"].T.tolist(), (good["flow"] * FLOW_UNIT_MM).T.tolist()
    packets = map(tuple.__new__, repeat(SensorPacket), zip(
        good["robot_id"].tolist(), good["t_sent"].tolist(), *ticks, *flow,
        (good["gyro"] * GYRO_UNIT_RAD).tolist(), readings))
    if len(good) == len(frames):
        return list(packets)
    # Each sized frame takes the next record's verdict.
    verdicts = iter(passed.tolist())
    return [next(packets) if is_sized and next(verdicts) else _decoded(data)
            for data, is_sized in zip(frames, sized)]


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
        if not math.isfinite(self.latency_max_ms):
            raise ValueError("latency_max_ms must be finite")
        for p in (self.loss_prob, self.bit_flip_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0, 1]")


class Delivery(NamedTuple):
    """A frame due to arrive at deliver_ms (possibly corrupted in flight).

    The field order is the channel's delivery order."""

    deliver_ms: float
    robot_id: int
    seq: int
    data: bytes


def corrupt(data: bytes, bit_flip_prob: float, uniforms: np.ndarray) -> bytes:
    """Flip bit k of data (most significant bit of each byte first) where
    uniforms[k] < bit_flip_prob; uniforms holds 8 * len(data) doubles."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    return np.packbits(bits ^ (uniforms < bit_flip_prob)).tobytes()


class StarChannel:
    """Uplink of the star network: queues frames, delivers them in
    (deliver time, robot id, send sequence) order.

    Latency jitter can reorder frames from the same robot when the jitter
    span exceeds the send period; the tie-break keeps delivery deterministic.
    Every frame sent is counted once: dropped in flight, undecodable on
    receipt, returned by receive, or still pending.  rejected counts the
    undecodable frames by the FrameError class decode_frame raises.

    Each frame takes the next doubles of rng's stream, in order: one for
    the loss test; then, if the frame survives, one per bit of it for
    corrupt when bit_flip_prob > 0, and one u for the latency
    lo + (hi - lo) * u, which is what rng.uniform(lo, hi) returns.  The
    doubles are read through a BlockStream of rng.random, so every value
    is the one a call per draw would give.  send_many takes a batch's
    doubles in the order that one send per frame would.
    """

    def __init__(self, model: ChannelModel, rng: np.random.Generator):
        self.model = model
        self.sent = 0
        self.dropped = 0
        self.rejected = dict.fromkeys(FRAME_ERRORS, 0)
        # Frames in flight, in delivery order.
        self._queue: list[Delivery] = []
        self._latency_lo = float(model.latency_min_ms)
        self._latency_span = float(model.latency_max_ms) - self._latency_lo
        self._uniforms = BlockStream(rng.random)

    @property
    def undecodable(self) -> int:
        return sum(self.rejected.values())

    def send(self, frame: bytes, t_now_ms: float, robot_id: int) -> None:
        self.sent += 1
        model, uniforms = self.model, self._uniforms
        if uniforms.next() < model.loss_prob:
            self.dropped += 1
            return
        if model.bit_flip_prob > 0.0:
            frame = corrupt(frame, model.bit_flip_prob, uniforms.take(8 * len(frame)))
        latency = self._latency_lo + self._latency_span * uniforms.next()
        bisect.insort(self._queue, Delivery(t_now_ms + latency, robot_id, self.sent, frame))

    def send_many(self, frames: bytes, t_now_ms: float | Sequence[float],
                  robot_ids: Sequence[int]) -> None:
        """send of each FRAME_SIZE frame of frames in turn, at t_now_ms (one
        time for all, or one per frame) from robot_ids; the same doubles,
        counts and deliveries, queued with one sort."""
        count = len(frames) // FRAME_SIZE
        model = self.model
        double, take = self._uniforms.next, self._uniforms.take
        loss_prob, flip_prob = model.loss_prob, model.bit_flip_prob
        lo, span = self._latency_lo, self._latency_span
        times = repeat(t_now_ms) if isinstance(t_now_ms, (int, float)) else t_now_ms
        seq, queued = self.sent, []
        for start, t, robot_id in zip(range(0, len(frames), FRAME_SIZE), times, robot_ids):
            seq += 1
            if double() < loss_prob:
                continue
            frame = frames[start:start + FRAME_SIZE]
            if flip_prob > 0.0:
                frame = corrupt(frame, flip_prob, take(8 * FRAME_SIZE))
            queued.append(tuple.__new__(Delivery, (t + (lo + span * double()), robot_id,
                                                   seq, frame)))
        self.sent = seq
        self.dropped += count - len(queued)
        self._queue += queued
        self._queue.sort()

    def pop_due(self, t_now_ms: float) -> list[Delivery]:
        """All deliveries due at or before t_now_ms, in delivery order."""
        queue = self._queue
        if not queue or queue[0][0] > t_now_ms:
            return []
        # Every delivery at t_now_ms sorts before (t_now_ms, inf).
        due = bisect.bisect_right(queue, (t_now_ms, math.inf))
        popped = queue[:due]
        del queue[:due]
        return popped

    def receive(self, t_now_ms: float) -> list[SensorPacket]:
        """Reports due at or before t_now_ms, decoded, in delivery order;
        frames that fail to decode are counted in rejected."""
        due = self.pop_due(t_now_ms)
        if not due:
            return []
        packets = []
        for item in decode_frames([delivery.data for delivery in due]):
            if type(item) is SensorPacket:
                packets.append(item)
            else:
                self.rejected[type(item)] += 1
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
