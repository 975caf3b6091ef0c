"""Robot plant, sensor models, and the sensor engine that fuses them.

The plant is a differential-drive body whose wheel speeds follow commands
through a digital PI loop and a first-order motor lag, on one fixed tick.
Slip decouples wheel motion from ground motion: encoders sense the wheels
(slip-blind) while the paired optical-flow sensors sense true ground
motion (slip-immune).  Sensors are sampled once per report window, in
closed form.  All sensor models draw from caller-supplied numpy generators
so runs are reproducible.

``PlantLoop`` is the reference plant, stepped one tick at a time;
``RobotSim``, the engine every run uses, repeats its arithmetic inline in
one fused loop per robot or, over a long ``advance_to`` call, in blocks of
ticks with the same float operations.  It samples each report window through
``EncoderModel``, ``FlowModel`` and ``sample_gyro``, on seed-derived
per-robot noise streams.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .comms import SensorPacket, wrap_flow, wrap_i16
from .core import (
    ARC_EPSILON,
    MAX_WHEEL_SPEED,
    Posture,
    RobotGeometry,
    Twist,
    WheelSpeeds,
    integrate_unicycle,
    wheels_to_twist,
    wrap_angle,
)


# --- wheel speed regulation ------------------------------------------------


# Wheel speed loop: a digital PI trim around a command feedforward, updated
# once per tick, whose drive is held through the tick into a first-order
# motor lag; commands and drive saturate at MAX_WHEEL_SPEED.  A step
# settles to a few percent within 0.3 s without overshoot.
PI_KP = 0.8
PI_KI = 2.0
MOTOR_TAU_S = 0.05

# The plant's fixed tick, the 400 Hz encoder period.  Tick boundaries fall
# on multiples of TICK_US from t = 0; no report rate moves them.
TICK_US = 2500
TICK_S = TICK_US / 1e6
# Exact lag over one tick at a held drive: a wheel at speed a0 ends the
# tick at drive + (a0 - drive) * LAG_END and averages
# drive + (a0 - drive) * LAG_MEAN over it.
LAG_END = math.exp(-TICK_S / MOTOR_TAU_S)
LAG_MEAN = MOTOR_TAU_S / TICK_S * (1.0 - LAG_END)


def _clamp(value: float, limit: float) -> float:
    return max(-limit, min(limit, value))


def _pi_wheel(command: float, actual: float,
              integral: float) -> tuple[float, float, float]:
    """One tick of one wheel: (speed at its end, mean speed, integral)."""
    target = _clamp(command, MAX_WHEEL_SPEED)
    error = target - actual
    drive_raw = target + PI_KP * error + PI_KI * integral
    drive = _clamp(drive_raw, MAX_WHEEL_SPEED)
    if drive == drive_raw:
        integral += error * TICK_S   # anti-windup: freeze while the drive clips
    gap = actual - drive
    return drive + gap * LAG_END, drive + gap * LAG_MEAN, integral


# --- slip --------------------------------------------------------------------


@dataclass(frozen=True)
class SlipEvent:
    """Wheel/ground decoupling over [start_ms, end_ms).

    mode 'stuck': wheels spin, the body does not move.
    mode 'scale': ground speed is factor times wheel speed.
    A tick takes the event active at its start for its whole length.
    """

    start_ms: float
    end_ms: float
    mode: str = "stuck"
    factor: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("stuck", "scale"):
            raise ValueError(f"unknown slip mode {self.mode!r}")
        if not self.start_ms < self.end_ms:
            raise ValueError("slip interval must have start < end")
        if self.factor < 0:
            raise ValueError("slip factor must be non-negative")


# --- plant -------------------------------------------------------------------


@dataclass
class PlantLoop:
    """One robot's plant, stepped one tick at a time: the reference plant.

    ``RobotSim.advance_to`` below inlines ``advance`` float operation for
    float operation, and the engine equivalence test checks it against this
    class.  Also a tracing target of the benchmark.
    """

    pose: Posture
    geometry: RobotGeometry
    command: WheelSpeeds = WheelSpeeds(0.0, 0.0)
    actual: WheelSpeeds = WheelSpeeds(0.0, 0.0)   # at the end of the last tick
    integral: tuple[float, float] = (0.0, 0.0)   # right, left
    # Mean speeds over the last tick: of the wheels, which the encoders
    # count, and of the ground contact, which moves the body and which the
    # flow sensors see.
    wheels: WheelSpeeds = WheelSpeeds(0.0, 0.0)
    ground: WheelSpeeds = WheelSpeeds(0.0, 0.0)

    def set_command(self, right: float, left: float) -> None:
        self.command = WheelSpeeds(right, left)

    def advance(self, slip: SlipEvent | None = None) -> None:
        """One tick: the PI update of both wheels, then one motion step of
        TICK_S along the chord of the arc at the tick's mean ground twist
        under the slip event."""
        right, mean_r, int_r = _pi_wheel(self.command.right, self.actual.right,
                                         self.integral[0])
        left, mean_l, int_l = _pi_wheel(self.command.left, self.actual.left,
                                        self.integral[1])
        wheels = WheelSpeeds(mean_r, mean_l)
        if slip is None:
            ground = wheels
        elif slip.mode == "stuck":
            ground = WheelSpeeds(0.0, 0.0)
        else:
            ground = WheelSpeeds(slip.factor * mean_r, slip.factor * mean_l)
        self.pose = integrate_unicycle(self.pose, wheels_to_twist(ground, self.geometry),
                                       TICK_S)
        self.actual, self.integral = WheelSpeeds(right, left), (int_r, int_l)
        self.wheels, self.ground = wheels, ground


# --- sensors -----------------------------------------------------------------


@dataclass(frozen=True)
class SensorNoise:
    """Per-sample noise levels and the flow calibration factor.

    encoder_sigma and flow_sigma are speed-noise standard deviations (mm/s)
    of one sample at ENCODER_HZ and FLOW_HZ; both land near 2 mm/s at the
    default 70 ms report.  Wheel odometry error is dominated by tick
    quantization instead of this term.
    """

    encoder_sigma: float = 1.0     # mm/s per 400 Hz sample
    flow_sigma: float = 25.0       # mm/s per 1000 Hz sample
    gyro_sigma: float = 0.01       # rad
    ir_sigma: float = 1.0          # mm
    flow_scale: float = 1.0        # calibration factor, 1.0 when perfect

    def __post_init__(self) -> None:
        if min(self.encoder_sigma, self.flow_sigma, self.gyro_sigma, self.ir_sigma) < 0:
            raise ValueError("noise sigmas must be non-negative")
        if self.flow_scale <= 0:
            raise ValueError("flow_scale must be positive")

    @classmethod
    def noiseless(cls) -> "SensorNoise":
        return cls(encoder_sigma=0.0, flow_sigma=0.0, gyro_sigma=0.0, ir_sigma=0.0)


# Sensor sample rates.  Each report samples its window in closed form, so a
# rate only sets how much noise the window sums (window_sigma).
ENCODER_HZ = 400.0
FLOW_HZ = 1000.0


def window_sigma(sigma: float, hz: float, window_s: float) -> float:
    """Standard deviation of the summed displacement noise of one window.

    A sample of 1 / hz seconds carries sigma / hz mm of noise, and a window
    of window_s seconds holds window_s * hz such i.i.d. samples, so their
    sum is one normal of variance sigma**2 * window_s / hz.
    """
    return sigma * math.sqrt(1.0 / hz * window_s)


def count_ticks(travel: float, mm_per_tick: float) -> int:
    """Whole encoder ticks in a travel (mm), truncated toward zero.

    A quantum near the smallest normal float makes the quotient overflow;
    the count is then taken exactly, as the wire keeps only its low bits.
    """
    try:
        return int(travel / mm_per_tick)
    except OverflowError:
        return int(Fraction(travel) / Fraction(mm_per_tick))


class EncoderModel:
    """Incremental wheel encoders: quantized, noisy, and slip-blind.

    Sampled once per report window in closed form, as ENCODER_HZ samples
    per second; rng is a Generator or a BlockNormals over one.
    """

    def __init__(self, geometry: RobotGeometry, noise: SensorNoise,
                 rng: np.random.Generator):
        self.geometry = geometry
        self.noise = noise
        self.rng = rng
        self._travel = [0.0, 0.0]   # cumulative noisy travel (mm), right, left
        self._ticks = [0, 0]

    def sample_speeds(self, right_mm: float, left_mm: float,
                      window_s: float) -> tuple[int, int]:
        """Ticks (right, left) counted over one report window of window_s
        seconds in which the wheels travelled right_mm and left_mm.

        The count is the truncation toward zero of the cumulative noisy
        travel, so forward and reverse motion quantize symmetrically and
        the cumulative count never drifts a quantum from the travel.
        """
        sigma = window_sigma(self.noise.encoder_sigma, ENCODER_HZ, window_s)
        travel, ticks, mm_per_tick = self._travel, self._ticks, self.geometry.mm_per_tick
        travel[0] += right_mm + sigma * self.rng.standard_normal()
        travel[1] += left_mm + sigma * self.rng.standard_normal()
        right, left = count_ticks(travel[0], mm_per_tick), count_ticks(travel[1], mm_per_tick)
        counted = right - ticks[0], left - ticks[1]
        ticks[0], ticks[1] = right, left
        return counted


class FlowModel:
    """Paired downward optical-flow sensors measuring ground motion.

    Sampled once per report window in closed form, as FLOW_HZ samples per
    second; rng is a Generator or a BlockNormals over one.
    """

    def __init__(self, geometry: RobotGeometry, noise: SensorNoise,
                 rng: np.random.Generator):
        self.geometry = geometry
        self.noise = noise
        self.rng = rng

    def sample_vw(self, path_mm: float, turn_rad: float,
                  window_s: float) -> tuple[float, float]:
        """Displacements (left, right) over one report window of window_s
        seconds in which the body moved path_mm along its heading and
        turned turn_rad.

        The sensors sit half the sensor separation to each side of the body
        axis, so a counterclockwise turn slows the left one.
        """
        half = 0.5 * self.geometry.flow_separation * turn_rad
        sigma = window_sigma(self.noise.flow_sigma, FLOW_HZ, window_s)
        scale = self.noise.flow_scale
        return (
            (path_mm - half) * scale + sigma * self.rng.standard_normal(),
            (path_mm + half) * scale + sigma * self.rng.standard_normal(),
        )


@dataclass(frozen=True)
class Rates:
    """Report schedule.

    Report instants lie on an integer microsecond grid.  report_jitter_ms > 0
    spreads each inter-report interval uniformly over period +- jitter,
    modeling a robot whose send loop does not keep exact time. The report
    payload still covers the true interval and carries the true send
    timestamp, so a timestamp-driven consumer stays consistent.
    """

    report_period_ms: float = 70.0
    report_jitter_ms: float = 0.0

    @property
    def report_period_us(self) -> int:
        return round(1e3 * self.report_period_ms)

    @property
    def report_jitter_us(self) -> int:
        return round(1e3 * self.report_jitter_ms)


def sample_gyro(heading: float, sigma: float, rng: np.random.Generator) -> float:
    """Absolute heading with Gaussian noise of deviation sigma, wrapped to
    (-pi, pi].  rng is a Generator or a BlockNormals over one."""
    return wrap_angle(heading + sigma * rng.standard_normal())


# Values per block of a noise stream read one value at a time.
NOISE_BLOCK = 64


def block_draws(draw, size: int = NOISE_BLOCK):
    """Yield the values of draw(size), draw(size), ... one by one, as
    Python scalars.

    An array draw of a numpy Generator continues its scalar stream, so
    with draw a Generator method the values are those of one scalar draw
    each, in order.
    """
    while True:
        yield from draw(size).tolist()


class BlockNormals:
    """A Generator read one standard_normal() at a time, whose normals are
    drawn in blocks (see block_draws)."""

    def __init__(self, rng: np.random.Generator):
        self.standard_normal = block_draws(rng.standard_normal).__next__


# --- world and range sensing --------------------------------------------------


@dataclass(frozen=True)
class Rect:
    """Axis-aligned obstacle."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError("rect must have positive extent")

    def edges(self) -> tuple[tuple[float, float, float, float], ...]:
        return (
            (self.x0, self.y0, self.x1, self.y0),
            (self.x1, self.y0, self.x1, self.y1),
            (self.x1, self.y1, self.x0, self.y1),
            (self.x0, self.y1, self.x0, self.y0),
        )

    def contains(self, x: float, y: float) -> bool:
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1


@dataclass(frozen=True)
class Segment:
    """Thin wall between two endpoints."""

    ax: float
    ay: float
    bx: float
    by: float

    def __post_init__(self) -> None:
        if self.ax == self.bx and self.ay == self.by:
            raise ValueError("segment endpoints must differ")


@dataclass(frozen=True)
class World:
    """Rectangular arena with axis-aligned rectangle and segment obstacles."""

    bounds: Rect = Rect(-2500.0, -2500.0, 2500.0, 2500.0)
    rects: tuple[Rect, ...] = ()
    segments: tuple[Segment, ...] = ()

    def obstacle_edges(self) -> list[tuple[float, float, float, float]]:
        edges = list(self.bounds.edges())
        for r in self.rects:
            edges.extend(r.edges())
        edges.extend((s.ax, s.ay, s.bx, s.by) for s in self.segments)
        return edges

    def clearance(self, px: float, py: float) -> float:
        """Distance to the nearest obstacle or arena wall."""
        values = [min(px - self.bounds.x0, self.bounds.x1 - px,
                      py - self.bounds.y0, self.bounds.y1 - py)]
        values += [_point_rect_distance(px, py, r) for r in self.rects]
        values += [_point_segment_distance(px, py, s) for s in self.segments]
        return min(values)


def _point_segment_distance(px: float, py: float, seg: Segment) -> float:
    vx, vy = seg.bx - seg.ax, seg.by - seg.ay
    length2 = vx * vx + vy * vy   # 0.0 for a segment under about 1e-154 mm
    t = ((px - seg.ax) * vx + (py - seg.ay) * vy) / length2 if length2 else 0.0
    t = max(0.0, min(1.0, t))
    return math.hypot(px - (seg.ax + t * vx), py - (seg.ay + t * vy))


def _point_rect_distance(px: float, py: float, rect: Rect) -> float:
    dx = max(rect.x0 - px, 0.0, px - rect.x1)
    dy = max(rect.y0 - py, 0.0, py - rect.y1)
    return math.hypot(dx, dy)


# Ray-edge pairs per numpy broadcast: each temporary of a chunk stays at
# 32 KB whatever the world's edge count, so a whole survey's cast does
# not raise the peak memory.
_CAST_CHUNK = 1 << 12


def _cast_rays(world: World, x: np.ndarray, y: np.ndarray,
               cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Distance (mm) along each ray to the nearest obstacle or arena wall,
    inf when it hits none; ray i starts at (x[i], y[i]) along (cos[i], sin[i]).

    Rays meet every edge in one broadcast per chunk of rays. A ray parallel
    to an edge (collinear grazing included) misses it.
    """
    ax, ay, bx, by = np.array(world.obstacle_edges()).T
    ex, ey = bx - ax, by - ay
    dist = np.empty(len(x))
    rays = max(1, _CAST_CHUNK // len(ax))
    for i in range(0, len(x), rays):
        chunk = slice(i, i + rays)
        rx, ry, dx, dy = (a[chunk, None] for a in (x, y, cos, sin))
        with np.errstate(all="ignore"):
            denom = dx * ey - dy * ex
            qx, qy = ax - rx, ay - ry
            t = (qx * ey - qy * ex) / denom
            s = (qx * dy - qy * dx) / denom
            hit = (np.abs(denom) >= 1e-12) & (t >= 0.0) & (s >= 0.0) & (s <= 1.0)
        dist[chunk] = np.where(hit, t, np.inf).min(axis=1)
    return dist


class IrReadings(NamedTuple):
    """Range readings, one row per pose and one column per sensor ray.

    Each ray has its origin (x, y) and unit direction (cos, sin). Where
    ``in_range``, ``value`` holds the reported range; elsewhere it is NaN.
    """

    x: np.ndarray
    y: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    value: np.ndarray
    in_range: np.ndarray

    def scans(self) -> list[list[float | None]]:
        """The readings in ray order for each pose, None out of range."""
        return [[v if ok else None for v, ok in zip(values, oks)]
                for values, oks in zip(self.value.tolist(), self.in_range.tolist())]


def sample_ir(world: World, x: Sequence[float], y: Sequence[float],
              theta: Sequence[float], geometry: RobotGeometry, noise: SensorNoise,
              rng: np.random.Generator) -> IrReadings:
    """The range readings of one scan at each pose (x[i], y[i], theta[i]).

    A ray is classified against the true cast distance, then the reported
    value carries additive Gaussian noise. All rays are cast together, and
    the in-range rays draw their noise as one block, pose-major then in ray
    order: the same stream as one scalar draw per in-range ray.
    """
    x, y, theta = (np.asarray(a, dtype=float) for a in (x, y, theta))
    b = world.bounds
    if not ((b.x0 <= x) & (x <= b.x1) & (b.y0 <= y) & (y <= b.y1)).all():
        raise ValueError("pose must lie inside the world bounds")
    shape = (len(theta), len(geometry.ir_ray_angles))
    angles = theta[:, None] + np.array(geometry.ir_ray_angles, dtype=float)
    # A survey repeats its headings, so each distinct angle, bit for bit,
    # takes one math.cos and one math.sin (np.cos and np.sin may differ in
    # the last ulp).
    distinct, ray = np.unique(angles.ravel().view(np.int64), return_inverse=True)
    distinct = distinct.view(float).tolist()
    cos = np.fromiter(map(math.cos, distinct), float, len(distinct))[ray]
    sin = np.fromiter(map(math.sin, distinct), float, len(distinct))[ray]
    x, y = np.repeat(x, shape[1]), np.repeat(y, shape[1])
    dist = _cast_rays(world, x, y, cos, sin)
    in_range = (geometry.ir_range_min <= dist) & (dist <= geometry.ir_range_max)
    noisy = dist[in_range] + noise.ir_sigma * rng.standard_normal(np.count_nonzero(in_range))
    value = np.full(len(dist), np.nan)
    # max(0.0, noisy), which keeps 0.0 over -0.0.
    value[in_range] = np.where(noisy > 0.0, noisy, 0.0)
    return IrReadings(*(a.reshape(shape) for a in (x, y, cos, sin, value, in_range)))


# --- one-robot sensor engine -------------------------------------------------


class RuntimeFault(Exception):
    """A validated scenario failed while running (exit code 3)."""


# Independent, seed-derived random streams per (robot, purpose): adding a
# robot or toggling one sensor never perturbs any other stream.
(STREAM_ENCODER, STREAM_FLOW, STREAM_GYRO, STREAM_IR, STREAM_CHANNEL,
 STREAM_SCHEDULE) = range(6)


def stream_rng(seed: int, robot_id: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, robot_id, purpose])


# Ticks per block (about 10 s of plant time), which bounds the block's
# arrays whatever the run's length.
HELD_BLOCK_TICKS = 4096
# An advance_to call that runs at least this many ticks computes them in
# blocks; a shorter one steps tick by tick, which costs less per tick
# below about this length.
MIN_BLOCK_TICKS = 256
# A heading that wraps again within this many ticks is summed in Python:
# a numpy pass costs about as much as a hundred Python additions.
WRAP_PASS_TICKS = 64


def _doubles(*lists: list[float]) -> np.ndarray:
    """The lists' floats, one list after another, as a float64 array;
    packing them is several times faster than np.array on a list."""
    size = len(lists[0])
    out = bytearray(8 * size * len(lists))
    row = struct.Struct(f"{size}d")
    for i, values in enumerate(lists):
        row.pack_into(out, 8 * size * i, *values)
    return np.frombuffer(out)


def _wrapped_heading(start: float, swept: np.ndarray, out: np.ndarray) -> None:
    """out[0] = start and out[k + 1] = out[k] + swept[k], each sum that
    leaves (-pi, pi] wrapped by wrap_angle before the next is added."""
    pi = math.pi
    out[0] = start
    out[1:] = swept
    # out[first] holds a heading, and out[first + 1:] the steps still to
    # add.  A wrap restarts the sum, so each pass spans twice the ticks
    # the last wrap took: a fast spin does not redo the whole block.
    first, size, span = 0, len(out), len(out)
    while first < size - 1:
        last = min(size, first + span)
        part = np.cumsum(out[first:last])
        sums = part[1:]
        leaving = np.flatnonzero(~((sums > -pi) & (sums <= pi)))
        if leaving.size:
            wrap = 1 + int(leaving[0])
            out[first:first + wrap] = part[:wrap]
            first += wrap
            out[first] = wrap_angle(part.item(wrap))
            span = 2 * wrap + 1
            if wrap < WRAP_PASS_TICKS:
                # Wraps come too fast for a numpy pass to pay: finish with
                # the same additions, one at a time.
                heading = out.item(first)
                rest = out[first + 1:].tolist()
                for k, step in enumerate(rest):
                    heading += step
                    if not -pi < heading <= pi:
                        heading = wrap_angle(heading)
                    rest[k] = heading
                out[first + 1:] = rest
                return
        else:
            out[first:last] = part
            first = last - 1
            span *= 2


class RobotSim:
    """Plant, wheel PI loop, and sensor suite of one robot.

    The plant steps on the fixed TICK_US tick; reports fire on their own
    integer microsecond clock.  A report instant, or an ``advance_to``
    target, inside a tick splits only the motion step: the body's pose there
    is the chord step from the tick's start at the tick's twist, which
    carries on for the rest of the tick.  So the pose at every tick
    boundary is the same whatever the report clock.  A command takes
    effect at the next tick boundary.  The robot is robot 0: its random
    streams and its packets carry that id.

    ``advance_to`` is one fused loop: the reference tick
    ``PlantLoop.advance`` and the slip lookup are written inline, float
    operation for float operation, with the state held in locals between
    reports.  Each report samples its window through
    ``EncoderModel.sample_speeds``, ``FlowModel.sample_vw`` and
    ``sample_gyro``.  A reference loop that calls ``PlantLoop.advance``
    once per tick is the oracle of the engine equivalence test.  The
    encoder, flow, gyro and jittered schedule streams are drawn in blocks
    and read one value per draw (block_draws), the values scalar draws
    would give.

    The command in force at a call holds until its end, so a call that
    runs at least MIN_BLOCK_TICKS ticks computes every tick that starts
    before its target in blocks instead (``_held_block``): the wheel loops
    tick by tick, then the twist, chord step, heading and sums as array
    operations, the same float operations in the same order, so the same
    doubles.  ``advance_to`` then reads the state at each report from the
    block.
    """

    def __init__(self, geometry: RobotGeometry, noise: SensorNoise,
                 start: Posture, seed: int,
                 slip_schedule: tuple[SlipEvent, ...] = (),
                 rates: Rates = Rates(), world: World | None = None):
        self.geometry = geometry
        self.noise = noise
        self.world = world
        self._slips = tuple((e.start_ms, e.end_ms, e.mode == "stuck", e.factor)
                            for e in slip_schedule)
        self._encoders = EncoderModel(geometry, noise, BlockNormals(
            stream_rng(seed, 0, STREAM_ENCODER)))
        self._flow = FlowModel(geometry, noise, BlockNormals(
            stream_rng(seed, 0, STREAM_FLOW)))
        self._gyro_noise = BlockNormals(stream_rng(seed, 0, STREAM_GYRO))
        self.ir_rng = stream_rng(seed, 0, STREAM_IR)
        self._report_us = rates.report_period_us
        self._jitter_us = rates.report_jitter_us
        if self._jitter_us:
            schedule_rng = stream_rng(seed, 0, STREAM_SCHEDULE)
            lo = self._report_us - self._jitter_us
            hi = self._report_us + self._jitter_us + 1
            self._jittered = block_draws(
                lambda size: schedule_rng.integers(lo, hi, size=size))
        self.truth_at_send: dict[int, Posture] = {}
        self.t_us = 0
        # Saturated wheel targets (right, left).
        self._target = (0.0, 0.0)
        # The loop state, a block's rows[:, k] then ticks[:, k] (see
        # _held_block): the pose and running sums at the start of the
        # current tick, or at t_us when that is a tick boundary (t_us ==
        # _tick_end), namely wheel travel (mm), and the ground path length
        # (mm) and heading change (rad) that the flow sensors see; then the
        # current tick's mean wheel speeds and ground twist, and its wheel
        # speeds and PI integrals at its end.
        self._state = (start.x, start.y, 0.0, 0.0, 0.0, 0.0, start.theta) + (0.0,) * 8
        self._tick_end = 0
        # The report windows: the open window's length and the sums at its
        # start, and the counters the reports carry.
        self._window_us = self._report_interval()
        self._next_report = self._window_us
        self._at_report = (0.0, 0.0, 0.0, 0.0)
        self._ticks_r = self._ticks_l = 0
        self._flow_l = self._flow_r = 0.0

    def _report_interval(self) -> int:
        if self._jitter_us == 0:
            interval = self._report_us
        else:
            interval = next(self._jittered)
        if interval < 1:
            # Scenario validation rejects such rates first; a report clock
            # that does not advance would otherwise never let time pass.
            raise ValueError(f"report interval must be at least 1 us, got {interval}")
        return interval

    def set_command(self, wheels: WheelSpeeds) -> None:
        """Command the wheels from the next tick boundary on."""
        self._target = (_clamp(wheels.right, MAX_WHEEL_SPEED),
                        _clamp(wheels.left, MAX_WHEEL_SPEED))

    def _into_tick(self) -> float:
        """Seconds from the start of the current tick to t_us; 0 at a tick
        boundary."""
        if self.t_us == self._tick_end:
            return 0.0
        return (self.t_us - self._tick_end + TICK_US) / 1e6

    @property
    def pose(self) -> Posture:
        state = self._state
        start = Posture(state[0], state[1], state[6])
        into = self._into_tick()
        if into == 0.0:
            return start
        return integrate_unicycle(start, Twist(state[9], state[10]), into)

    def advance_to(self, target_us: int) -> list[SensorPacket]:
        """Run plant and sensors up to target time; returns reports sent."""
        sent: list[SensorPacket] = []
        t_us = self.t_us
        kp, ki = PI_KP, PI_KI
        lag_end, lag_mean = LAG_END, LAG_MEAN
        tick_us, tick_s = TICK_US, TICK_S
        v_max = MAX_WHEEL_SPEED
        v_min = -v_max
        wheel_base = self.geometry.wheel_base
        slips = self._slips
        sin, cos, pi = math.sin, math.cos, math.pi
        arc_eps, neg_arc_eps = ARC_EPSILON, -ARC_EPSILON
        target_r, target_l = self._target
        (x, y, wheel_r, wheel_l, path, turn, theta,
         mean_r, mean_l, v, w, act_r, act_l, int_r, int_l) = self._state
        tick_end = self._tick_end
        next_report = self._next_report
        window_slips = ()
        # The ticks that start in [t_us, target_us) run in blocks when
        # there are at least MIN_BLOCK_TICKS of them.
        first_tick = t_us if t_us == tick_end else tick_end
        blocks = target_us - first_tick > (MIN_BLOCK_TICKS - 1) * tick_us
        block_end = 0
        while t_us < target_us:
            stop = next_report if next_report < target_us else target_us
            if slips and not blocks:
                # Events that can be active at a tick start in [t_us, stop);
                # t / 1e3 is monotone in t.  A block finds its own.
                lo_ms, hi_ms = t_us / 1e3, stop / 1e3
                window_slips = tuple(e for e in slips
                                     if e[1] > lo_ms and e[0] <= hi_ms)
            while True:
                if t_us == tick_end:
                    if blocks:
                        # Take the state from the block, at stop or at the
                        # block's end, whichever comes first.
                        if t_us >= block_end:
                            rows = ticks = None   # free the last block first
                            block_start, block_end, rows, ticks = self._held_block(
                                t_us, target_us, target_r, target_l,
                                (x, y, wheel_r, wheel_l, path, turn, theta, mean_r,
                                 mean_l, v, w, act_r, act_l, int_r, int_l))
                        t_us = stop if stop < block_end else block_end
                        k, into = divmod(t_us - block_start, tick_us)
                        # rows[:, k] is the state at the start of tick k; at a
                        # boundary the tick in hand is the one that just ended.
                        tick = k if into else k - 1
                        tick_end = block_start + (tick + 1) * tick_us
                        (x, y, wheel_r, wheel_l, path, turn, theta,
                         mean_r, mean_l, v, w, act_r, act_l, int_r, int_l
                         ) = rows[:, k].tolist() + ticks[:, tick].tolist()
                        if t_us == stop:
                            break
                        continue
                    # Wheel speed loops: PI trim with anti-windup, then the
                    # held drive through the exact motor lag.
                    error = target_r - act_r
                    drive = target_r + kp * error + ki * int_r
                    if drive > v_max:
                        drive = v_max
                    elif drive < v_min:
                        drive = v_min
                    else:
                        int_r += error * tick_s
                    gap = act_r - drive
                    act_r = drive + gap * lag_end
                    mean_r = drive + gap * lag_mean
                    error = target_l - act_l
                    drive = target_l + kp * error + ki * int_l
                    if drive > v_max:
                        drive = v_max
                    elif drive < v_min:
                        drive = v_min
                    else:
                        int_l += error * tick_s
                    gap = act_l - drive
                    act_l = drive + gap * lag_end
                    mean_l = drive + gap * lag_mean
                    # Ground contact under the slip event active at the
                    # tick's start.
                    g_r, g_l = mean_r, mean_l
                    if window_slips:
                        t_ms = t_us / 1e3
                        for start_ms, end_ms, stuck, factor in window_slips:
                            if start_ms <= t_ms < end_ms:
                                if stuck:
                                    g_r = g_l = 0.0
                                else:
                                    g_r = factor * mean_r
                                    g_l = factor * mean_l
                                break
                    v = 0.5 * (g_r + g_l)
                    w = (g_r - g_l) / wheel_base
                    tick_end = t_us + tick_us
                if tick_end > stop:
                    t_us = stop   # inside the tick; the state stays at its start
                    break
                # Body motion over the tick: chord form of the arc.
                travel = v * tick_s
                swept = w * tick_s
                if swept > arc_eps or swept < neg_arc_eps:
                    half = 0.5 * swept
                    chord = travel * sin(half) / half
                    heading = theta + half
                else:
                    chord = travel
                    heading = theta
                x += chord * cos(heading)
                y += chord * sin(heading)
                # wrap_angle returns a heading in (-pi, pi] unchanged.
                theta += swept
                if not -pi < theta <= pi:
                    theta = wrap_angle(theta)
                wheel_r += mean_r * tick_s
                wheel_l += mean_l * tick_s
                path += travel
                turn += swept
                t_us = tick_end
                if t_us == stop:
                    break
            if t_us == next_report:
                self.t_us, self._tick_end = t_us, tick_end
                self._state = (x, y, wheel_r, wheel_l, path, turn, theta, mean_r,
                               mean_l, v, w, act_r, act_l, int_r, int_l)
                sent.append(self._assemble_report())
                self._window_us = self._report_interval()
                next_report += self._window_us
        self._state = (x, y, wheel_r, wheel_l, path, turn, theta, mean_r,
                       mean_l, v, w, act_r, act_l, int_r, int_l)
        self._tick_end = tick_end
        self._next_report = next_report
        self.t_us = t_us
        return sent

    def _held_block(self, t0: int, end_us: int, target_r: float, target_l: float,
                    state: tuple[float, ...]) -> tuple:
        """The ticks of the command in force from the tick boundary t0:
        those that start before end_us, at most HELD_BLOCK_TICKS of them.

        state is the loop state at t0, in the layout of _state.  Returns
        (t0, the block's end, rows, ticks): rows[:, k] holds (x, y, wheel_r,
        wheel_l, path, turn, theta) at the start of tick k, and ticks[:, k]
        holds (mean_r, mean_l, v, w, act_r, act_l, int_r, int_l) of tick k,
        the speeds and integrals at its end.  Only the wheel speeds and
        integrals are carried tick by tick; the rest are the array forms of
        advance_to's float operations, in the same order.
        """
        tick_us, tick_s = TICK_US, TICK_S
        n = min(HELD_BLOCK_TICKS, -((t0 - end_us) // tick_us))
        kp, ki, lag_end = PI_KP, PI_KI, LAG_END
        v_max = MAX_WHEEL_SPEED
        v_min = -v_max
        # Each wheel's speed and integral at the start of each tick and at
        # the block's end, the only state that must be carried tick by tick.
        act_r, act_l, int_r, int_l = state[11:]
        acts_r, acts_l, ints_r, ints_l = [act_r], [act_l], [int_r], [int_l]
        for _ in range(n):
            error = target_r - act_r
            drive = target_r + kp * error + ki * int_r
            if drive > v_max:
                drive = v_max
            elif drive < v_min:
                drive = v_min
            else:
                int_r += error * tick_s
            act_r = drive + (act_r - drive) * lag_end
            error = target_l - act_l
            drive = target_l + kp * error + ki * int_l
            if drive > v_max:
                drive = v_max
            elif drive < v_min:
                drive = v_min
            else:
                int_l += error * tick_s
            act_l = drive + (act_l - drive) * lag_end
            acts_r.append(act_r)
            acts_l.append(act_l)
            ints_r.append(int_r)
            ints_l.append(int_l)
        # Rows: speed right and left, then integral right and left.
        carried = _doubles(acts_r, acts_l, ints_r, ints_l).reshape(4, n + 1)
        del acts_r, acts_l, ints_r, ints_l
        ticks = np.empty((8, n))
        ticks[4:] = carried[:, 1:]
        # Each tick's drive again, then the wheels' mean speeds over it.
        act, integral = carried[:2, :-1], carried[2:, :-1]
        target = np.array([[target_r], [target_l]])
        drive = np.clip(target + kp * (target - act) + ki * integral, v_min, v_max)
        np.add(drive, (act - drive) * LAG_MEAN, out=ticks[:2])
        mean_r, mean_l = ticks[0], ticks[1]
        # Ground contact under the first slip event active at each tick's
        # start: the events are laid on in reverse, so the first one wins.
        g_r, g_l = mean_r, mean_l
        if self._slips:
            t_ms = (t0 + tick_us * np.arange(n)) / 1e3
            for start_ms, end_ms, stuck, factor in reversed(self._slips):
                active = (start_ms <= t_ms) & (t_ms < end_ms)
                if active.any():
                    g_r = np.where(active, 0.0 if stuck else factor * mean_r, g_r)
                    g_l = np.where(active, 0.0 if stuck else factor * mean_l, g_l)
        # rows[:, k] holds the sums at the start of tick k: the first six
        # are running sums of the steps in rows[:6, k + 1], and the heading
        # wraps.
        rows = np.empty((7, n + 1))
        rows[:, 0] = state[:7]
        steps = rows[:, 1:]
        v, w = ticks[2], ticks[3]
        np.multiply(0.5, g_r + g_l, out=v)
        np.divide(g_r - g_l, self.geometry.wheel_base, out=w)
        np.multiply(ticks[:2], tick_s, out=steps[2:4])
        travel = np.multiply(v, tick_s, out=steps[4])
        swept = np.multiply(w, tick_s, out=steps[5])
        # Body motion: the chord form of each tick's arc.
        arc = (swept > ARC_EPSILON) | (swept < -ARC_EPSILON)
        half = 0.5 * swept
        with np.errstate(divide="ignore", invalid="ignore"):
            chord = np.where(arc, travel * np.sin(half) / half, travel)
        _wrapped_heading(state[6], swept, rows[6])
        theta = rows[6, :-1]
        heading = np.where(arc, theta + half, theta)
        np.multiply(chord, np.cos(heading), out=steps[0])
        np.multiply(chord, np.sin(heading), out=steps[1])
        np.cumsum(rows[:6], axis=1, out=rows[:6])
        return t0, t0 + n * tick_us, rows, ticks

    def _assemble_report(self) -> SensorPacket:
        """Sample the window that closes at t_us, and snapshot the
        free-running odometry counters at send time."""
        pose = self.pose
        t_us = self.t_us
        if self.world is not None:
            if not self.world.bounds.contains(pose.x, pose.y):
                raise RuntimeFault(
                    "robot 0 left the world bounds at "
                    f"t={t_us / 1e6:g} s (x={pose.x:.1f} mm, "
                    f"y={pose.y:.1f} mm)")
            ir = tuple(sample_ir(self.world, [pose.x], [pose.y], [pose.theta],
                                 self.geometry, self.noise, self.ir_rng).scans()[0])
        else:
            ir = (None,) * 5
        # The running sums at t_us, and the window since the last report.
        into = self._into_tick()
        _, _, wheel_r, wheel_l, path, turn, _, mean_r, mean_l, v, w = self._state[:11]
        wheel_r, wheel_l = wheel_r + mean_r * into, wheel_l + mean_l * into
        path, turn = path + v * into, turn + w * into
        wheel_r0, wheel_l0, path0, turn0 = self._at_report
        self._at_report = (wheel_r, wheel_l, path, turn)
        window_s = self._window_us / 1e6
        ticks_r, ticks_l = self._encoders.sample_speeds(
            wheel_r - wheel_r0, wheel_l - wheel_l0, window_s)
        self._ticks_r += ticks_r
        self._ticks_l += ticks_l
        flow_l, flow_r = self._flow.sample_vw(path - path0, turn - turn0, window_s)
        self._flow_l += flow_l
        self._flow_r += flow_r
        packet = SensorPacket(
            robot_id=0,
            t_sent=t_us // 1000,
            ticks_left=wrap_i16(self._ticks_l),
            ticks_right=wrap_i16(self._ticks_r),
            flow_dx_left=wrap_flow(self._flow_l),
            flow_dx_right=wrap_flow(self._flow_r),
            gyro_heading=sample_gyro(pose.theta, self.noise.gyro_sigma,
                                     self._gyro_noise),
            ir=ir,
        )
        self.truth_at_send[packet.t_sent] = pose
        return packet
