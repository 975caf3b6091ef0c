"""Robot plant, sensor models, and the sensor engine that fuses them.

The plant is a differential-drive body whose wheel speeds follow commands
through a digital PI loop and a first-order motor lag, on one fixed tick.
Slip decouples wheel motion from ground motion: encoders sense the wheels
(slip-blind) while the paired optical-flow sensors sense true ground
motion (slip-immune).  Sensors are sampled once per report window, in
closed form, the encoder, flow and gyro models from the standard normals
they are handed and the IR scan from a numpy generator, so runs reproduce.

``PlantLoop`` is the reference plant, stepped one tick at a time;
``RobotSim``, the engine every run uses, repeats its arithmetic inline in
one fused loop per robot or, over a long ``advance_to`` call, in blocks of
ticks with the same float operations, each block memoized per process.
It samples each report window through ``EncoderModel``, ``FlowModel`` and
``sample_gyro``, or a block's windows at once through their array forms,
on the normals of seed-derived per-robot streams, at one clock's instants.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .comms import FLOW_UNIT_MM, SensorPacket, wrap_flow, wrap_i16
from .core import (
    ARC_EPSILON,
    MAX_WHEEL_SPEED,
    NOISE_BLOCK,
    BlockStream,
    Posture,
    RobotGeometry,
    Twist,
    WheelSpeeds,
    chord_steps,
    integrate_unicycle,
    unicycle_path,
    wheels_to_twist,
    wrap_angle,
    wrap_angles,
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


def window_sigma(sigma: float, hz: float, window_s: float, sqrt=math.sqrt) -> float:
    """Standard deviation of the summed displacement noise of one window;
    with sqrt=np.sqrt, of each window of a float array window_s.

    A sample of 1 / hz seconds carries sigma / hz mm of noise, and a window
    of window_s seconds holds window_s * hz such i.i.d. samples, so their
    sum is one normal of variance sigma**2 * window_s / hz.
    """
    return sigma * sqrt(1.0 / hz * window_s)


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
    per second, from the window's standard normals, right wheel first.
    """

    def __init__(self, geometry: RobotGeometry, noise: SensorNoise):
        self.geometry = geometry
        self.noise = noise
        self._travel = [0.0, 0.0]   # cumulative noisy travel (mm), right, left

    def sample_speeds(self, right_mm: float, left_mm: float, window_s: float,
                      normal_r: float, normal_l: float) -> tuple[int, int]:
        """Cumulative ticks (right, left) at the end of one report window
        of window_s seconds in which the wheels travelled right_mm and
        left_mm, with normal_r and normal_l the window's standard normals.

        The count is the truncation toward zero of the cumulative noisy
        travel, so forward and reverse motion quantize symmetrically and
        the count never drifts a quantum from the travel.
        """
        sigma = window_sigma(self.noise.encoder_sigma, ENCODER_HZ, window_s)
        travel, mm_per_tick = self._travel, self.geometry.mm_per_tick
        travel[0] += right_mm + sigma * normal_r
        travel[1] += left_mm + sigma * normal_l
        return count_ticks(travel[0], mm_per_tick), count_ticks(travel[1], mm_per_tick)

    def sample_windows(self, right_mm: np.ndarray, left_mm: np.ndarray,
                       window_s: np.ndarray, normals: np.ndarray) -> np.ndarray | None:
        """sample_speeds over consecutive windows, as arrays: normals holds
        each window's two normals in turn, right then left.  Returns the
        (2, n) int64 cumulative counts (right, left) at the end of each
        window, or None, leaving the model as it was, when a count is not
        finite or does not fit an int64."""
        travel = np.empty((2, len(window_s) + 1))
        travel[:, 0] = self._travel
        # travel += increment, one window after another: cumsum adds in
        # sequence.
        with np.errstate(all="ignore"):
            sigma = window_sigma(self.noise.encoder_sigma, ENCODER_HZ, window_s, np.sqrt)
            travel[0, 1:] = right_mm + sigma * normals[0::2]
            travel[1, 1:] = left_mm + sigma * normals[1::2]
            np.cumsum(travel, axis=1, out=travel)
            quotient = travel[:, 1:] / self.geometry.mm_per_tick
            if not (np.abs(quotient) < 2.0 ** 62).all():
                return None
        # count_ticks: the quotient truncated toward zero.
        counts = quotient.astype(np.int64)
        self._travel = travel[:, -1].tolist()
        return counts


class FlowModel:
    """Paired downward optical-flow sensors measuring ground motion.

    Sampled once per report window in closed form, as FLOW_HZ samples per
    second, from the window's standard normals, left sensor first.
    """

    def __init__(self, geometry: RobotGeometry, noise: SensorNoise):
        self.geometry = geometry
        self.noise = noise

    def sample_vw(self, path_mm: float, turn_rad: float, window_s: float,
                  normal_l: float, normal_r: float) -> tuple[float, float]:
        """Displacements (left, right) over one report window of window_s
        seconds in which the body moved path_mm along its heading and
        turned turn_rad, with standard normals normal_l and normal_r.

        The sensors sit half the sensor separation to each side of the body
        axis, so a counterclockwise turn slows the left one.
        """
        half = 0.5 * self.geometry.flow_separation * turn_rad
        sigma = window_sigma(self.noise.flow_sigma, FLOW_HZ, window_s)
        scale = self.noise.flow_scale
        return ((path_mm - half) * scale + sigma * normal_l,
                (path_mm + half) * scale + sigma * normal_r)

    def sample_windows(self, path_mm: np.ndarray, turn_rad: np.ndarray,
                       window_s: np.ndarray, normals: np.ndarray) -> np.ndarray:
        """sample_vw over consecutive windows, as a (2, n) array of the
        displacements (left, right); normals holds each window's two
        normals in turn, left then right.  Quiet where a value is not
        finite: callers check."""
        scale = self.noise.flow_scale
        with np.errstate(all="ignore"):
            half = 0.5 * self.geometry.flow_separation * turn_rad
            sigma = window_sigma(self.noise.flow_sigma, FLOW_HZ, window_s, np.sqrt)
            return np.array(((path_mm - half) * scale + sigma * normals[0::2],
                             (path_mm + half) * scale + sigma * normals[1::2]))


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


def sample_gyro(heading: float, sigma: float, normal: float) -> float:
    """Absolute heading with Gaussian noise of deviation sigma, wrapped to
    (-pi, pi]: normal is the reading's standard normal."""
    return wrap_angle(heading + sigma * normal)


def sample_gyros(headings: np.ndarray, sigma: float,
                 normals: np.ndarray) -> np.ndarray | None:
    """sample_gyro of each heading with the normal of the same entry, or
    None when a reading is not finite."""
    with np.errstate(all="ignore"):
        readings = headings + sigma * normals
    if not np.isfinite(readings).all():
        return None
    return wrap_angles(readings)


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


def _wheel_response(target: float, act: float, integral: float,
                    n: int) -> tuple[list[float], float, float]:
    """One wheel held at target for n ticks from speed act and PI integral
    integral, as n ticks of _pi_wheel: the mean speed over each tick, and
    the speed and integral at the end of the last."""
    kp, ki, lag_end, lag_mean, tick_s = PI_KP, PI_KI, LAG_END, LAG_MEAN, TICK_S
    v_max = MAX_WHEEL_SPEED
    v_min = -v_max
    means = []
    for _ in range(n):
        error = target - act
        drive = target + kp * error + ki * integral
        if drive > v_max:
            drive = v_max
        elif drive < v_min:
            drive = v_min
        else:
            integral += error * tick_s
        gap = act - drive
        act = drive + gap * lag_end
        means.append(drive + gap * lag_mean)
    return means, act, integral


# Entries of _block_memo, each about 360 KB at HELD_BLOCK_TICKS: a
# bundled localize run holds a command for 3 blocks.
BLOCK_MEMO_SIZE = 8
# The wheel targets (right, left) and the loop state of a block's key.
_LOOP_KEY = struct.Struct("<17d")


@functools.lru_cache(maxsize=BLOCK_MEMO_SIZE)
def _block_memo(t0: int, n: int, loop: bytes, plant: bytes) -> tuple:
    """RobotSim._held_block's n ticks from t0, memoized per process.

    loop packs the wheel targets and the loop state, and plant the wheel
    base and the slip schedule, (start_ms, end_ms, stuck, factor) per
    event, as doubles: keyed on their exact bits, as lru_cache's own key
    would serve a -0.0 from the entry of 0.0.  The block depends on
    nothing else, so the seeds of one scenario share its entries.
    """
    target_r, target_l, *state = _LOOP_KEY.unpack(loop)
    wheel_base, *events = struct.unpack(f"<{len(plant) // 8}d", plant)
    tick_us, tick_s = TICK_US, TICK_S
    means_r, act_r, int_r = _wheel_response(target_r, state[11], state[13], n)
    means_l, act_l, int_l = _wheel_response(target_l, state[12], state[14], n)
    # ticks[:, k] holds (mean_r, mean_l, v, w) of tick k.
    ticks = np.empty((4, n))
    ticks[:2] = means_r, means_l
    mean_r, mean_l = ticks[0], ticks[1]
    # rows[:, k] holds the values at the start of tick k: the pose of the
    # chained chord steps, and running sums of the steps in
    # rows[2:6, k + 1].
    rows = np.empty((7, n + 1))
    rows[:, 0] = state[:7]
    steps = rows[:, 1:]
    v, w = ticks[2], ticks[3]
    # Quiet, as Python float arithmetic is: Posture rejects a non-finite
    # pose at its report.
    with np.errstate(all="ignore"):
        # Ground contact under the first slip event active at each tick's
        # start: the events are laid on in reverse, so the first one wins.
        g_r, g_l = mean_r, mean_l
        if events:
            t_ms = (t0 + tick_us * np.arange(n)) / 1e3
            for start_ms, end_ms, stuck, factor in reversed(
                    [events[k:k + 4] for k in range(0, len(events), 4)]):
                active = (start_ms <= t_ms) & (t_ms < end_ms)
                if active.any():
                    g_r = np.where(active, 0.0 if stuck else factor * mean_r, g_r)
                    g_l = np.where(active, 0.0 if stuck else factor * mean_l, g_l)
        np.multiply(0.5, g_r + g_l, out=v)
        np.divide(g_r - g_l, wheel_base, out=w)
        np.multiply(ticks[:2], tick_s, out=steps[2:4])
        travel = np.multiply(v, tick_s, out=steps[4])
        swept = np.multiply(w, tick_s, out=steps[5])
        rows[[0, 1, 6]] = unicycle_path((state[0], state[1], state[6]), travel, swept)
        np.cumsum(rows[2:6], axis=1, out=rows[2:6])
    rows.flags.writeable = ticks.flags.writeable = False
    last = (*ticks[:, -1].tolist(), act_r, act_l, int_r, int_l)
    return t0, t0 + n * tick_us, rows, ticks, last


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

    ``advance_to`` steps a short call in one fused loop (``_step_to``):
    the reference tick ``PlantLoop.advance`` and the slip lookup are
    written inline, float operation for float operation, with the state
    held in locals between reports.  A reference loop that calls
    ``PlantLoop.advance`` once per tick is the oracle of the engine
    equivalence test.

    The command in force at a call holds until its end, so a call that
    runs at least MIN_BLOCK_TICKS ticks finishes the tick in hand in that
    loop and computes every later tick that starts before its target in
    blocks instead (``_held_block``): each wheel's loop tick by tick, then
    the slip, twist and sums as array operations and the pose by
    ``unicycle_path``, the same float operations in the same order, so the
    same doubles.  A block depends only on its start tick, length, command
    and loop state, the wheel base and the slip schedule, never on the
    noise, so ``_block_memo`` keeps it per process, keyed on their exact
    bits: the seeds of one scenario in one process share its blocks.  Each
    block reads its reports' poses and running sums from its arrays as
    columns (``_block_reports``).

    Report instants come from one clock, a list of the upcoming instants
    and their windows, drawn NOISE_BLOCK windows at a time from the
    schedule stream (an unjittered one draws the constant window
    integers(p, p + 1)).  The tick path pops each report's instant, and a
    block those up to its end, by one bisect (``_reports_due``).

    The engine alone reads the encoder, flow and gyro streams of standard
    normals, each a ``BlockStream``, and hands the sensor models their
    normals.  On the tick path each report reads 2, 2 and 1 of them and
    goes through ``_sample_report``, which samples its window through
    ``EncoderModel.sample_speeds``, ``FlowModel.sample_vw`` and
    ``sample_gyro`` once each, and checks and builds the packet and its
    truth.  A block takes its reports' normals from each stream at once
    and samples them as columns (``_sample_columns``) through
    ``EncoderModel.sample_windows``, ``FlowModel.sample_windows`` and
    ``sample_gyros``: the same float operations, the encoder travel and
    flow counters summed in sequence by ``np.cumsum``.  Where a column is
    not finite or a counter outgrows an int64, and in a world, where each
    report also scans its IR rays, each report goes to ``_sample_report``
    in turn with its slice of the block's normals.
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
        # The plant of a held block's memo key (see _block_memo).
        self._plant_key = struct.pack(f"<{1 + 4 * len(self._slips)}d", geometry.wheel_base,
                                      *itertools.chain.from_iterable(self._slips))
        self._encoders = EncoderModel(geometry, noise)
        self._flow = FlowModel(geometry, noise)
        # The standard normals of the encoders, flow sensors and gyro.
        self._normals = tuple(BlockStream(stream_rng(seed, 0, purpose).standard_normal)
                              for purpose in (STREAM_ENCODER, STREAM_FLOW, STREAM_GYRO))
        self.ir_rng = stream_rng(seed, 0, STREAM_IR)
        lo = rates.report_period_us - rates.report_jitter_us
        if lo < 1:
            # Scenario validation rejects these first; a stalled clock hangs.
            raise ValueError(f"report interval must be at least 1 us, got {lo}")
        hi = rates.report_period_us + rates.report_jitter_us + 1
        schedule_rng = stream_rng(seed, 0, STREAM_SCHEDULE)
        self._schedule = BlockStream(lambda size: schedule_rng.integers(lo, hi, size=size))
        self.truth_at_send: dict[int, Posture] = {}
        self.t_us = 0
        # Saturated wheel targets (right, left).
        self._target = (0.0, 0.0)
        # The loop state, a block's rows[:, k] then its last tick (see
        # _held_block): the pose and running sums at the start of the
        # current tick, or at t_us when that is a tick boundary (t_us ==
        # _tick_end), namely wheel travel (mm), and the ground path length
        # (mm) and heading change (rad) that the flow sensors see; then the
        # current tick's mean wheel speeds and ground twist, and its wheel
        # speeds and PI integrals at its end.
        self._state = (start.x, start.y, 0.0, 0.0, 0.0, 0.0, start.theta) + (0.0,) * 8
        self._tick_end = 0
        # The report clock: the upcoming report instants, the next first,
        # and the window each closes; instant 0 only starts the first one.
        self._instants, self._windows = [0], [0]
        self._reports_due(0)
        # The sums at the open window's start, and the flow counters the
        # reports carry; their tick counts are the encoders' own.
        self._at_report = (0.0, 0.0, 0.0, 0.0)
        self._flow_l = self._flow_r = 0.0

    def _reports_due(self, t_us: int) -> tuple[list[int], list[int]]:
        """Pop the report instants at or before t_us, and their windows,
        first drawing the schedule NOISE_BLOCK windows at a time until an
        instant after t_us is drawn."""
        instants, windows = self._instants, self._windows
        while instants[-1] <= t_us:
            drawn = self._schedule.take(NOISE_BLOCK)
            windows += drawn.tolist()
            instants += (instants[-1] + drawn.cumsum()).tolist()
        due = bisect.bisect_right(instants, t_us)
        popped = instants[:due], windows[:due]
        del instants[:due], windows[:due]
        return popped

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
        # The ticks that start in [t_us, target_us) run in blocks when
        # there are at least MIN_BLOCK_TICKS of them.
        first_tick = self.t_us if self.t_us == self._tick_end else self._tick_end
        if target_us - first_tick <= (MIN_BLOCK_TICKS - 1) * TICK_US:
            return self._step_to(target_us)
        sent = self._step_to(first_tick)   # the rest of the tick in hand
        target_r, target_l = self._target
        t_us, state = first_tick, self._state
        while t_us < target_us:
            block_start, block_end, rows, ticks, last = self._held_block(
                t_us, target_us, target_r, target_l, state)
            t_us = min(block_end, target_us)
            instants, windows = self._reports_due(t_us)
            if instants:
                sent += self._block_reports(block_start, rows, ticks, instants, windows)
            # rows[:, k] is the state at the start of tick k, and the
            # block's last tick is the one in hand, or on a boundary the one
            # that just ended.
            state = tuple(rows[:, (t_us - block_start) // TICK_US].tolist()) + last
        self.t_us, self._tick_end = t_us, block_end
        self._state = state
        return sent

    def _step_to(self, target_us: int) -> list[SensorPacket]:
        """advance_to, one tick at a time."""
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
        instants, windows = self._instants, self._windows
        next_report = instants[0]
        window_slips = ()
        while t_us < target_us:
            stop = next_report if next_report < target_us else target_us
            if slips:
                # Events that can be active at a tick start in [t_us, stop);
                # t / 1e3 is monotone in t.
                lo_ms, hi_ms = t_us / 1e3, stop / 1e3
                window_slips = tuple(e for e in slips
                                     if e[1] > lo_ms and e[0] <= hi_ms)
            while True:
                if t_us == tick_end:
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
                if len(instants) > 1:
                    del instants[0]
                    window_us = windows.pop(0)
                else:   # the last instant drawn
                    _, (window_us,) = self._reports_due(t_us)
                # The running sums at t_us, and the window's normals.
                into = self._into_tick()
                encoder, flow, gyro = self._normals
                sent.append(self._sample_report(
                    t_us, window_us, self.pose,
                    (wheel_r + mean_r * into, wheel_l + mean_l * into,
                     path + v * into, turn + w * into),
                    (encoder.next(), encoder.next(), flow.next(), flow.next(), gyro.next())))
                next_report = instants[0]
        self._state = (x, y, wheel_r, wheel_l, path, turn, theta, mean_r,
                       mean_l, v, w, act_r, act_l, int_r, int_l)
        self._tick_end = tick_end
        self.t_us = t_us
        return sent

    def _held_block(self, t0: int, end_us: int, target_r: float, target_l: float,
                    state: tuple[float, ...]) -> tuple:
        """The ticks of the command in force from the tick boundary t0:
        those that start before end_us, at most HELD_BLOCK_TICKS of them.

        state is the loop state at t0, in the layout of _state.  Returns
        (t0, the block's end, rows, ticks, last), read-only: rows[:, k]
        holds (x, y, wheel_r, wheel_l, path, turn, theta) at the start of
        tick k, ticks[:, k] holds (mean_r, mean_l, v, w) of tick k, and
        last the last tick's (mean_r, mean_l, v, w, act_r, act_l, int_r,
        int_l), the speeds and integrals at its end.  Only the wheels are
        stepped tick by tick, one at a time by _wheel_response; the rest
        are the array forms of advance_to's float operations, in the same
        order.  The block is served from _block_memo.
        """
        n = min(HELD_BLOCK_TICKS, -((t0 - end_us) // TICK_US))
        return _block_memo(t0, n, _LOOP_KEY.pack(target_r, target_l, *state),
                           self._plant_key)

    def _block_reports(self, block_start: int, rows: np.ndarray, ticks: np.ndarray,
                       instants: list[int], windows: list[int]) -> list[SensorPacket]:
        """The reports at instants, each in (block_start, the block's end],
        whose windows last windows microseconds.

        Each report's pose and running sums are read from the block as
        columns, with the float operations of pose and _step_to: the chord
        step into the report's tick at its twist (Posture wraps the heading,
        as integrate_unicycle does), and the tick's mean speeds and twist
        times the time into it.  A report on a tick boundary takes the
        tick-start values as they are, signed zeros included.  The block's
        normals are drawn from each sensor stream at once, and the reports
        sampled as columns (_sample_columns).  Where that path does not
        apply, the reports are sampled in turn by _sample_report, each
        from its slice of the same normals.
        """
        k, into_us = np.divmod(np.array(instants) - block_start, TICK_US)
        at_start = into_us == 0
        x, y, wheel_r, wheel_l, path, turn, theta = rows[:, k]
        # At a boundary the tick in hand is the one that just ended.
        mean_r, mean_l, v, w = ticks[:, k - at_start]
        into = into_us / 1e6
        # Quiet, as Python float arithmetic is: Posture rejects a non-finite
        # pose at its report.
        with np.errstate(all="ignore"):
            travel = v * into
            swept = w * into
            dx, dy = chord_steps(theta, travel, swept)
            poses = np.array((np.where(at_start, x, x + dx), np.where(at_start, y, y + dy),
                              np.where(at_start, theta, theta + swept)))
            sums = np.array((wheel_r + mean_r * into, wheel_l + mean_l * into,
                             path + travel, turn + swept))
        n = len(instants)
        normals = [stream.take(count)
                   for stream, count in zip(self._normals, (2 * n, 2 * n, n))]
        if self.world is None:
            sent = self._sample_columns(instants, windows, poses, sums, normals)
            if sent is not None:
                return sent
        encoder, flow, gyro = (drawn.tolist() for drawn in normals)
        return [self._sample_report(t_us, window_us, Posture(*pose), window_sums, window_normals)
                for t_us, window_us, pose, window_sums, window_normals
                in zip(instants, windows, zip(*poses.tolist()), zip(*sums.tolist()),
                       zip(encoder[0::2], encoder[1::2], flow[0::2], flow[1::2], gyro))]

    def _sample_columns(self, instants: list[int], windows: list[int], poses: np.ndarray,
                        sums: np.ndarray, normals: list[np.ndarray]) -> list[SensorPacket] | None:
        """_sample_report of each report in turn, as columns: poses holds
        each report's x, y and unwrapped heading, sums its running sums,
        and normals the encoder, flow and gyro streams' normals for these
        reports, in order.  The sensors' array forms take the same float
        operations, so the same doubles.

        Returns None, and changes nothing, where a pose or reading is not
        finite, a counter does not fit an int64 or t_sent does not fit its
        field: _sample_report then raises the error of the first such
        report, or counts exactly (count_ticks' Fraction path).
        """
        encoder_normals, flow_normals, gyro_normals = normals
        with np.errstate(all="ignore"):
            if not np.isfinite(poses).all():
                return None
            x, y, theta = poses
            theta = wrap_angles(theta)
            gyro = sample_gyros(theta, self.noise.gyro_sigma, gyro_normals)
            window_s = np.array(windows) / 1e6
            # The windows since the last report.
            moved = np.diff(sums, axis=1, prepend=np.array(self._at_report)[:, None])
            counters = np.empty((2, len(instants) + 1))
            counters[:, 0] = self._flow_l, self._flow_r
            counters[:, 1:] = self._flow.sample_windows(moved[2], moved[3], window_s,
                                                        flow_normals)
            np.cumsum(counters, axis=1, out=counters)
            flow_steps = counters[:, 1:] / FLOW_UNIT_MM
            t_sent = np.array(instants) // 1000
            if (gyro is None or not (np.abs(flow_steps) < 2.0 ** 62).all()
                    or t_sent[-1] > 0xFFFFFFFF):
                return None
        counts = self._encoders.sample_windows(moved[0], moved[1], window_s, encoder_normals)
        if counts is None:
            return None
        self._at_report = tuple(sums[:, -1].tolist())
        self._flow_l, self._flow_r = counters[:, -1].tolist()
        # wrap_i16 and wrap_flow, as arrays: np.rint rounds half to even,
        # as round does.
        ticks_r, ticks_l = wrap_i16(counts).tolist()
        flow_l, flow_r = (wrap_i16(np.rint(flow_steps).astype(np.int64))
                          * FLOW_UNIT_MM).tolist()
        t_sent = t_sent.tolist()
        self.truth_at_send.update(zip(t_sent, map(
            tuple.__new__, itertools.repeat(Posture), zip(x.tolist(), y.tolist(),
                                                          theta.tolist()))))
        # The fields are checked above, as SensorPacket checks them.
        return list(map(tuple.__new__, itertools.repeat(SensorPacket), zip(
            itertools.repeat(0), t_sent, ticks_l, ticks_r, flow_l, flow_r, gyro.tolist(),
            itertools.repeat((None,) * 5))))

    def _sample_report(self, t_us: int, window_us: int, pose: Posture,
                       sums: tuple[float, float, float, float],
                       normals: tuple[float, float, float, float, float]) -> SensorPacket:
        """Sample the window of window_us that closes at t_us, with the robot
        at pose and the running sums (wheel travel right and left, ground
        path and turn) there, from the window's normals (encoder right and
        left, flow left and right, gyro), and snapshot the free-running
        odometry counters at send time."""
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
        # The window since the last report.
        wheel_r, wheel_l, path, turn = sums
        wheel_r0, wheel_l0, path0, turn0 = self._at_report
        self._at_report = sums
        window_s = window_us / 1e6
        encoder_r, encoder_l, flow_nl, flow_nr, gyro = normals
        ticks_r, ticks_l = self._encoders.sample_speeds(
            wheel_r - wheel_r0, wheel_l - wheel_l0, window_s, encoder_r, encoder_l)
        flow_l, flow_r = self._flow.sample_vw(path - path0, turn - turn0, window_s,
                                              flow_nl, flow_nr)
        self._flow_l += flow_l
        self._flow_r += flow_r
        # Robot 0's packet, its fields passed in order: robot_id, t_sent,
        # ticks and flow left then right, gyro_heading, ir.
        packet = SensorPacket(
            0, t_us // 1000, wrap_i16(ticks_l), wrap_i16(ticks_r),
            wrap_flow(self._flow_l), wrap_flow(self._flow_r),
            sample_gyro(pose.theta, self.noise.gyro_sigma, gyro), ir)
        self.truth_at_send[packet.t_sent] = pose
        return packet
