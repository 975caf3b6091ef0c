"""Robot plant, sensor models, and the sensor engine that fuses them.

The plant is a differential-drive body whose wheel speeds follow commands
through a PI-regulated first-order motor lag.  Slip decouples wheel motion
from ground motion: encoders sense the wheels (slip-blind) while the paired
optical-flow sensors sense true ground motion (slip-immune).  All sensor
models draw from caller-supplied numpy generators so runs are reproducible.

``PlantLoop``, ``EncoderModel`` and ``FlowModel`` are the reference plant,
stepped one event and one sample at a time; ``RobotSim``, the engine every
run uses, repeats their arithmetic inline in one fused event loop per
robot, on seed-derived per-robot noise streams.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, count

import numpy as np

from .comms import SensorPacket, wrap_flow, wrap_i16
from .core import (
    ARC_EPSILON,
    MAX_WHEEL_SPEED,
    Posture,
    RobotGeometry,
    WheelSpeeds,
    integrate_unicycle,
    wheels_to_twist,
    wrap_angle,
)


# --- wheel speed regulation ------------------------------------------------


# Wheel speed loop: PI trim around a command feedforward, driving a
# first-order motor lag, with commands and drive saturated at
# MAX_WHEEL_SPEED.  A step settles to a few percent within 0.3 s without
# overshoot.
PI_KP = 0.8
PI_KI = 2.0
MOTOR_TAU_S = 0.05


# Longest plant step (s) the Euler integration accepts.
MAX_STEP_S = 0.2


def _clamp(value: float, limit: float) -> float:
    return max(-limit, min(limit, value))


def _pi_wheel(command: float, actual: float, integral: float,
              dt: float) -> tuple[float, float]:
    target = _clamp(command, MAX_WHEEL_SPEED)
    error = target - actual
    drive_raw = target + PI_KP * error + PI_KI * integral
    drive = _clamp(drive_raw, MAX_WHEEL_SPEED)
    if drive == drive_raw:
        integral += error * dt   # anti-windup: freeze while the drive clips
    actual += dt * (drive - actual) / MOTOR_TAU_S
    return actual, integral


# --- slip --------------------------------------------------------------------


@dataclass(frozen=True)
class SlipEvent:
    """Wheel/ground decoupling over [start_ms, end_ms).

    mode 'stuck': wheels spin, the body does not move.
    mode 'scale': ground speed is factor times wheel speed.
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


def active_slip(schedule: tuple[SlipEvent, ...], t_ms: float) -> SlipEvent | None:
    for event in schedule:
        if event.start_ms <= t_ms < event.end_ms:
            return event
    return None


# --- plant -------------------------------------------------------------------


@dataclass
class PlantLoop:
    """One robot's plant, stepped one event at a time: the reference plant.

    ``RobotSim.advance_to`` below inlines ``advance`` float operation for
    float operation, and the engine equivalence test checks it against this
    class.  Also a tracing target of the benchmark.
    """

    pose: Posture
    geometry: RobotGeometry
    command: WheelSpeeds = WheelSpeeds(0.0, 0.0)
    actual: WheelSpeeds = WheelSpeeds(0.0, 0.0)
    integral: tuple[float, float] = (0.0, 0.0)   # right, left
    # Ground-contact wheel speeds of the most recent step, for sensors
    # that observe body motion rather than wheel rotation.
    ground: WheelSpeeds = WheelSpeeds(0.0, 0.0)

    def set_command(self, right: float, left: float) -> None:
        self.command = WheelSpeeds(right, left)

    def advance(self, dt: float, slip: SlipEvent | None = None) -> None:
        """One PI update of both wheels, then one motion step at the ground
        speeds under the slip event; a step outside (0, MAX_STEP_S] raises
        ValueError and leaves the loop unchanged."""
        if not 0 < dt <= MAX_STEP_S:
            raise ValueError(f"dt must be in (0, {MAX_STEP_S}], got {dt!r}")
        right, int_r = _pi_wheel(self.command.right, self.actual.right,
                                 self.integral[0], dt)
        left, int_l = _pi_wheel(self.command.left, self.actual.left,
                                self.integral[1], dt)
        actual = WheelSpeeds(right, left)
        if slip is None:
            ground = actual
        elif slip.mode == "stuck":
            ground = WheelSpeeds(0.0, 0.0)
        else:
            ground = WheelSpeeds(slip.factor * right, slip.factor * left)
        pose = integrate_unicycle(self.pose, wheels_to_twist(ground, self.geometry), dt)
        self.pose, self.actual, self.integral = pose, actual, (int_r, int_l)
        self.ground = ground


# --- sensors -----------------------------------------------------------------


@dataclass(frozen=True)
class SensorNoise:
    """Per-sample noise levels and the flow calibration factor.

    encoder_sigma and flow_sigma are speed-noise standard deviations (mm/s)
    applied per sample at the sensor's own rate; both land near 2 mm/s at
    the 70 ms report level with the default rates.  Wheel odometry error is
    dominated by tick quantization instead of this term.
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


class EncoderModel:
    """Incremental wheel encoders: quantized, noisy, and slip-blind."""

    def __init__(self, geometry: RobotGeometry, noise: SensorNoise,
                 rng: np.random.Generator):
        self.geometry = geometry
        self.noise = noise
        self.rng = rng
        self._carry = [0.0, 0.0]   # right, left

    def sample_speeds(self, right: float, left: float, dt: float) -> tuple[int, int]:
        """Ticks (right, left) for one interval at the given wheel speeds.

        ``RobotSim.advance_to`` below inlines this sample with block-drawn
        noise; this method is its per-sample reference and a tracing target.
        """
        mm_per_tick = self.geometry.mm_per_tick
        ticks = []
        for i, speed in enumerate((right, left)):
            noisy = speed + self.noise.encoder_sigma * self.rng.standard_normal()
            # Truncation toward zero quantizes forward and reverse motion
            # symmetrically; the carry stays below one tick in magnitude.
            total = self._carry[i] + noisy * dt
            t = int(total / mm_per_tick)
            self._carry[i] = total - t * mm_per_tick
            ticks.append(t)
        return ticks[0], ticks[1]


class FlowModel:
    """Paired downward optical-flow sensors measuring ground motion."""

    def __init__(self, geometry: RobotGeometry, noise: SensorNoise,
                 rng: np.random.Generator):
        self.geometry = geometry
        self.noise = noise
        self.rng = rng

    def sample_vw(self, v: float, w: float, dt: float) -> tuple[float, float]:
        """Displacements (left, right) for one interval at body speeds v, w.

        The sensors sit half the sensor separation to each side of the body
        axis, so a counterclockwise turn slows the left one.
        ``RobotSim.advance_to`` below inlines this sample with block-drawn
        noise; this method is its per-sample reference and a tracing target.
        """
        half = 0.5 * self.geometry.flow_separation * w
        sigma = self.noise.flow_sigma * dt
        return (
            (v - half) * dt * self.noise.flow_scale
            + sigma * self.rng.standard_normal(),
            (v + half) * dt * self.noise.flow_scale
            + sigma * self.rng.standard_normal(),
        )


@dataclass(frozen=True)
class Rates:
    """Sensor sampling and report schedule.

    The engine runs on an integer microsecond grid, so each rate is used
    through its rounded period.  report_jitter_ms > 0 spreads each
    inter-report interval uniformly over period +- jitter, modeling a robot
    whose send loop does not keep exact time. The report payload still
    covers the true interval and carries the true send timestamp, so a
    timestamp-driven consumer stays consistent.
    """

    encoder_hz: float = 400.0
    flow_hz: float = 1000.0
    report_period_ms: float = 70.0
    report_jitter_ms: float = 0.0

    @property
    def encoder_period_us(self) -> int:
        return round(1e6 / self.encoder_hz)

    @property
    def flow_period_us(self) -> int:
        return round(1e6 / self.flow_hz)

    @property
    def report_period_us(self) -> int:
        return round(1e3 * self.report_period_ms)

    @property
    def report_jitter_us(self) -> int:
        return round(1e3 * self.report_jitter_ms)


def sample_gyro(pose: Posture, noise: SensorNoise, rng: np.random.Generator) -> float:
    """Absolute heading with Gaussian noise, wrapped to (-pi, pi]."""
    return wrap_angle(pose.theta + noise.gyro_sigma * rng.standard_normal())


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
    t = ((px - seg.ax) * vx + (py - seg.ay) * vy) / (vx * vx + vy * vy)
    t = max(0.0, min(1.0, t))
    return math.hypot(px - (seg.ax + t * vx), py - (seg.ay + t * vy))


def _point_rect_distance(px: float, py: float, rect: Rect) -> float:
    dx = max(rect.x0 - px, 0.0, px - rect.x1)
    dy = max(rect.y0 - py, 0.0, py - rect.y1)
    return math.hypot(dx, dy)


# Rays per numpy broadcast: each rays x edges temporary stays small, so a
# whole survey's cast does not raise the peak memory.
_CAST_CHUNK = 256


def _cast_rays(world: World, ox: list[float], oy: list[float],
               angles: list[float]) -> list[float]:
    """Distance (mm) along each ray to the nearest obstacle or arena wall,
    inf when it hits none; ray i starts at (ox[i], oy[i]) at angles[i].

    Rays meet every edge in one broadcast per chunk of rays. A ray parallel
    to an edge (collinear grazing included) misses it.
    """
    ax, ay, bx, by = np.array(world.obstacle_edges()).T
    ex, ey = bx - ax, by - ay
    dist: list[float] = []
    for i in range(0, len(angles), _CAST_CHUNK):
        chunk = slice(i, i + _CAST_CHUNK)
        rx, ry = np.array(ox[chunk])[:, None], np.array(oy[chunk])[:, None]
        dx = np.array([math.cos(a) for a in angles[chunk]])[:, None]
        dy = np.array([math.sin(a) for a in angles[chunk]])[:, None]
        with np.errstate(all="ignore"):
            denom = dx * ey - dy * ex
            t = ((ax - rx) * ey - (ay - ry) * ex) / denom
            s = ((ax - rx) * dy - (ay - ry) * dx) / denom
            hit = (np.abs(denom) >= 1e-12) & (t >= 0.0) & (s >= 0.0) & (s <= 1.0)
        dist += np.where(hit, t, np.inf).min(axis=1).tolist()
    return dist


def sample_ir(world: World, poses: Sequence[Posture], geometry: RobotGeometry,
              noise: SensorNoise, rng: np.random.Generator) -> list[list[float | None]]:
    """Five range readings in ray order for each pose; None marks out-of-range.

    A ray is classified against the true cast distance, then the reported
    value carries additive Gaussian noise. All rays are cast together, and
    the in-range rays draw their noise as one block, pose-major then in ray
    order: the same stream as one scalar draw per in-range ray.
    """
    for pose in poses:
        if not world.bounds.contains(pose.x, pose.y):
            raise ValueError("pose must lie inside the world bounds")
    bearings = geometry.ir_ray_angles
    dist = _cast_rays(world, [p.x for p in poses for _ in bearings],
                      [p.y for p in poses for _ in bearings],
                      [p.theta + b for p in poses for b in bearings])
    lo, hi = geometry.ir_range_min, geometry.ir_range_max
    in_range = [lo <= d <= hi for d in dist]
    draws = iter((noise.ir_sigma * rng.standard_normal(sum(in_range))).tolist())
    flat = [max(0.0, d + next(draws)) if ok else None
            for d, ok in zip(dist, in_range)]
    n = len(bearings)
    return [flat[i:i + n] for i in range(0, len(flat), n)]


# --- one-robot sensor engine -------------------------------------------------


class RuntimeFault(Exception):
    """A validated scenario failed while running (exit code 3)."""


# Independent, seed-derived random streams per (robot, purpose): adding a
# robot or toggling one sensor never perturbs any other stream.
(STREAM_ENCODER, STREAM_FLOW, STREAM_GYRO, STREAM_IR, STREAM_CHANNEL,
 STREAM_SCHEDULE) = range(6)

# Encoder and flow noise is drawn this many normals at a time.
NOISE_BLOCK = 4096


def stream_rng(seed: int, robot_id: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, robot_id, purpose])


def _normals(rng: np.random.Generator) -> Iterator[float]:
    """Endless standard normals of rng, drawn NOISE_BLOCK at a time: the
    same sequence as one scalar draw each."""
    return chain.from_iterable(rng.standard_normal(NOISE_BLOCK).tolist()
                               for _ in count())


class RobotSim:
    """Plant, wheel PI loop, and sensor suite of one robot.

    Time advances on an integer microsecond grid so the 400 Hz encoder,
    1000 Hz flow, and report clocks stay exactly commensurate; every event
    fires at its true instant regardless of the other rates.

    ``advance_to`` is one fused event loop: the reference plant step
    ``PlantLoop.advance``, the slip lookup, the encoder sample of
    ``EncoderModel.sample_speeds`` and the flow sample of
    ``FlowModel.sample_vw`` are written inline, float operation for float
    operation, with the state held in locals between reports.  Encoder and
    flow noise come from one endless iterator per stream over
    ``standard_normal(NOISE_BLOCK)`` blocks, which yield the same sequence
    as scalar draws.  A reference loop that calls those three classes once
    per event is the oracle of the engine equivalence test.
    """

    def __init__(self, geometry: RobotGeometry, noise: SensorNoise,
                 start: Posture, seed: int,
                 slip_schedule: tuple[SlipEvent, ...] = (),
                 rates: Rates = Rates(), world: World | None = None,
                 robot_id: int = 0):
        self.geometry = geometry
        self.noise = noise
        self.world = world
        self.robot_id = robot_id
        self._slips = tuple((e.start_ms, e.end_ms, e.mode == "stuck", e.factor)
                            for e in slip_schedule)
        self._x, self._y, self._theta = start.x, start.y, start.theta
        self._cmd_right = self._cmd_left = 0.0
        self._act_right = self._act_left = 0.0
        self._int_right = self._int_left = 0.0
        self._enc_noise = _normals(stream_rng(seed, robot_id, STREAM_ENCODER))
        self._flow_noise = _normals(stream_rng(seed, robot_id, STREAM_FLOW))
        self.gyro_rng = stream_rng(seed, robot_id, STREAM_GYRO)
        self.ir_rng = stream_rng(seed, robot_id, STREAM_IR)
        self.truth_at_send: dict[int, Posture] = {}
        self.t_us = 0
        self._enc_us = rates.encoder_period_us
        self._flow_us = rates.flow_period_us
        self._report_us = rates.report_period_us
        self._jitter_us = rates.report_jitter_us
        self._schedule_rng = stream_rng(seed, robot_id, STREAM_SCHEDULE)
        self._next_enc = self._enc_us
        self._next_flow = self._flow_us
        self._next_report = self._report_interval()
        self._carry_right = self._carry_left = 0.0
        self._ticks_l = 0
        self._ticks_r = 0
        self._flow_l = 0.0
        self._flow_r = 0.0

    def _report_interval(self) -> int:
        if self._jitter_us == 0:
            return self._report_us
        return int(self._schedule_rng.integers(
            self._report_us - self._jitter_us,
            self._report_us + self._jitter_us + 1))

    def set_command(self, wheels: WheelSpeeds) -> None:
        self._cmd_right = wheels.right
        self._cmd_left = wheels.left

    @property
    def pose(self) -> Posture:
        return Posture(self._x, self._y, self._theta)

    def advance_to(self, target_us: int) -> list[SensorPacket]:
        """Run plant and sensors up to target time; returns reports sent."""
        sent: list[SensorPacket] = []
        t_us = self.t_us
        kp, ki, tau = PI_KP, PI_KI, MOTOR_TAU_S
        v_max = MAX_WHEEL_SPEED
        v_min = -v_max
        wheel_base = self.geometry.wheel_base
        half_sep = 0.5 * self.geometry.flow_separation
        mm_per_tick = self.geometry.mm_per_tick
        enc_sigma = self.noise.encoder_sigma
        flow_scale = self.noise.flow_scale
        enc_us, flow_us = self._enc_us, self._flow_us
        enc_dt = enc_us * 1e-6
        flow_dt = flow_us * 1e-6
        flow_sigma = self.noise.flow_sigma * flow_dt
        enc_draw = self._enc_noise.__next__
        flow_draw = self._flow_noise.__next__
        slips = self._slips
        sin, cos, pi = math.sin, math.cos, math.pi
        arc_eps, neg_arc_eps = ARC_EPSILON, -ARC_EPSILON
        # Saturated wheel targets; the command holds for the whole call.
        cmd = self._cmd_right
        target_r = cmd if cmd < v_max else v_max
        target_r = target_r if target_r > v_min else v_min
        cmd = self._cmd_left
        target_l = cmd if cmd < v_max else v_max
        target_l = target_l if target_l > v_min else v_min
        # Loop state, written back at the end.
        x, y, theta = self._x, self._y, self._theta
        act_r, act_l = self._act_right, self._act_left
        int_r, int_l = self._int_right, self._int_left
        carry_r, carry_l = self._carry_right, self._carry_left
        ticks_r, ticks_l = self._ticks_r, self._ticks_l
        flow_l, flow_r = self._flow_l, self._flow_r
        next_enc, next_flow = self._next_enc, self._next_flow
        next_report = self._next_report
        window_slips = ()
        while t_us < target_us:
            stop = next_report if next_report < target_us else target_us
            if slips:
                # Events that can be active at some step start in
                # [t_us, stop); t / 1e3 is monotone in t.
                lo_ms, hi_ms = t_us / 1e3, stop / 1e3
                window_slips = tuple(e for e in slips
                                     if e[1] > lo_ms and e[0] <= hi_ms)
            # At least one step per window, so a report clock that does not
            # advance fails the dt check instead of looping forever.
            while True:
                t_next = stop
                if next_enc < t_next:
                    t_next = next_enc
                if next_flow < t_next:
                    t_next = next_flow
                dt = (t_next - t_us) * 1e-6
                if not 0 < dt <= MAX_STEP_S:
                    raise ValueError(
                        f"dt must be in (0, {MAX_STEP_S}], got {dt!r}")
                # Wheel speed loops: PI trim, anti-windup, motor lag.
                error = target_r - act_r
                drive = target_r + kp * error + ki * int_r
                if drive > v_max:
                    drive = v_max
                elif drive < v_min:
                    drive = v_min
                else:
                    int_r += error * dt
                act_r += dt * (drive - act_r) / tau
                error = target_l - act_l
                drive = target_l + kp * error + ki * int_l
                if drive > v_max:
                    drive = v_max
                elif drive < v_min:
                    drive = v_min
                else:
                    int_l += error * dt
                act_l += dt * (drive - act_l) / tau
                # Ground contact under the first active slip event.
                g_r, g_l = act_r, act_l
                if window_slips:
                    t_ms = t_us / 1e3
                    for start_ms, end_ms, stuck, factor in window_slips:
                        if start_ms <= t_ms < end_ms:
                            if stuck:
                                g_r = g_l = 0.0
                            else:
                                g_r = factor * act_r
                                g_l = factor * act_l
                            break
                # Body motion: chord form of the constant-twist arc.
                v = 0.5 * (g_r + g_l)
                w = (g_r - g_l) / wheel_base
                swept = w * dt
                if swept > arc_eps or swept < neg_arc_eps:
                    half = 0.5 * swept
                    chord = v * dt * sin(half) / half
                    heading = theta + half
                else:
                    chord = v * dt
                    heading = theta
                x += chord * cos(heading)
                y += chord * sin(heading)
                # wrap_angle returns a heading in (-pi, pi] unchanged.
                theta += swept
                if not -pi < theta <= pi:
                    theta = wrap_angle(theta)
                t_us = t_next
                if t_us == next_flow:
                    half = half_sep * w
                    flow_l += ((v - half) * flow_dt * flow_scale
                               + flow_sigma * flow_draw())
                    flow_r += ((v + half) * flow_dt * flow_scale
                               + flow_sigma * flow_draw())
                    next_flow += flow_us
                if t_us == next_enc:
                    noisy = act_r + enc_sigma * enc_draw()
                    total = carry_r + noisy * enc_dt
                    ticks = int(total / mm_per_tick)
                    carry_r = total - ticks * mm_per_tick
                    ticks_r += ticks
                    noisy = act_l + enc_sigma * enc_draw()
                    total = carry_l + noisy * enc_dt
                    ticks = int(total / mm_per_tick)
                    carry_l = total - ticks * mm_per_tick
                    ticks_l += ticks
                    next_enc += enc_us
                if t_us == stop:
                    break
            if t_us == next_report:
                sent.append(self._assemble_report(
                    t_us, Posture(x, y, theta), ticks_r, ticks_l, flow_l, flow_r))
                next_report += self._report_interval()
        self._x, self._y, self._theta = x, y, theta
        self._act_right, self._act_left = act_r, act_l
        self._int_right, self._int_left = int_r, int_l
        self._carry_right, self._carry_left = carry_r, carry_l
        self._ticks_r, self._ticks_l = ticks_r, ticks_l
        self._flow_l, self._flow_r = flow_l, flow_r
        self._next_enc, self._next_flow = next_enc, next_flow
        self._next_report = next_report
        self.t_us = t_us
        return sent

    def _assemble_report(self, t_us: int, pose: Posture, ticks_r: int,
                         ticks_l: int, flow_l: float,
                         flow_r: float) -> SensorPacket:
        """Snapshot the free-running odometry counters at send time."""
        if self.world is not None:
            if not self.world.bounds.contains(pose.x, pose.y):
                raise RuntimeFault(
                    f"robot {self.robot_id} left the world bounds at "
                    f"t={t_us / 1e6:g} s (x={pose.x:.1f} mm, "
                    f"y={pose.y:.1f} mm)")
            ir = tuple(sample_ir(self.world, [pose], self.geometry, self.noise,
                                 self.ir_rng)[0])
        else:
            ir = (None,) * 5
        packet = SensorPacket(
            robot_id=self.robot_id,
            t_sent=t_us // 1000,
            ticks_left=wrap_i16(ticks_l),
            ticks_right=wrap_i16(ticks_r),
            flow_dx_left=wrap_flow(flow_l),
            flow_dx_right=wrap_flow(flow_r),
            gyro_heading=sample_gyro(pose, self.noise, self.gyro_rng),
            ir=ir,
        )
        self.truth_at_send[packet.t_sent] = pose
        return packet
