"""Velocity-fusion localization over timestamped sensor reports.

State is (x, y, theta, v, omega).  Each report yields five measurements:
wheel-odometry speed and turn rate, flow-derived speed and turn rate, and
an absolute gyro heading.  Prediction advances the state with the interval
between report timestamps, never the arrival cadence, so latency jitter and
dropped reports do not corrupt the integration.  When wheel and flow speeds
disagree persistently the wheels are slipping; the wheel-channel noise is
inflated so the fused estimate leans on ground-truth flow.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .comms import FLOW_WRAP_MM, SensorPacket, wrap_i16
from .core import Posture, RobotGeometry, Twist, integrate_unicycle, wrap_angle
from .sim import ENCODER_HZ, FLOW_HZ, Rates

STATE_DIM = 5
# The filter works on the upper triangle of the covariance as a flat list:
# entry n is (_UPPER_ROW[n], _UPPER_COL[n]), at _UPPER[n] in the raveled
# matrix.  _SLOT[i][k] is the entry holding (i, k) or (k, i), so indexing
# the list with _SLOT mirrors it back, and _COLUMN[j] lists column j.
_ROW, _COL = np.triu_indices(STATE_DIM)
_UPPER, _UPPER_ROW, _UPPER_COL = _ROW * STATE_DIM + _COL, _ROW.tolist(), _COL.tolist()
_SLOT = np.zeros((STATE_DIM, STATE_DIM), dtype=int)
_SLOT[_ROW, _COL] = _SLOT[_COL, _ROW] = range(len(_UPPER))
_COLUMN = _SLOT.tolist()


class EstimationFault(Exception):
    """The filter hit a numerically unusable innovation covariance."""


class StaleData(Exception):
    """Report timestamps must strictly increase."""


@dataclass(frozen=True)
class EkfConfig:
    """Noise model of the filter.

    q_diag is continuous-time process noise per second of prediction;
    r_base is the diagonal measurement covariance for
    (v_wheel, w_wheel, v_flow, w_flow, heading).  While slip is detected the
    two wheel channels are inflated by slip_inflation.
    """

    q_diag: tuple[float, ...] = (1.0, 1.0, 1e-4, 25.0, 1e-2)
    r_base: tuple[float, ...] = (4.27, 1.71e-3, 4.55, 5.05e-3, 1.0001e-4)
    slip_threshold: float = 20.0      # mm/s of wheel/flow disagreement
    slip_window: int = 5
    slip_inflation: float = 100.0

    def __post_init__(self) -> None:
        if len(self.q_diag) != STATE_DIM or len(self.r_base) != STATE_DIM:
            raise ValueError("q_diag must have 5 entries, r_base 5")
        if min(self.q_diag) < 0 or min(self.r_base) < 0:
            raise ValueError("noise variances must be non-negative")
        if self.slip_threshold <= 0 or self.slip_window < 1:
            raise ValueError("invalid slip detector settings")
        if self.slip_inflation < 1:
            raise ValueError("slip_inflation must be at least 1")

    @classmethod
    def from_noise(cls, noise, geometry: RobotGeometry, rates: Rates = Rates(),
                   **overrides) -> "EkfConfig":
        """Derive r_base from sensor noise levels, the sample rates
        ENCODER_HZ and FLOW_HZ, the report period, and wire quantization."""
        t = rates.report_period_ms / 1e3
        # Per-wheel speed variance: sample noise plus the two tick-boundary
        # truncation errors of the report window.
        var_wheel = (noise.encoder_sigma ** 2 / (ENCODER_HZ * t)
                     + geometry.mm_per_tick ** 2 / (6.0 * t * t))
        # Per-sensor flow displacement variance: sample noise plus the
        # 0.1 mm wire quantum.
        var_dx = noise.flow_sigma ** 2 * t / FLOW_HZ + 0.1 ** 2 / 12.0
        r = (
            var_wheel / 2.0,
            2.0 * var_wheel / geometry.wheel_base ** 2,
            var_dx / (2.0 * t * t),
            2.0 * var_dx / (geometry.flow_separation * t) ** 2,
            noise.gyro_sigma ** 2 + 1e-6 / 12.0,
        )
        return cls(r_base=r, **overrides)


@dataclass(frozen=True)
class EkfBelief:
    """Gaussian state estimate stamped with its report time."""

    mean: np.ndarray          # (5,)
    cov: np.ndarray           # (5, 5)
    t_ms: float

    @property
    def pose(self) -> Posture:
        # Python floats, not numpy scalars: a controller fed this pose
        # would pass numpy scalars on into the plant's arithmetic.
        return Posture(*self.mean[:3].tolist())


def initial_belief(pose: Posture) -> EkfBelief:
    mean = np.array([pose.x, pose.y, pose.theta, 0.0, 0.0])
    cov = np.diag([1.0, 1.0, 1e-4, 100.0, 0.1])
    return EkfBelief(mean, cov, 0.0)


@dataclass(frozen=True)
class VelocityMeasurement:
    """One report converted to physical units over its own interval."""

    dt: float                 # s, from report timestamps
    v_wheel: float            # mm/s
    w_wheel: float            # rad/s
    v_flow: float             # mm/s
    w_flow: float             # rad/s
    heading: float            # rad
    t_ms: float


def _diff_flow(curr: float, prev: float) -> float:
    """Signed difference of two flow distance counters (wrap at 0.1 mm i16)."""
    return (curr - prev + FLOW_WRAP_MM / 2) % FLOW_WRAP_MM - FLOW_WRAP_MM / 2


def measurement_from_packets(prev: SensorPacket, curr: SensorPacket,
                             geometry: RobotGeometry) -> VelocityMeasurement:
    """Convert consecutive reports into velocities over their interval.

    Tick and flow fields are free-running counters, so the wraparound
    difference spans the full gap between the two reports even when frames
    in between were lost; dividing by the timestamp interval then yields
    the true average velocities.  Requires less than half a counter wrap
    of motion per gap (thousands of mm at the wire widths).

    Raises StaleData when curr does not postdate prev.
    """
    if curr.t_sent <= prev.t_sent:
        raise StaleData(f"report at {curr.t_sent} ms does not postdate {prev.t_sent} ms")
    dt = (curr.t_sent - prev.t_sent) / 1e3
    mmpt = geometry.mm_per_tick
    v_right = wrap_i16(curr.ticks_right - prev.ticks_right) * mmpt / dt
    v_left = wrap_i16(curr.ticks_left - prev.ticks_left) * mmpt / dt
    dx_left = _diff_flow(curr.flow_dx_left, prev.flow_dx_left)
    dx_right = _diff_flow(curr.flow_dx_right, prev.flow_dx_right)
    v_flow = (dx_left + dx_right) / (2.0 * dt)
    w_flow = (dx_right - dx_left) / (geometry.flow_separation * dt)
    return VelocityMeasurement(
        dt=dt,
        v_wheel=0.5 * (v_right + v_left),
        w_wheel=(v_right - v_left) / geometry.wheel_base,
        v_flow=v_flow,
        w_flow=w_flow,
        heading=curr.gyro_heading,
        t_ms=float(curr.t_sent),
    )


def ekf_predict(belief: EkfBelief, dt: float, cfg: EkfConfig) -> EkfBelief:
    """Propagate the belief dt seconds under constant (v, omega).

    The covariance is F P F^T + Q dt written out for the Jacobian F of
    this prediction: the identity plus F[0][2] = -v dt sin(theta),
    F[0][3] = dt cos(theta), F[1][2] = v dt cos(theta),
    F[1][3] = dt sin(theta) and F[2][4] = dt.  So only rows and columns 0-2
    change (Maybeck, Stochastic Models, Estimation and Control, Vol. 1,
    1979, ch. 7).  The result is mirrored from one triangle, so it is
    exactly symmetric.
    """
    if dt <= 0:
        raise ValueError("prediction interval must be positive")
    x, y, theta, v, w = belief.mean.tolist()
    cos, sin = math.cos(theta), math.sin(theta)
    mean = np.array([x + v * dt * cos, y + v * dt * sin,
                     wrap_angle(theta + w * dt), v, w])
    # Nonzero off-diagonal entries of F: rows 0 and 1 at columns 2 and 3.
    a, b, c, d = -v * dt * sin, dt * cos, v * dt * cos, dt * sin
    p0, p1, p2, p3, p4 = belief.cov.tolist()
    # Rows 0-2 of F P; rows 3 and 4 are those of P.
    g0 = [i + a * k + b * m for i, k, m in zip(p0, p2, p3)]
    g1 = [j + c * k + d * m for j, k, m in zip(p1, p2, p3)]
    g2 = [k + dt * n for k, n in zip(p2, p4)]
    q0, q1, q2, q3, q4 = (q * dt for q in cfg.q_diag)
    # The upper triangle of (F P) F^T + Q dt.
    cov = np.array([
        g0[0] + a * g0[2] + b * g0[3] + q0, g0[1] + c * g0[2] + d * g0[3],
        g0[2] + dt * g0[4], g0[3], g0[4],
        g1[1] + c * g1[2] + d * g1[3] + q1, g1[2] + dt * g1[4], g1[3], g1[4],
        g2[2] + dt * g2[4] + q2, g2[3], g2[4],
        p3[3] + q3, p3[4],
        p4[4] + q4,
    ])[_SLOT]
    return EkfBelief(mean, cov, belief.t_ms + dt * 1e3)


def ekf_update(belief: EkfBelief, meas: VelocityMeasurement, cfg: EkfConfig,
               slip: bool) -> EkfBelief:
    """Fuse one report; wheel channels are deweighted while slip holds.

    Each channel measures one state directly and R is diagonal, so the batch
    update equals one scalar update per channel in turn (Bierman,
    Factorization Methods for Discrete Sequential Estimation, 1977):
    s = P[j][j] + r, mean += P[:, j] nu / s, P -= P[:, j] P[j, :] / s.
    Row and column j take the equal form P[j, :] r / s, which keeps their
    precision when r << P[j][j] and the subtraction would cancel.
    The heading channel goes first, so its innovation wrap_angle(z - theta)
    uses the prior heading; the other four follow in the order (v_wheel,
    w_wheel, v_flow, w_flow), and the posterior heading is wrapped once at
    the end.  The pivots s are the Cholesky pivots of the batch innovation
    covariance S in that channel order, so EstimationFault is raised
    exactly when S is not positive definite.  Only the upper triangle of P
    is read and updated, then mirrored, so the result is exactly symmetric.
    """
    r_vw, r_ww, r_vf, r_wf, r_heading = cfg.r_base
    if slip:
        r_vw *= cfg.slip_inflation
        r_ww *= cfg.slip_inflation
    mean = belief.mean.tolist()
    p = belief.cov.ravel()[_UPPER].tolist()
    for j, z, r in ((2, meas.heading, r_heading), (3, meas.v_wheel, r_vw),
                    (4, meas.w_wheel, r_ww), (3, meas.v_flow, r_vf),
                    (4, meas.w_flow, r_wf)):
        col = [p[n] for n in _COLUMN[j]]
        s = col[j] + r
        if not s > 0:
            raise EstimationFault("innovation covariance is not positive definite")
        nu = wrap_angle(z - mean[2]) if j == 2 else z - mean[j]
        g = nu / s
        mean = [m + ci * g for m, ci in zip(mean, col)]
        prior, p = p, [pn - col[i] * col[k] / s
                       for pn, i, k in zip(p, _UPPER_ROW, _UPPER_COL)]
        for n in _COLUMN[j]:
            p[n] = prior[n] * (r / s)
    mean[2] = wrap_angle(mean[2])
    return EkfBelief(np.array(mean), np.array(p)[_SLOT], meas.t_ms)


class SlipDetector:
    """Debounced wheel/flow disagreement vote over a sliding window."""

    def __init__(self, cfg: EkfConfig):
        self.threshold = cfg.slip_threshold
        self.window = cfg.slip_window
        self._votes: deque[bool] = deque(maxlen=cfg.slip_window)

    def update(self, meas: VelocityMeasurement) -> bool:
        self._votes.append(abs(meas.v_wheel - meas.v_flow) > self.threshold)
        return 2 * sum(self._votes) > self.window


class StreamingEstimator:
    """Pose estimate folded in one report at a time, in arrival order.

    Each report is differenced against the newest processed one; a report
    that does not postdate it is counted in stale_skipped and ignored.
    With source None the EKF fuses every channel: adaptive=False keeps the
    slip detector voting but never inflates anything (the fixed-trust
    baseline), and fixed_dt_s hardwires the prediction interval no matter
    what the report timestamps say, the naive constant-cadence assumption
    this design argues against.  With source "wheels" or "flow" the pose is
    dead-reckoned from that one velocity source and carries zero
    covariance.
    """

    def __init__(self, start: Posture, geometry: RobotGeometry,
                 cfg: EkfConfig | None = None, adaptive: bool = True,
                 fixed_dt_s: float | None = None, source: str | None = None):
        if source not in (None, "wheels", "flow"):
            raise ValueError(f"unknown dead-reckoning source {source!r}")
        self.geometry = geometry
        self.cfg = cfg
        self.adaptive = adaptive
        self.fixed_dt_s = fixed_dt_s
        self.source = source
        if source is None:
            self.belief = initial_belief(start)
            self._detector = SlipDetector(cfg)
        else:
            self.belief = EkfBelief(
                np.array([start.x, start.y, start.theta, 0.0, 0.0]),
                np.zeros((STATE_DIM, STATE_DIM)), 0.0)
        self.slip = False
        self.stale_skipped = 0
        # Odometry counters start at zero, so the first report is
        # differenced against a virtual report at time zero.
        self._prev = SensorPacket(
            robot_id=0, t_sent=0, ticks_left=0, ticks_right=0,
            flow_dx_left=0.0, flow_dx_right=0.0, gyro_heading=0.0)

    def push(self, packet: SensorPacket) -> EkfBelief | None:
        """Fold one report in; None when it is stale."""
        try:
            meas = measurement_from_packets(self._prev, packet, self.geometry)
        except StaleData:
            self.stale_skipped += 1
            return None
        self._prev = packet
        if self.source is None:
            self.slip = self._detector.update(meas)
            belief = ekf_predict(self.belief, self.fixed_dt_s or meas.dt,
                                 self.cfg)
            self.belief = ekf_update(belief, meas, self.cfg,
                                     self.slip and self.adaptive)
        else:
            if self.source == "wheels":
                twist = Twist(meas.v_wheel, meas.w_wheel)
            else:
                twist = Twist(meas.v_flow, meas.w_flow)
            pose = integrate_unicycle(self.belief.pose, twist, meas.dt)
            self.belief = EkfBelief(
                np.array([pose.x, pose.y, pose.theta, twist.v, twist.w]),
                self.belief.cov, meas.t_ms)
        return self.belief


@dataclass
class EstimationRun:
    """Belief trajectory of one estimator over a report stream."""

    times_ms: list[float] = field(default_factory=list)
    means: list[np.ndarray] = field(default_factory=list)
    slip_flags: list[bool] = field(default_factory=list)
    stale_skipped: int = 0


def _collect(est: StreamingEstimator, packets: list[SensorPacket]) -> EstimationRun:
    run = EstimationRun()
    for packet in packets:
        belief = est.push(packet)
        if belief is None:
            continue
        run.times_ms.append(float(packet.t_sent))
        run.means.append(belief.mean.copy())
        run.slip_flags.append(est.slip)
    run.stale_skipped = est.stale_skipped
    return run


def run_estimator(packets: list[SensorPacket], start: Posture,
                  geometry: RobotGeometry, cfg: EkfConfig,
                  adaptive: bool = True,
                  fixed_dt_s: float | None = None) -> EstimationRun:
    """Run the filter over reports in arrival order (see StreamingEstimator)."""
    return _collect(StreamingEstimator(start, geometry, cfg, adaptive,
                                       fixed_dt_s), packets)


def dead_reckon(packets: list[SensorPacket], start: Posture,
                geometry: RobotGeometry, source: str) -> EstimationRun:
    """Open-loop integration of one velocity source, same staleness rules."""
    return _collect(StreamingEstimator(start, geometry, source=source),
                    packets)
