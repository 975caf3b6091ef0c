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
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .comms import FLOW_WRAP_MM, SensorPacket, wrap_i16
from .core import (Posture, RobotGeometry, Twist, integrate_unicycle, unicycle_path,
                   wrap_angle)
from .sim import ENCODER_HZ, FLOW_HZ, Rates

STATE_DIM = 5
# The filter keeps the covariance as its upper triangle, row by row:
# (P00, P01, P02, P03, P04, P11, P12, P13, P14, P22, P23, P24, P33, P34, P44).


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


class EkfBelief(NamedTuple):
    """Gaussian state estimate stamped with its report time.

    Both parts are Python floats: mean is (x, y, theta, v, omega) and tri
    the 15-entry upper triangle of the covariance, row by row.
    """

    mean: tuple[float, ...]
    tri: tuple[float, ...]
    t_ms: float

    @property
    def pose(self) -> Posture:
        return Posture(*self.mean[:3])


def initial_belief(pose: Posture) -> EkfBelief:
    mean = (float(pose.x), float(pose.y), float(pose.theta), 0.0, 0.0)
    return EkfBelief(mean, (1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0,
                            1e-4, 0.0, 0.0, 100.0, 0.0, 0.1), 0.0)


class VelocityMeasurement(NamedTuple):
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
    1979, ch. 7).  Only the upper triangle is computed.
    """
    if dt <= 0:
        raise ValueError("prediction interval must be positive")
    x, y, theta, v, w = belief.mean
    cos, sin = math.cos(theta), math.sin(theta)
    mean = (x + v * dt * cos, y + v * dt * sin, wrap_angle(theta + w * dt), v, w)
    # Nonzero off-diagonal entries of F: rows 0 and 1 at columns 2 and 3.
    a, b, c, d = -v * dt * sin, dt * cos, v * dt * cos, dt * sin
    p00, p01, p02, p03, p04, p11, p12, p13, p14, p22, p23, p24, p33, p34, p44 = belief.tri
    # The entries of rows 0-2 of F P that the product reads; rows 3 and 4
    # are those of P.
    f00, f01 = p00 + a * p02 + b * p03, p01 + a * p12 + b * p13
    f02, f03 = p02 + a * p22 + b * p23, p03 + a * p23 + b * p33
    f04 = p04 + a * p24 + b * p34
    f11, f12 = p11 + c * p12 + d * p13, p12 + c * p22 + d * p23
    f13, f14 = p13 + c * p23 + d * p33, p14 + c * p24 + d * p34
    f22, f23, f24 = p22 + dt * p24, p23 + dt * p34, p24 + dt * p44
    q0, q1, q2, q3, q4 = cfg.q_diag
    # The upper triangle of (F P) F^T + Q dt.
    tri = (f00 + a * f02 + b * f03 + q0 * dt, f01 + c * f02 + d * f03,
           f02 + dt * f04, f03, f04,
           f11 + c * f12 + d * f13 + q1 * dt, f12 + dt * f14, f13, f14,
           f22 + dt * f24 + q2 * dt, f23, f24,
           p33 + q3 * dt, p34,
           p44 + q4 * dt)
    return EkfBelief(mean, tri, belief.t_ms + dt * 1e3)


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
    is stored, so the covariance is exactly symmetric.

    The five scalar updates are written out on the state held in locals:
    the heading (j = 2), then the speed (j = 3) and turn rate (j = 4) of
    the wheels and then of the flow sensors.  In each, c is the prior
    column j of P; row j of the posterior is c r / s, and every entry off
    it is P[a][b] - c[a] c[b] / s.
    """
    r_vw, r_ww, r_vf, r_wf, r_heading = cfg.r_base
    if slip:
        r_vw *= cfg.slip_inflation
        r_ww *= cfg.slip_inflation
    m0, m1, m2, m3, m4 = belief.mean
    p00, p01, p02, p03, p04, p11, p12, p13, p14, p22, p23, p24, p33, p34, p44 = belief.tri
    # The heading measures state 2; its innovation is wrapped.
    c0, c1, c2, c3, c4 = p02, p12, p22, p23, p24
    s = c2 + r_heading
    if not s > 0:
        raise EstimationFault("innovation covariance is not positive definite")
    g = wrap_angle(meas.heading - m2) / s
    m0 += c0 * g
    m1 += c1 * g
    m2 += c2 * g
    m3 += c3 * g
    m4 += c4 * g
    rs = r_heading / s
    p00 -= c0 * c0 / s
    p01 -= c0 * c1 / s
    p02 = c0 * rs
    p03 -= c0 * c3 / s
    p04 -= c0 * c4 / s
    p11 -= c1 * c1 / s
    p12 = c1 * rs
    p13 -= c1 * c3 / s
    p14 -= c1 * c4 / s
    p22 = c2 * rs
    p23 = c3 * rs
    p24 = c4 * rs
    p33 -= c3 * c3 / s
    p34 -= c3 * c4 / s
    p44 -= c4 * c4 / s
    for z_v, r_v, z_w, r_w in ((meas.v_wheel, r_vw, meas.w_wheel, r_ww),
                               (meas.v_flow, r_vf, meas.w_flow, r_wf)):
        # The speed z_v measures state 3.
        c0, c1, c2, c3, c4 = p03, p13, p23, p33, p34
        s = c3 + r_v
        if not s > 0:
            raise EstimationFault("innovation covariance is not positive definite")
        g = (z_v - m3) / s
        m0 += c0 * g
        m1 += c1 * g
        m2 += c2 * g
        m3 += c3 * g
        m4 += c4 * g
        rs = r_v / s
        p00 -= c0 * c0 / s
        p01 -= c0 * c1 / s
        p02 -= c0 * c2 / s
        p03 = c0 * rs
        p04 -= c0 * c4 / s
        p11 -= c1 * c1 / s
        p12 -= c1 * c2 / s
        p13 = c1 * rs
        p14 -= c1 * c4 / s
        p22 -= c2 * c2 / s
        p23 = c2 * rs
        p24 -= c2 * c4 / s
        p33 = c3 * rs
        p34 = c4 * rs
        p44 -= c4 * c4 / s
        # The turn rate z_w measures state 4.
        c0, c1, c2, c3, c4 = p04, p14, p24, p34, p44
        s = c4 + r_w
        if not s > 0:
            raise EstimationFault("innovation covariance is not positive definite")
        g = (z_w - m4) / s
        m0 += c0 * g
        m1 += c1 * g
        m2 += c2 * g
        m3 += c3 * g
        m4 += c4 * g
        rs = r_w / s
        p00 -= c0 * c0 / s
        p01 -= c0 * c1 / s
        p02 -= c0 * c2 / s
        p03 -= c0 * c3 / s
        p04 = c0 * rs
        p11 -= c1 * c1 / s
        p12 -= c1 * c2 / s
        p13 -= c1 * c3 / s
        p14 = c1 * rs
        p22 -= c2 * c2 / s
        p23 -= c2 * c3 / s
        p24 = c2 * rs
        p33 -= c3 * c3 / s
        p34 = c3 * rs
        p44 = c4 * rs
    return EkfBelief((m0, m1, wrap_angle(m2), m3, m4),
                     (p00, p01, p02, p03, p04, p11, p12, p13, p14, p22, p23, p24,
                      p33, p34, p44), meas.t_ms)


class SlipDetector:
    """Debounced wheel/flow disagreement vote over a sliding window."""

    def __init__(self, cfg: EkfConfig):
        self.threshold = cfg.slip_threshold
        self.window = cfg.slip_window
        self._votes: deque[bool] = deque(maxlen=cfg.slip_window)

    def update(self, meas: VelocityMeasurement) -> bool:
        self._votes.append(abs(meas.v_wheel - meas.v_flow) > self.threshold)
        return 2 * sum(self._votes) > self.window


class ReportConverter:
    """Turns reports, in arrival order, into measurements.

    Each report is differenced against the newest processed one; a report
    that does not postdate it is counted in stale_skipped and yields None.
    Each measurement also casts a vote in a SlipDetector, and slip holds
    the detector's latest verdict.
    """

    def __init__(self, geometry: RobotGeometry, cfg: EkfConfig):
        self.geometry = geometry
        self._detector = SlipDetector(cfg)
        self.slip = False
        self.stale_skipped = 0
        # Odometry counters start at zero, so the first report is
        # differenced against a virtual report at time zero.
        self._prev = SensorPacket(
            robot_id=0, t_sent=0, ticks_left=0, ticks_right=0,
            flow_dx_left=0.0, flow_dx_right=0.0, gyro_heading=0.0)

    def convert(self, packet: SensorPacket) -> VelocityMeasurement | None:
        try:
            meas = measurement_from_packets(self._prev, packet, self.geometry)
        except StaleData:
            self.stale_skipped += 1
            return None
        self._prev = packet
        self.slip = self._detector.update(meas)
        return meas


@dataclass
class ConvertedReports:
    """A report stream converted once, for any number of estimators: the
    measurement and slip verdict of each processed report, in order."""

    measurements: list[VelocityMeasurement] = field(default_factory=list)
    slip_flags: list[bool] = field(default_factory=list)
    stale_skipped: int = 0


def convert_reports(packets: list[SensorPacket], geometry: RobotGeometry,
                    cfg: EkfConfig) -> ConvertedReports:
    """Convert reports in arrival order (see ReportConverter)."""
    converter = ReportConverter(geometry, cfg)
    out = ConvertedReports()
    for packet in packets:
        meas = converter.convert(packet)
        if meas is not None:
            out.measurements.append(meas)
            out.slip_flags.append(converter.slip)
    out.stale_skipped = converter.stale_skipped
    return out


def filter_step(belief: EkfBelief, meas: VelocityMeasurement, slip: bool,
                cfg: EkfConfig, adaptive: bool = True,
                fixed_dt_s: float | None = None) -> EkfBelief:
    """Fold one measurement into the belief: predict, then update.

    adaptive=False never inflates the wheel channels (the fixed-trust
    baseline); fixed_dt_s hardwires the prediction interval no matter what
    the report timestamps say, the naive constant-cadence assumption this
    design argues against.
    """
    belief = ekf_predict(belief, fixed_dt_s or meas.dt, cfg)
    return ekf_update(belief, meas, cfg, slip and adaptive)


def run_estimator(reports: ConvertedReports, start: Posture, cfg: EkfConfig,
                  adaptive: bool = True,
                  fixed_dt_s: float | None = None) -> list[tuple[float, ...]]:
    """The filter's mean after each converted report (see filter_step)."""
    return run_estimators(reports, start, cfg, [(adaptive, fixed_dt_s)])[0]


def run_estimators(reports: ConvertedReports, start: Posture, cfg: EkfConfig,
                   settings: Sequence[tuple[bool, float | None]]
                   ) -> list[list[tuple[float, ...]]]:
    """run_estimator under each (adaptive, fixed_dt_s) setting, folded in
    lockstep report by report; a repeated setting gets the same list.
    Settings that hold one belief object and take the same step (fixed_dt_s
    or meas.dt, and the wheel inflation slip and adaptive) share one
    filter_step and so keep one object; once split they never merge again."""
    outs = {setting: [] for setting in settings}
    beliefs = dict.fromkeys(outs, initial_belief(start))
    for meas, slip in zip(reports.measurements, reports.slip_flags):
        steps: dict[tuple, EkfBelief] = {}
        # The snapshot keeps every keyed belief alive, so no id is reused.
        for (adaptive, fixed_dt_s), belief in list(beliefs.items()):
            key = (id(belief), fixed_dt_s or meas.dt, slip and adaptive)
            if key not in steps:
                steps[key] = filter_step(belief, meas, slip, cfg, adaptive, fixed_dt_s)
            beliefs[adaptive, fixed_dt_s] = steps[key]
            outs[adaptive, fixed_dt_s].append(steps[key].mean)
    return [outs[setting] for setting in settings]


def dead_reckon(reports: ConvertedReports, start: Posture,
                source: str) -> list[tuple[float, ...]]:
    """Open-loop integration of the "wheels" or "flow" velocities alone:
    (x, y, theta, v, omega) after each converted report.

    The stream is integrated as arrays by unicycle_path, one
    integrate_unicycle step per report.  The first step that
    integrate_unicycle rejects (a non-finite twist or dt, a negative dt,
    or a pose beyond the floats) is run by it, so it raises that error.
    """
    if source not in ("wheels", "flow"):
        raise ValueError(f"unknown dead-reckoning source {source!r}")
    measurements = reports.measurements
    size = len(measurements)
    col_v, col_w = (1, 2) if source == "wheels" else (3, 4)
    dt, v, w = (np.fromiter(map(itemgetter(col), measurements), float, size)
                for col in (0, col_v, col_w))
    with np.errstate(all="ignore"):
        swept = w * dt
        # The steps before the first with a non-finite v or turn (which a
        # non-finite w or dt makes), or a negative dt.
        valid = np.isfinite(v) & np.isfinite(swept) & (dt >= 0.0)
        steps = size if valid.all() else int(np.argmin(valid))
        x, y, theta = unicycle_path(start, v[:steps] * dt[:steps], swept[:steps])
    finite = np.isfinite(x) & np.isfinite(y)
    if not finite.all():
        steps = int(np.argmin(finite)) - 1
    if steps < size:
        meas = measurements[steps]
        integrate_unicycle(Posture(x.item(steps), y.item(steps), theta.item(steps)),
                           Twist(meas[col_v], meas[col_w]), meas.dt)
    return list(zip(x[1:].tolist(), y[1:].tolist(), theta[1:].tolist(),
                    v.tolist(), w.tolist()))
