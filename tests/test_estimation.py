from __future__ import annotations

import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swarmsim import estimation
from swarmsim.comms import SensorPacket
from swarmsim.core import Posture, RobotGeometry, Twist, integrate_unicycle, wrap_angle
from swarmsim.estimation import (
    EkfBelief,
    EkfConfig,
    EstimationFault,
    ReportConverter,
    SlipDetector,
    StaleData,
    VelocityMeasurement,
    convert_reports,
    dead_reckon,
    ekf_predict,
    ekf_update,
    filter_step,
    initial_belief,
    measurement_from_packets,
    run_estimator,
    run_estimators,
)
from swarmsim.cli.runner import simulate_reports
from swarmsim.cli.scenario import load_scenario
from swarmsim.sim import SensorNoise

GEOM = RobotGeometry()
CFG = EkfConfig()


def packet(t_sent, ticks=(0, 0), flow=(0.0, 0.0), heading=0.0, robot_id=0):
    return SensorPacket(
        robot_id=robot_id, t_sent=t_sent,
        ticks_left=ticks[0], ticks_right=ticks[1],
        flow_dx_left=flow[0], flow_dx_right=flow[1],
        gyro_heading=heading,
    )


def meas(dt=0.07, v_wheel=0.0, w_wheel=0.0, v_flow=0.0, w_flow=0.0,
         heading=0.0, t_ms=70.0):
    return VelocityMeasurement(dt, v_wheel, w_wheel, v_flow, w_flow, heading, t_ms)


# A belief keeps the covariance as its upper triangle, row by row: entry n
# is (_ROW[n], _COL[n]), and _SLOT[i][k] is the entry holding (i, k) or
# (k, i), so indexing the triangle with _SLOT mirrors it back.
_ROW, _COL = np.triu_indices(5)
_SLOT = np.zeros((5, 5), dtype=int)
_SLOT[_ROW, _COL] = _SLOT[_COL, _ROW] = range(len(_ROW))


def full_cov(belief):
    """The full, exactly symmetric 5x5 covariance of a belief."""
    return np.array(belief.tri)[_SLOT]


def matrix_belief(mean, cov, t_ms=0.0):
    """The belief with this mean and the upper triangle of this matrix."""
    return EkfBelief(tuple(np.asarray(mean, dtype=float).tolist()),
                     tuple(np.asarray(cov, dtype=float)[np.triu_indices(5)].tolist()),
                     t_ms)


# --- measurement conversion ---------------------------------------------------


def test_conversion_example():
    m = measurement_from_packets(
        packet(0), packet(70, ticks=(28, 28), flow=(0.7, 0.7), heading=0.01), GEOM
    )
    assert m.dt == pytest.approx(0.07)
    assert m.v_wheel == pytest.approx(200.0)     # 14 mm per wheel over 70 ms
    assert m.w_wheel == 0.0
    assert m.v_flow == pytest.approx(10.0)
    assert m.w_flow == pytest.approx(0.0, abs=1e-9)
    assert m.heading == pytest.approx(0.01)


def test_conversion_turn():
    # Right wheel faster: counterclockwise.
    m = measurement_from_packets(packet(0), packet(70, ticks=(10, 20)), GEOM)
    assert m.v_wheel == pytest.approx(15 * 0.5 / 0.07)
    assert m.w_wheel == pytest.approx((20 - 10) * 0.5 / (100.0 * 0.07))
    assert m.w_wheel > 0


def test_stale_report_rejected():
    with pytest.raises(StaleData):
        measurement_from_packets(packet(140), packet(140), GEOM)
    with pytest.raises(StaleData):
        measurement_from_packets(packet(140), packet(70), GEOM)


def _jittered_straight_packets(n=200, speed=150.0, seed=5):
    # Noiseless straight run reported at irregular 50-100 ms intervals.
    rng = np.random.default_rng(seed)
    out, truth = [], {}
    t_ms = 0
    for _ in range(n):
        t_ms += int(rng.integers(50, 101))
        mm = speed * t_ms / 1e3
        out.append(packet(t_ms, ticks=(round(mm / GEOM.mm_per_tick),) * 2,
                          flow=(round(mm / 0.1) * 0.1,) * 2))
        truth[t_ms] = mm
    return out, truth


def test_fixed_filter_step_depreciates_on_jittered_stream():
    # A filter that always predicts 70 ms ahead accrues position error
    # proportional to the timing jitter; the timestamp-driven filter does not.
    pkts, truth = _jittered_straight_packets()
    start = Posture(0, 0, 0)
    reports = convert_reports(pkts, GEOM, CFG)
    ts = run_estimator(reports, start, CFG)
    fx = run_estimator(reports, start, CFG, fixed_dt_s=0.07)

    def rmse(means):
        errs = [math.hypot(m[0] - truth[int(z.t_ms)], m[1])
                for z, m in zip(reports.measurements, means)]
        return math.sqrt(sum(e * e for e in errs) / len(errs))

    assert rmse(fx) >= 2.0 * rmse(ts)


def test_conversion_spans_a_lost_report():
    # Counters are free-running: differencing across a 140 ms gap (one lost
    # frame) recovers the average velocity over the whole gap.
    m = measurement_from_packets(
        packet(70, ticks=(28, 28), flow=(14.0, 14.0)),
        packet(210, ticks=(84, 84), flow=(42.0, 42.0)), GEOM)
    assert m.dt == pytest.approx(0.14)
    assert m.v_wheel == pytest.approx(200.0)
    assert m.v_flow == pytest.approx(200.0)


def test_conversion_handles_counter_wrap():
    # 16 ticks and 0.1 mm of flow of true motion across the i16 wrap point.
    m = measurement_from_packets(
        packet(0, ticks=(32760, 32760), flow=(3276.7, 3276.7)),
        packet(70, ticks=(-32760, -32760), flow=(-3276.8, -3276.8)), GEOM)
    assert m.v_wheel == pytest.approx(16 * 0.5 / 0.07)
    assert m.v_flow == pytest.approx(0.1 / 0.07)


# --- prediction ----------------------------------------------------------------


def test_predict_stationary_grows_by_process_noise():
    belief = matrix_belief(np.zeros(5), np.zeros((5, 5)))
    out = ekf_predict(belief, 0.1, CFG)
    assert np.allclose(out.mean, 0.0)
    assert np.allclose(full_cov(out), np.diag(CFG.q_diag) * 0.1)
    assert out.t_ms == pytest.approx(100.0)


def test_predict_straight_motion():
    mean = np.array([0.0, 0.0, 0.0, 100.0, 0.0])
    belief = matrix_belief(mean, np.eye(5))
    out = ekf_predict(belief, 0.07, CFG)
    assert out.mean[0] == pytest.approx(7.0)
    assert out.mean[1] == pytest.approx(0.0)


def test_predict_wraps_heading():
    mean = np.array([0.0, 0.0, 3.1, 0.0, 1.0])
    out = ekf_predict(matrix_belief(mean, np.eye(5)), 0.1, CFG)
    assert out.mean[2] == pytest.approx(wrap_angle(3.2))
    assert out.mean[2] <= math.pi


def test_predict_requires_positive_dt():
    with pytest.raises(ValueError):
        ekf_predict(initial_belief(Posture(0, 0, 0)), 0.0, CFG)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(0)
    h = 1e-4

    def propagate(mean, dt):
        x, y, theta, v, w = mean
        return np.array([
            x + v * dt * math.cos(theta),
            y + v * dt * math.sin(theta),
            theta + w * dt,          # unwrapped on purpose for differencing
            v,
            w,
        ])

    for _ in range(100):
        mean = np.array([
            rng.uniform(-1000, 1000), rng.uniform(-1000, 1000),
            rng.uniform(-3, 3), rng.uniform(-180, 180), rng.uniform(-3, 3),
        ])
        dt = rng.uniform(0.01, 0.2)
        analytic = transition_jacobian(mean, dt)
        numeric = np.zeros((5, 5))
        for j in range(5):
            dv = np.zeros(5)
            dv[j] = h
            numeric[:, j] = (propagate(mean + dv, dt) - propagate(mean - dv, dt)) / (2 * h)
        assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-6)


# --- update ----------------------------------------------------------------------


def test_update_zero_innovation_keeps_mean():
    mean = np.array([5.0, -3.0, 0.5, 120.0, 0.4])
    belief = matrix_belief(mean, np.eye(5) * 10.0)
    z = meas(v_wheel=120.0, w_wheel=0.4, v_flow=120.0, w_flow=0.4, heading=0.5)
    out = ekf_update(belief, z, CFG, slip=False)
    assert np.allclose(out.mean, mean, atol=1e-9)
    assert np.trace(full_cov(out)) < np.trace(full_cov(belief))


def test_update_wrapped_heading_innovation():
    # Belief just below +pi, measurement just above -pi: the short way round
    # crosses the branch cut.
    mean = np.array([0.0, 0.0, 3.1, 0.0, 0.0])
    belief = matrix_belief(mean, np.diag([1, 1, 0.1, 1, 1]).astype(float))
    out = ekf_update(belief, meas(heading=-3.1), CFG, slip=False)
    assert abs(out.mean[2]) > 3.1   # moved toward pi, not through zero


def test_update_slip_posterior_tracks_flow():
    # Wheels claim 200 mm/s, flow says standing still, slip confirmed:
    # the fused speed must land within 1% of the disagreement from flow.
    prior_var = 25.0
    belief = matrix_belief(np.zeros(5), np.diag([1, 1, 1e-4, prior_var, 0.01]))
    z = meas(v_wheel=200.0, v_flow=0.0)
    out = ekf_update(belief, z, CFG, slip=True)

    # Independent scalar fusion of the v channel (diagonal prior, so the
    # Kalman update reduces to precision-weighted averaging).
    r_wheel = CFG.r_base[0] * CFG.slip_inflation
    r_flow = CFG.r_base[2]
    precision = 1 / prior_var + 1 / r_wheel + 1 / r_flow
    expected_v = (200.0 / r_wheel + 0.0 / r_flow + 0.0 / prior_var) / precision
    assert out.mean[3] == pytest.approx(expected_v, abs=1e-9)
    assert abs(out.mean[3]) < 2.0


def test_update_without_slip_splits_disagreement():
    belief = matrix_belief(np.zeros(5), np.diag([1, 1, 1e-4, 1e6, 0.01]))
    z = meas(v_wheel=200.0, v_flow=0.0)
    out = ekf_update(belief, z, CFG, slip=False)
    # Default trust is balanced, so the fused speed sits near the middle.
    assert 60.0 < out.mean[3] < 140.0


def test_update_singular_innovation_faults():
    cfg = EkfConfig(r_base=(0.0,) * 5)
    belief = matrix_belief(np.zeros(5), np.zeros((5, 5)))
    with pytest.raises(EstimationFault):
        ekf_update(belief, meas(), cfg, slip=False)


def test_covariance_stays_symmetric_psd():
    rng = np.random.default_rng(1)
    belief = initial_belief(Posture(0, 0, 0))
    for i in range(10_000):
        dt = rng.uniform(0.01, 0.2)
        belief = ekf_predict(belief, dt, CFG)
        z = meas(
            dt=dt,
            v_wheel=rng.uniform(-180, 180), w_wheel=rng.uniform(-3, 3),
            v_flow=rng.uniform(-180, 180), w_flow=rng.uniform(-3, 3),
            heading=rng.uniform(-3.1, 3.1), t_ms=belief.t_ms,
        )
        belief = ekf_update(belief, z, CFG, slip=bool(rng.integers(2)))
        cov = full_cov(belief)
        assert np.allclose(cov, cov.T, atol=1e-9)
        min_eig = np.linalg.eigvalsh(cov).min()
        assert min_eig > -1e-9


# --- oracle: the textbook matrix forms ------------------------------------------

# Agreement bound of the closed-form filter with the textbook products,
# fixed before the closed form replaced them.
ORACLE_TOL = dict(rtol=1e-9, atol=1e-9)

# Measurement rows (v_wheel, w_wheel, v_flow, w_flow, heading) of the batch form.
H = np.array([
    [0.0, 0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, 1.0, 0.0, 0.0],
])


def transition_jacobian(mean, dt):
    """F of the constant-velocity unicycle prediction, which ekf_predict
    writes out in closed form."""
    theta, v = mean[2], mean[3]
    f = np.eye(5)
    f[0, 2] = -v * dt * math.sin(theta)
    f[0, 3] = dt * math.cos(theta)
    f[1, 2] = v * dt * math.cos(theta)
    f[1, 3] = dt * math.sin(theta)
    f[2, 4] = dt
    return f


def textbook_r(cfg, slip):
    r = np.array(cfg.r_base, dtype=float)
    if slip:
        r[:2] *= cfg.slip_inflation
    return np.diag(r)


def textbook_s(cov, cfg, slip):
    return H @ cov @ H.T + textbook_r(cfg, slip)


def exact(a):
    return np.vectorize(Fraction, otypes=[object])(np.asarray(a, dtype=float))


def exact_solve(a, b):
    """a^-1 b by Gauss-Jordan elimination over the rationals."""
    m = np.concatenate([a, b], axis=1)
    for c in range(len(a)):
        pivot = next(i for i in range(c, len(a)) if m[i, c] != 0)
        m[[c, pivot]] = m[[pivot, c]]
        m[c] = m[c] / m[c, c]
        for i in range(len(a)):
            if i != c:
                m[i] = m[i] - m[i, c] * m[c]
    return m[:, len(a):]


def textbook_update(belief, z, cfg, slip):
    """Batch EKF update with the Joseph-form covariance.

    Evaluated in exact rational arithmetic from the float inputs: with both
    v channels (or both w channels) precise, S is nearly singular, and a
    float inverse of it alone can miss the exact update by more than
    ORACLE_TOL.
    """
    h, cov, r = exact(H), exact(full_cov(belief)), exact(textbook_r(cfg, slip))
    s = h @ cov @ h.T + r
    gain = exact_solve(s, h @ cov).T  # S and P are symmetric
    innovation = (exact([z.v_wheel, z.w_wheel, z.v_flow, z.w_flow, z.heading])
                  - h @ exact(belief.mean))
    innovation[4] = Fraction(wrap_angle(z.heading - belief.mean[2]))
    mean = (exact(belief.mean) + gain @ innovation).astype(float)
    mean[2] = wrap_angle(mean[2])
    ikh = exact(np.eye(5)) - gain @ h
    return mean, (ikh @ cov @ ikh.T + gain @ r @ gain.T).astype(float)


def spd(log_scales, lower, zero_rows=()):
    """D L L^T D for a unit lower-triangular L, with some rows zeroed."""
    l = np.zeros((5, 5))
    l[np.tril_indices(5, -1)] = lower
    l[np.diag_indices(5)] = 1.0
    d = np.diag(10.0 ** np.asarray(log_scales))
    cov = d @ l @ l.T @ d
    for i in zero_rows:
        cov[i, :] = cov[:, i] = 0.0
    return cov


log_scales = st.lists(st.floats(-2, 2), min_size=5, max_size=5)
lowers = st.lists(st.floats(-1, 1), min_size=10, max_size=10)
noise_logs = st.lists(st.floats(-4, 2), min_size=5, max_size=5)
# Headings anywhere, and crowded on both sides of the +-pi branch cut.
headings = st.one_of(st.floats(-math.pi, math.pi),
                     st.floats(math.pi - 0.3, math.pi),
                     st.floats(-math.pi, -math.pi + 0.3))


def assert_means_match(a, b):
    assert -math.pi < a[2] <= math.pi
    assert abs(wrap_angle(a[2] - b[2])) <= 1e-9
    a, b = np.delete(a, 2), np.delete(b, 2)
    np.testing.assert_allclose(a, b, **ORACLE_TOL)


# Precise wheel and flow v channels, so S has a condition number near 4e8.
@example(scales=[0.0, 0.0, 0.0, 0.0, 2.0], lower=[0.0] * 9 + [1.0],
         q_logs=[0.0] * 5, r_logs=[-4.0, 0.0, -4.0, 0.0, 0.0], theta=0.0,
         heading_offset=0.0, speeds=[69.0, 0.0, 0.0, 0.0], dt=0.25, slip=False)
@example(scales=[0.0, 0.0, 0.0, 0.0, 2.0], lower=[0.0] * 9 + [1.0],
         q_logs=[0.0] * 5, r_logs=[-4.0, 0.0, -3.0, 0.0, 0.0], theta=0.0,
         heading_offset=0.0, speeds=[28.0, 0.0, 0.0, 1.0], dt=0.25, slip=False)
# A precise wheel v channel against a wide v prior: P[3][3] - P[3][3]^2 / s
# cancels to 1e-8 relative error in the scalar update.
@example(scales=[0.0, 0.0, 0.0, 2.0, 0.0], lower=[0.0] * 10,
         q_logs=[0.0] * 5, r_logs=[-4.0, 0.0, -2.0, 0.0, 0.0], theta=0.0,
         heading_offset=0.0, speeds=[0.0, 0.0, 0.0, 0.0], dt=0.25, slip=False)
@settings(max_examples=300, deadline=None)
@given(log_scales, lowers, noise_logs, noise_logs, headings,
       st.floats(-0.5, 0.5), st.lists(st.floats(-200, 200), min_size=4, max_size=4),
       st.floats(0.001, 0.3), st.booleans())
def test_ekf_matches_textbook_matrix_forms(scales, lower, q_logs, r_logs, theta,
                                           heading_offset, speeds, dt, slip):
    cfg = EkfConfig(q_diag=tuple(10.0 ** np.asarray(q_logs)),
                    r_base=tuple(10.0 ** np.asarray(r_logs)))
    v, w = speeds[0], speeds[1] / 100.0
    belief = matrix_belief(np.array([12.0, -40.0, theta, v, w]),
                           spd(scales, lower))

    predicted = ekf_predict(belief, dt, cfg)
    f = transition_jacobian(belief.mean, dt)
    assert_means_match(predicted.mean, np.array([
        12.0 + v * dt * math.cos(theta), -40.0 + v * dt * math.sin(theta),
        wrap_angle(theta + w * dt), v, w]))
    np.testing.assert_allclose(
        full_cov(predicted), f @ full_cov(belief) @ f.T + np.diag(cfg.q_diag) * dt,
        **ORACLE_TOL)

    z = meas(dt=dt, v_wheel=speeds[2], w_wheel=speeds[3] / 100.0,
             v_flow=speeds[2] - 30.0, w_flow=speeds[3] / 90.0,
             heading=wrap_angle(predicted.mean[2] + heading_offset))
    updated = ekf_update(predicted, z, cfg, slip)
    mean, cov = textbook_update(predicted, z, cfg, slip)
    assert_means_match(updated.mean, mean)
    np.testing.assert_allclose(full_cov(updated), cov, **ORACLE_TOL)
    np.testing.assert_array_equal(full_cov(updated), full_cov(updated).T)
    assert updated.t_ms == z.t_ms


def cholesky_fails(s):
    try:
        np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return True
    return False


# Zero prior rows and zero-variance channels, including a state whose row
# is zero while only one of its two channels has variance 0.
@example(scales=[0.0] * 5, lower=[0.0] * 10, zero_rows=[3], zero_channels=[2],
         slip=False)
@example(scales=[0.0] * 5, lower=[0.0] * 10, zero_rows=[4], zero_channels=[1],
         slip=True)
@example(scales=[0.0] * 5, lower=[0.5] * 10, zero_rows=[2, 4],
         zero_channels=[0, 1, 4], slip=False)
@settings(max_examples=300, deadline=None)
@given(log_scales, lowers,
       st.lists(st.integers(0, 4), max_size=5, unique=True),
       st.lists(st.integers(0, 4), max_size=5, unique=True), st.booleans())
def test_update_faults_exactly_when_textbook_cholesky_fails(
        scales, lower, zero_rows, zero_channels, slip):
    # Channels (v_wheel, w_wheel, v_flow, w_flow, heading) measure states
    # (3, 4, 3, 4, 2).  When both channels of one state have variance 0 and
    # its prior row is not zero, S is singular but its last pivot is a
    # rounding residue of either sign in both factorizations, so such a
    # draw keeps the flow channel's variance.
    zero_channels = set(zero_channels)
    for wheel, flow, state in ((0, 2, 3), (1, 3, 4)):
        if {wheel, flow} <= zero_channels and state not in zero_rows:
            zero_channels.discard(flow)
    r = tuple(0.0 if c in zero_channels else 10.0 ** (c - 3) for c in range(5))
    cfg = EkfConfig(r_base=r)
    belief = matrix_belief(np.array([0.0, 0.0, 3.0, 50.0, 0.5]),
                           spd(scales, lower, zero_rows))
    z = meas(v_wheel=60.0, w_wheel=0.4, v_flow=40.0, w_flow=0.6, heading=-3.0)
    if cholesky_fails(textbook_s(full_cov(belief), cfg, slip)):
        with pytest.raises(EstimationFault):
            ekf_update(belief, z, cfg, slip)
    else:
        ekf_update(belief, z, cfg, slip)


# --- oracle: the filter on numpy arrays ------------------------------------------

# The closed-form filter as it was written on a numpy mean and a full
# covariance, looping over the upper triangle as a flat list: entry n is
# (_UPPER_ROW[n], _UPPER_COL[n]), at _UPPER[n] in the raveled matrix,
# indexing the list with _SLOT mirrors it back, and _COLUMN[j] lists
# column j.  The production filter does the same float operations in the
# same order, so it must match bit for bit.
_UPPER, _UPPER_ROW, _UPPER_COL = _ROW * 5 + _COL, _ROW.tolist(), _COL.tolist()
_COLUMN = _SLOT.tolist()


def reference_predict(mean, cov, dt, cfg):
    """(mean, cov) of ekf_predict, from and to numpy arrays."""
    if dt <= 0:
        raise ValueError("prediction interval must be positive")
    x, y, theta, v, w = mean.tolist()
    cos, sin = math.cos(theta), math.sin(theta)
    mean = np.array([x + v * dt * cos, y + v * dt * sin,
                     wrap_angle(theta + w * dt), v, w])
    a, b, c, d = -v * dt * sin, dt * cos, v * dt * cos, dt * sin
    p0, p1, p2, p3, p4 = cov.tolist()
    g0 = [i + a * k + b * m for i, k, m in zip(p0, p2, p3)]
    g1 = [j + c * k + d * m for j, k, m in zip(p1, p2, p3)]
    g2 = [k + dt * n for k, n in zip(p2, p4)]
    q0, q1, q2, q3, q4 = (q * dt for q in cfg.q_diag)
    cov = np.array([
        g0[0] + a * g0[2] + b * g0[3] + q0, g0[1] + c * g0[2] + d * g0[3],
        g0[2] + dt * g0[4], g0[3], g0[4],
        g1[1] + c * g1[2] + d * g1[3] + q1, g1[2] + dt * g1[4], g1[3], g1[4],
        g2[2] + dt * g2[4] + q2, g2[3], g2[4],
        p3[3] + q3, p3[4],
        p4[4] + q4,
    ])[_SLOT]
    return mean, cov


def reference_update(mean, cov, meas, cfg, slip):
    """(mean, cov) of ekf_update, from and to numpy arrays."""
    r_vw, r_ww, r_vf, r_wf, r_heading = cfg.r_base
    if slip:
        r_vw *= cfg.slip_inflation
        r_ww *= cfg.slip_inflation
    mean = mean.tolist()
    p = cov.ravel()[_UPPER].tolist()
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
    return np.array(mean), np.array(p)[_SLOT]


def outcome(step, *args):
    """What step returns, or the type of the filter error it raises."""
    try:
        return step(*args)
    except (EstimationFault, ValueError) as exc:
        return type(exc)


def hexes(values):
    return [float.hex(v) for v in np.ravel(values).tolist()]


# Positive definite triangles, with and without zero rows, and arbitrary
# ones, whose innovation pivots may be zero or negative.
triangles = st.one_of(
    st.builds(lambda scales, lower, zero_rows:
              spd(scales, lower, zero_rows)[np.triu_indices(5)].tolist(),
              log_scales, lowers,
              st.lists(st.integers(0, 4), max_size=5, unique=True)),
    st.lists(st.floats(-10, 10), min_size=15, max_size=15))
channels = st.lists(st.integers(0, 4), max_size=5, unique=True)


@example(tri=[0.0] * 15, q_logs=[0.0] * 5, r_logs=[0.0] * 5,
         zero_channels=[0, 1, 2, 3, 4], theta=0.0, speeds=[0.0] * 4, dt=0.07,
         heading=0.0, slip=False)
@settings(max_examples=300, deadline=None)
@given(tri=triangles, q_logs=noise_logs, r_logs=noise_logs, zero_channels=channels,
       theta=headings, speeds=st.lists(st.floats(-200, 200), min_size=4, max_size=4),
       dt=st.floats(0.001, 0.3), heading=headings, slip=st.booleans())
def test_ekf_matches_the_array_filter_bit_for_bit(tri, q_logs, r_logs, zero_channels,
                                                  theta, speeds, dt, heading, slip):
    r = [0.0 if c in zero_channels else 10.0 ** e for c, e in enumerate(r_logs)]
    cfg = EkfConfig(q_diag=tuple(10.0 ** np.asarray(q_logs)), r_base=tuple(r))
    v, w = speeds[0], speeds[1] / 100.0
    belief = EkfBelief((12.0, -40.0, theta, v, w), tuple(tri), 0.0)

    predicted = ekf_predict(belief, dt, cfg)
    mean, cov = reference_predict(np.array(belief.mean), full_cov(belief), dt, cfg)
    assert hexes(predicted.mean) == hexes(mean)
    assert hexes(full_cov(predicted)) == hexes(cov)

    z = meas(dt=dt, v_wheel=speeds[2], w_wheel=speeds[3] / 100.0,
             v_flow=speeds[2] - 30.0, w_flow=speeds[3] / 90.0, heading=heading)
    expected = outcome(reference_update, mean, cov, z, cfg, slip)
    updated = outcome(ekf_update, predicted, z, cfg, slip)
    if isinstance(expected, type):
        assert updated is expected
    else:
        assert hexes(updated.mean) == hexes(expected[0])
        assert hexes(full_cov(updated)) == hexes(expected[1])


def test_filter_state_stays_python_floats():
    # A numpy scalar in the state would reach the engine through the
    # estimator-fed controller, and the CSV writer through the means.
    def assert_floats(belief):
        state = (*belief.mean, *belief.tri, belief.t_ms)
        assert [type(f) for f in state] == [float] * len(state)

    start = Posture(0, 0, 0)
    belief = ekf_predict(initial_belief(start), 0.07, CFG)
    assert_floats(belief)
    assert_floats(ekf_update(belief, meas(v_wheel=120.0, w_wheel=0.3, v_flow=90.0,
                                          w_flow=0.2, heading=0.1), CFG, slip=True))
    reports = convert_reports(
        [packet(70, ticks=(28, 20), flow=(0.7, 0.6), heading=0.01)], GEOM, CFG)
    reckoned = dead_reckon(reports, start, "wheels")
    state = (*reckoned[-1], *(z.t_ms for z in reports.measurements))
    assert [type(f) for f in state] == [float] * len(state)


# --- slip detector ---------------------------------------------------------------


def test_detector_needs_majority():
    det = SlipDetector(CFG)
    slipping = meas(v_wheel=200.0, v_flow=0.0)
    clean = meas(v_wheel=100.0, v_flow=100.0)
    assert not det.update(slipping)          # 1 of window
    assert not det.update(slipping)          # 2 of window
    assert det.update(slipping)              # 3: majority reached
    assert det.update(clean)                 # still 3 of last 5
    assert det.update(clean)                 # 3 of [T T T F F]
    assert not det.update(clean)             # 2 of [T T F F F]: majority lost
    # Recovery is symmetric: three fresh slip readings re-arm it.
    assert not det.update(slipping)
    assert not det.update(slipping)
    assert det.update(slipping)


def test_detector_threshold_boundary():
    det = SlipDetector(CFG)
    at = meas(v_wheel=120.0, v_flow=100.0)     # exactly 20: not beyond
    above = meas(v_wheel=120.1, v_flow=100.0)
    for _ in range(5):
        assert not det.update(at)
    for _ in range(5):
        det.update(above)
    assert det.update(above)


# --- dead reckoning ---------------------------------------------------------------


def _straight_packets(n=10, period_ms=70, speed=100.0):
    # Free-running wheel and flow counters consistent with a straight run.
    out = []
    per_wheel_mm = speed * period_ms / 1e3
    ticks = round(per_wheel_mm / GEOM.mm_per_tick)
    for k in range(1, n + 1):
        out.append(packet(k * period_ms, ticks=(k * ticks, k * ticks),
                          flow=(k * per_wheel_mm, k * per_wheel_mm)))
    return out


def test_dead_reckon_wheels_straight():
    states = dead_reckon(convert_reports(_straight_packets(), GEOM, CFG),
                         Posture(0, 0, 0), "wheels")
    assert states[-1][0] == pytest.approx(70.0, abs=1e-6)
    assert states[-1][1] == pytest.approx(0.0, abs=1e-9)


def test_dead_reckon_flow_ignores_spinning_wheels():
    # Stuck robot: the wheel counters keep counting, the flow counters freeze.
    pkts = [packet(k * 70, ticks=(k * 28, k * 28), flow=(0.0, 0.0))
            for k in range(1, 11)]
    reports = convert_reports(pkts, GEOM, CFG)
    flow = dead_reckon(reports, Posture(0, 0, 0), "flow")
    assert flow[-1][0] == pytest.approx(0.0, abs=1e-9)
    wheels = dead_reckon(reports, Posture(0, 0, 0), "wheels")
    assert wheels[-1][0] == pytest.approx(140.0, abs=1e-6)


def dead_reckon_loop(reports, start, source):
    """dead_reckon as one integrate_unicycle step per report: the oracle of
    the array integration."""
    wheels = source == "wheels"
    pose = start
    states = []
    for meas in reports.measurements:
        v, w = (meas.v_wheel, meas.w_wheel) if wheels else (meas.v_flow, meas.w_flow)
        pose = integrate_unicycle(pose, Twist(v, w), meas.dt)
        states.append((pose.x, pose.y, pose.theta, v, w))
    return states


def _outcome(f, *args):
    """f's result, or the type and message of what it raised."""
    try:
        return f(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


# Speeds, turn rates and intervals: zero turns (the ARC_EPSILON branch)
# and turns that wrap the heading both ways, signed zeros, and now and
# then a value integrate_unicycle rejects or one that overflows a pose.
speeds = st.one_of(st.floats(-300.0, 300.0), st.sampled_from((0.0, -0.0, 1e308, -1e308)))
turn_rates = st.one_of(st.floats(-3.0, 3.0), st.floats(-60.0, 60.0),
                       st.sampled_from((0.0, -0.0, 1e-12, -1e-12, 1e-8, 1e308)))
intervals = st.one_of(st.floats(0.001, 0.2), st.sampled_from((0.07, 0.0, -0.0, 5.0)))
stream_values = st.tuples(intervals, speeds, turn_rates, speeds, turn_rates)


@st.composite
def measurement_streams(draw):
    rows = draw(st.lists(stream_values, max_size=60))
    if rows and draw(st.booleans()):
        # One bad value: a non-finite or negative interval, or a
        # non-finite twist component.
        i, field = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 4))
        value = draw(st.sampled_from((math.nan, math.inf, -math.inf, -0.07)))
        rows[i] = rows[i][:field] + (value,) + rows[i][field + 1:]
    return [meas(*row, heading=0.0, t_ms=70.0 * (k + 1)) for k, row in enumerate(rows)]


@settings(max_examples=300, deadline=None)
@given(stream=measurement_streams(), source=st.sampled_from(("wheels", "flow")),
       start=st.builds(Posture, st.sampled_from((0.0, -0.0, 120.5, -3e5)),
                       st.sampled_from((0.0, -0.0, -40.25)),
                       st.one_of(st.floats(-math.pi, math.pi),
                                 st.sampled_from((-0.0, math.pi, -math.pi)))))
# A straight run from a signed-zero start, spins that wrap both ways, a
# turn below ARC_EPSILON, and each rejected step.
@example(stream=[meas(0.07, 100.0, 0.0, 100.0, -0.0)] * 3, source="wheels",
         start=Posture(-0.0, -0.0, -0.0))
@example(stream=[meas(0.07, 50.0, 40.0, 50.0, -40.0)] * 8, source="flow",
         start=Posture(0.0, 0.0, 3.0))
@example(stream=[meas(0.07, 50.0, 40.0, 50.0, -40.0)] * 8, source="wheels",
         start=Posture(0.0, 0.0, -3.0))
@example(stream=[meas(0.07, 80.0, 1e-9, 0.0, 0.0)] * 4, source="wheels",
         start=Posture(1.0, 2.0, 0.5))
@example(stream=[meas(0.07, 80.0, 1.0), meas(math.nan, 80.0, 1.0)], source="wheels",
         start=Posture(0.0, 0.0, 0.0))
@example(stream=[meas(0.07, 80.0, 1.0), meas(0.07, 80.0, math.inf)], source="wheels",
         start=Posture(0.0, 0.0, 0.0))
@example(stream=[meas(-0.07, 80.0, 1.0)], source="wheels", start=Posture(0.0, 0.0, 0.0))
@example(stream=[meas(5.0, 80.0, 1e308)], source="wheels", start=Posture(0.0, 0.0, 0.0))
@example(stream=[meas(5.0, 1e308, 0.0)] * 2, source="wheels", start=Posture(0.0, 0.0, 0.0))
def test_dead_reckon_matches_the_per_report_loop(stream, source, start):
    reports = estimation.ConvertedReports(stream, [False] * len(stream))
    assert (repr(_outcome(dead_reckon, reports, start, source))
            == repr(_outcome(dead_reckon_loop, reports, start, source)))


def test_dead_reckon_rejects_unknown_source():
    with pytest.raises(ValueError):
        dead_reckon(convert_reports([], GEOM, CFG), Posture(0, 0, 0), "lidar")


def test_run_estimator_skips_stale_reports():
    pkts = _straight_packets(6)
    shuffled = [pkts[0], pkts[2], pkts[1], pkts[3], pkts[4], pkts[5]]
    reports = convert_reports(shuffled, GEOM, CFG)
    means = run_estimator(reports, Posture(0, 0, 0), CFG)
    assert reports.stale_skipped == 1
    assert len(means) == 5
    times_ms = [z.t_ms for z in reports.measurements]
    assert times_ms == sorted(times_ms)


def test_streaming_push_matches_run_estimator():
    pkts = _straight_packets(12)
    order = [0, 2, 1, 3, 3, 6, 4, 5, 7, 11, 8, 9, 10]
    shuffled = [pkts[i] for i in order]
    converter = ReportConverter(GEOM, CFG)
    belief = initial_belief(Posture(0, 0, 0))
    newest, stale, means = 0, 0, []
    for p in shuffled:
        z = converter.convert(p)
        if p.t_sent <= newest:
            stale += 1
            assert z is None
        else:
            newest = p.t_sent
            belief = filter_step(belief, z, converter.slip, CFG)
            assert belief.t_ms == p.t_sent
            means.append(belief.mean)
    assert stale == 7
    reports = convert_reports(shuffled, GEOM, CFG)
    batch = run_estimator(reports, Posture(0, 0, 0), CFG)
    assert converter.stale_skipped == reports.stale_skipped == stale
    assert len(batch) == len(means)
    for a, b in zip(means, batch):
        assert hexes(a) == hexes(b)


def test_run_estimator_converges_on_straight_run():
    reports = convert_reports(_straight_packets(50), GEOM, CFG)
    means = run_estimator(reports, Posture(0, 0, 0), CFG)
    # Speed estimate settles at the true 100 mm/s and position tracks x = v t.
    assert means[-1][3] == pytest.approx(100.0, abs=2.0)
    assert means[-1][0] == pytest.approx(350.0, abs=5.0)
    assert not reports.slip_flags[-1]


def test_config_from_noise_balances_channels():
    cfg = EkfConfig.from_noise(SensorNoise(), GEOM)
    r = cfg.r_base
    # Wheel and flow speed variances are the same order of magnitude, so
    # neither channel dominates until slip inflation kicks in.
    assert 0.2 < r[0] / r[2] < 5.0
    assert r[4] == pytest.approx(1e-4, rel=0.01)


def test_config_validation():
    with pytest.raises(ValueError):
        EkfConfig(q_diag=(1.0, 1.0))
    with pytest.raises(ValueError):
        EkfConfig(slip_inflation=0.5)
    with pytest.raises(ValueError):
        EkfConfig(slip_threshold=0.0)


# --- the lockstep fold of several filter settings -------------------------------

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "swarmsim" / "scenarios"
# (scenario file, overrides) of the streams the fold is checked on.
FOLD_STREAMS = {
    "slip": ("localize_slip.yaml", ()),
    "jitter": ("localize_jitter.yaml", ()),
    "lossy jittered slipping": ("localize_jitter.yaml", (
        "channel.loss_prob=0.2",
        "robot.slip=[{start_ms: 8000, end_ms: 11000, mode: stuck}]")),
    "lossless": ("localize_slip.yaml", ("channel.loss_prob=0",)),
}


@pytest.fixture(scope="module", params=list(FOLD_STREAMS))
def fold_stream(request):
    """(name, scenario, converted reports, the compare variants' settings)."""
    name = request.param
    file, overrides = FOLD_STREAMS[name]
    scenario = load_scenario(SCENARIOS / file, overrides)
    reports = convert_reports(simulate_reports(scenario).delivered,
                              scenario.geometry, scenario.ekf)
    settings = {"adaptive": (True, None), "nonadaptive": (False, None),
                "fixed_dt": (True, scenario.rates.report_period_ms / 1e3)}
    return name, scenario, reports, settings


def _fold_alone(reports, start, cfg, adaptive, fixed_dt_s):
    """One setting folded through filter_step report by report."""
    belief, means = initial_belief(start), []
    for z, slip in zip(reports.measurements, reports.slip_flags):
        belief = filter_step(belief, z, slip, cfg, adaptive, fixed_dt_s)
        means.append(belief.mean)
    return means


def test_fold_streams_split_where_they_should(fold_stream):
    name, _, reports, settings = fold_stream
    flags, fixed = reports.slip_flags, settings["fixed_dt"][1]
    if name == "jitter":
        assert not any(flags)
    else:
        # Slip is flagged mid-run, so adaptive and nonadaptive split there.
        assert not flags[0] and any(flags)
    if name == "lossless":
        assert all(z.dt == fixed for z in reports.measurements)


def test_fold_matches_each_setting_alone(fold_stream):
    _, scenario, reports, settings = fold_stream
    start, cfg = scenario.start, scenario.ekf
    alone = {key: [hexes(m) for m in _fold_alone(reports, start, cfg, *setting)]
             for key, setting in settings.items()}
    for key, setting in settings.items():
        assert [hexes(m) for m in run_estimator(reports, start, cfg, *setting)] \
            == alone[key]
    orders = [list(order) for order in itertools.permutations(settings)]
    orders += [["adaptive", "adaptive"], ["fixed_dt", "nonadaptive", "adaptive", "adaptive"],
               ["nonadaptive", "fixed_dt", "nonadaptive"], ["fixed_dt"]]
    for order in orders:
        folded = run_estimators(reports, start, cfg, [settings[key] for key in order])
        assert len(folded) == len(order)
        for key, means in zip(order, folded):
            assert [hexes(m) for m in means] == alone[key], (order, key)


def _count_updates(monkeypatch):
    calls = []
    update = estimation.ekf_update

    def counting(*args):
        calls.append(1)
        return update(*args)

    monkeypatch.setattr(estimation, "ekf_update", counting)
    return calls


def test_settings_share_every_step_they_agree_on(fold_stream, monkeypatch):
    name, scenario, reports, settings = fold_stream
    start, cfg, n = scenario.start, scenario.ekf, len(reports.measurements)
    calls = _count_updates(monkeypatch)
    adaptive, nonadaptive = run_estimators(
        reports, start, cfg, [settings["adaptive"], settings["nonadaptive"]])
    # The two agree up to the first slip flag, and never after it.
    first = reports.slip_flags.index(True) if any(reports.slip_flags) else n
    assert len(calls) == first + 2 * (n - first)
    assert all(a is b for a, b in zip(adaptive[:first], nonadaptive[:first]))
    assert not any(a is b for a, b in zip(adaptive[first:], nonadaptive[first:]))
    if name in ("jitter", "lossless"):
        calls.clear()
        run_estimators(reports, start, cfg, list(settings.values()))
        if name == "jitter":
            # No slip: adaptive and nonadaptive share every step, and
            # fixed_dt shares with them until the first interval it misses.
            fixed = settings["fixed_dt"][1]
            lead = next((k for k, z in enumerate(reports.measurements)
                         if z.dt != fixed), n)
            assert len(calls) == lead + 2 * (n - lead)
        else:
            # Every interval is the fixed 70 ms: all three share until the
            # first slip flag, where nonadaptive splits off.
            assert len(calls) == first + 2 * (n - first)


def test_repeated_settings_cost_one_update_per_report(monkeypatch):
    reports = convert_reports(_straight_packets(8), GEOM, CFG)
    calls = _count_updates(monkeypatch)
    means = run_estimators(reports, Posture(0, 0, 0), CFG, [(True, None)] * 3)
    assert len(calls) == 8
    assert means[0] is means[1] is means[2]


def test_fold_faults_where_each_setting_alone_faults():
    # With no measurement noise the flow speed channel has a zero pivot.
    cfg = EkfConfig(r_base=(0.0,) * 5)
    reports = convert_reports(_straight_packets(5), GEOM, CFG)
    with pytest.raises(EstimationFault):
        run_estimator(reports, Posture(0, 0, 0), cfg)
    with pytest.raises(EstimationFault):
        run_estimators(reports, Posture(0, 0, 0), cfg,
                       [(True, None), (False, None), (True, 0.07)])


def test_fold_of_no_settings_or_no_reports():
    reports = convert_reports(_straight_packets(3), GEOM, CFG)
    assert run_estimators(reports, Posture(0, 0, 0), CFG, []) == []
    empty = convert_reports([], GEOM, CFG)
    assert run_estimators(empty, Posture(0, 0, 0), CFG,
                          [(True, None), (False, 0.07)]) == [[], []]
