from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from swarmsim.core import (
    ARC_EPSILON,
    TAU,
    Posture,
    RobotGeometry,
    Twist,
    WheelSpeeds,
    error_posture,
    integrate_unicycle,
    unicycle_path,
    wheels_to_twist,
    wrap_angle,
    wrap_angles,
)
from swarmsim.swarm import RoundRecord

GEOM = RobotGeometry()

angles = st.floats(min_value=-50.0, max_value=50.0)
coords = st.floats(min_value=-1e5, max_value=1e5)
speeds = st.floats(min_value=-180.0, max_value=180.0)
rates = st.floats(min_value=-4.0, max_value=4.0)


def euler_integrate(pose: Posture, twist: Twist, dt: float, substeps: int = 10_000) -> Posture:
    # Independent reference integrator: brute-force first-order stepping.
    h = dt / substeps
    x, y, theta = pose.x, pose.y, pose.theta
    for _ in range(substeps):
        x += twist.v * h * math.cos(theta)
        y += twist.v * h * math.sin(theta)
        theta += twist.w * h
    return Posture(x, y, theta)


# --- wrap_angle ---------------------------------------------------------


def test_wrap_basic_values():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi, abs=1e-12)
    assert wrap_angle(-1.5 * math.pi) == pytest.approx(0.5 * math.pi, abs=1e-12)
    # pi maps to itself, -pi folds onto +pi (open lower end).
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi


def test_wrap_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            wrap_angle(bad)


@given(angles)
def test_wrap_idempotent_and_in_range(a):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi
    assert wrap_angle(w) == w


@given(angles)
def test_wrap_preserves_angle_mod_tau(a):
    w = wrap_angle(a)
    k = (a - w) / (2 * math.pi)
    assert k == pytest.approx(round(k), abs=1e-9)


# --- wheel/twist conversions --------------------------------------------


def test_wheels_to_twist_examples():
    t = wheels_to_twist(WheelSpeeds(100.0, 100.0), GEOM)
    assert (t.v, t.w) == (100.0, 0.0)
    t = wheels_to_twist(WheelSpeeds(100.0, -100.0), GEOM)
    assert t.v == 0.0
    assert t.w == pytest.approx(2.0, abs=1e-12)  # 200 / 100 mm base, spin in place


# --- integrate_unicycle --------------------------------------------------


def test_quarter_arc_hand_value():
    # v = 100, w = pi/2 for 1 s sweeps a quarter circle of radius 200/pi:
    # endpoint (200/pi, 200/pi, pi/2).
    end = integrate_unicycle(Posture(0, 0, 0), Twist(100.0, math.pi / 2), 1.0)
    assert end.x == pytest.approx(200.0 / math.pi, abs=1e-9)
    assert end.y == pytest.approx(200.0 / math.pi, abs=1e-9)
    assert end.theta == pytest.approx(math.pi / 2, abs=1e-12)


def test_straight_line():
    end = integrate_unicycle(Posture(10.0, -5.0, math.pi / 6), Twist(100.0, 0.0), 2.0)
    assert end.x == pytest.approx(10.0 + 200.0 * math.cos(math.pi / 6), abs=1e-9)
    assert end.y == pytest.approx(-5.0 + 200.0 * math.sin(math.pi / 6), abs=1e-9)
    assert end.theta == pytest.approx(math.pi / 6, abs=1e-12)


def test_zero_dt_is_identity():
    p = Posture(3.0, 4.0, 1.0)
    q = integrate_unicycle(p, Twist(50.0, 1.0), 0.0)
    assert (q.x, q.y, q.theta) == (p.x, p.y, p.theta)


def test_negative_dt_rejected():
    with pytest.raises(ValueError):
        integrate_unicycle(Posture(0, 0, 0), Twist(1.0, 0.0), -0.1)


def test_tiny_rotation_uses_straight_limit():
    # Just below the arc threshold: no v/w blow-up.
    end = integrate_unicycle(Posture(0, 0, 0), Twist(100.0, ARC_EPSILON / 2), 1.0)
    assert end.x == pytest.approx(100.0, abs=1e-6)
    assert abs(end.y) < 1e-6


@given(coords, coords, angles, speeds, rates, st.floats(min_value=1e-4, max_value=0.2))
def test_matches_euler_reference(x, y, theta, v, w, dt):
    start = Posture(x, y, theta)
    tw = Twist(v, w)
    exact = integrate_unicycle(start, tw, dt)
    ref = euler_integrate(start, tw, dt)
    assert exact.x == pytest.approx(ref.x, abs=0.01)
    assert exact.y == pytest.approx(ref.y, abs=0.01)
    assert wrap_angle(exact.theta - ref.theta) == pytest.approx(0.0, abs=1e-6)


@given(coords, coords, angles, speeds, rates, st.floats(min_value=1e-3, max_value=0.1))
def test_flow_composability(x, y, theta, v, w, dt):
    # Integrating dt twice equals integrating 2*dt once.
    start = Posture(x, y, theta)
    tw = Twist(v, w)
    two_steps = integrate_unicycle(integrate_unicycle(start, tw, dt), tw, dt)
    one_step = integrate_unicycle(start, tw, 2 * dt)
    scale = max(1.0, abs(one_step.x), abs(one_step.y))
    assert abs(two_steps.x - one_step.x) <= 1e-9 * scale
    assert abs(two_steps.y - one_step.y) <= 1e-9 * scale
    assert wrap_angle(two_steps.theta - one_step.theta) == pytest.approx(0.0, abs=1e-9)


path_steps = st.lists(st.tuples(speeds, rates | st.floats(-40.0, 40.0) | st.floats(-2e-9, 2e-9),
                                st.floats(0.0, 1.0)), max_size=200)


@given(coords, coords, angles, path_steps)
@example(-0.0, -0.0, -0.0, [(-0.0, -0.0, 0.5), (0.0, 1.0, 0.0)])
@example(0.0, 0.0, 0.0, [(100.0, w, 1.0) for w in (
    ARC_EPSILON, math.nextafter(ARC_EPSILON, 1.0),
    -ARC_EPSILON, math.nextafter(-ARC_EPSILON, -1.0))])
# Sums of exactly -pi (wraps to +pi) and +pi (stays).
@example(0.0, 0.0, 0.0, [(100.0, -math.pi, 1.0), (100.0, math.pi, 1.0),
                         (100.0, math.pi, 1.0)])
# A wrap on the first step, then one every 118 steps or so.
@example(0.0, 0.0, 3.0, [(100.0, 0.5, 1.0)] + [(100.0, 0.05, 1.0)] * 299)
def test_unicycle_path_is_chained_integrate_unicycle(x, y, theta, steps):
    poses = [Posture(x, y, theta)]
    for v, w, dt in steps:
        poses.append(integrate_unicycle(poses[-1], Twist(v, w), dt))
    v, w, dt = (np.array([step[i] for step in steps], dtype=float) for i in range(3))
    path = unicycle_path(poses[0], v * dt, w * dt)
    assert path.shape == (3, len(steps) + 1)
    assert [[value.hex() for value in row] for row in path.tolist()] == [
        [value.hex() for value in row] for row in zip(*poses)]


# --- error_posture -------------------------------------------------------


def test_error_zero_for_identical_postures():
    p = Posture(12.0, -7.0, 2.5)
    e = error_posture(p, p)
    assert (e.x, e.y, e.theta) == (0.0, 0.0, 0.0)


def test_error_hand_value():
    # Robot at origin facing +y; reference one unit ahead of it on the y axis.
    e = error_posture(Posture(0.0, 100.0, math.pi / 2), Posture(0.0, 0.0, math.pi / 2))
    assert e.x == pytest.approx(100.0, abs=1e-9)
    assert e.y == pytest.approx(0.0, abs=1e-9)
    assert e.theta == 0.0


def test_error_lateral_offset():
    # Reference to the left of a robot facing +x.
    e = error_posture(Posture(0.0, 50.0, 0.0), Posture(0.0, 0.0, 0.0))
    assert e.x == pytest.approx(0.0, abs=1e-9)
    assert e.y == pytest.approx(50.0, abs=1e-9)


@given(coords, coords, angles, coords, coords, angles, angles, coords, coords)
def test_error_norm_rigid_transform_invariant(xr, yr, tr, xc, yc, tc, rot, ox, oy):
    # Planar error norm is unchanged when both postures undergo the same
    # rigid transform.
    ref = Posture(xr, yr, tr)
    cur = Posture(xc, yc, tc)

    def transform(p: Posture) -> Posture:
        c, s = math.cos(rot), math.sin(rot)
        return Posture(
            c * p.x - s * p.y + ox,
            s * p.x + c * p.y + oy,
            p.theta + rot,
        )

    e0 = error_posture(ref, cur)
    e1 = error_posture(transform(ref), transform(cur))
    n0 = math.hypot(e0.x, e0.y)
    n1 = math.hypot(e1.x, e1.y)
    assert abs(n0 - n1) <= 1e-9 * max(1.0, n0)
    assert wrap_angle(e0.theta - e1.theta) == pytest.approx(0.0, abs=1e-9)


def test_posture_wraps_on_construction():
    assert Posture(0, 0, 3 * math.pi).theta == pytest.approx(math.pi, abs=1e-12)


def test_types_reject_non_finite():
    for make, message in ((lambda bad: Posture(bad, 0, 0), "posture coordinates"),
                          (lambda bad: Posture(0, bad, 0), "posture coordinates"),
                          (lambda bad: WheelSpeeds(bad, 0), "wheel speeds"),
                          (lambda bad: WheelSpeeds(0, bad), "wheel speeds"),
                          (lambda bad: Twist(bad, 0), "twist components"),
                          (lambda bad: Twist(0, bad), "twist components")):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{message} must be finite$"):
                make(bad)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^angle must be finite, got {bad!r}$"):
            Posture(0, 0, bad)


# --- the value types: checked tuples -----------------------------------------


def remainder_wrap(angle):
    # wrap_angle before its in-range early return.
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    wrapped = math.remainder(angle, TAU)
    if wrapped <= -math.pi:
        wrapped += TAU
    return wrapped


_EDGE_ANGLES = (0, 3, -3, 4, 7, -7, np.float64(0.5), np.float64(-4.0), 0.0, -0.0,
                math.pi, -math.pi, math.nextafter(math.pi, 0), math.nextafter(-math.pi, 0),
                math.nextafter(math.pi, 4), math.nextafter(-math.pi, -4), 1e300, -1e300,
                5e-324, 3 * math.pi, -3 * math.pi)
wide_angles = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_ANGLES)


@given(wide_angles)
def test_wrap_fast_path_matches_the_remainder_path(a):
    assert type(wrap_angle(a)) is float
    assert wrap_angle(a).hex() == remainder_wrap(a).hex()


@given(st.lists(wide_angles, max_size=40))
@example(list(_EDGE_ANGLES))
def test_array_wrap_matches_wrap_angle_elementwise(values):
    array = np.array(values, dtype=float)
    before = array.copy()
    wrapped = wrap_angles(array)
    assert [w.hex() for w in wrapped.tolist()] == [
        remainder_wrap(float(a)).hex() for a in values]
    np.testing.assert_array_equal(array, before)


def test_array_wrap_raises_as_wrap_angle_does():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^angle must be finite, got {bad!r}$"):
            wrap_angles(np.array([0.5, 7.0, bad, math.inf]))


@given(wide_angles)
@example(0)
@example(np.float64(-0.0))
def test_posture_heading_is_a_wrapped_python_float(theta):
    pose = Posture(1, 2.5, theta)
    assert type(pose.theta) is float
    assert -math.pi < pose.theta <= math.pi
    assert pose.theta.hex() == remainder_wrap(theta).hex()
    assert (pose.x, pose.y) == (1, 2.5)


def test_value_type_reprs_and_fields():
    assert repr(Posture(1.0, -2, -0.0)) == "Posture(x=1.0, y=-2, theta=-0.0)"
    assert repr(WheelSpeeds(180.0, -0.5)) == "WheelSpeeds(right=180.0, left=-0.5)"
    assert repr(Twist(3, 0.25)) == "Twist(v=3, w=0.25)"
    assert (repr(RoundRecord(0.07, (0.5, -0.0), 0.25, 0.5))
            == "RoundRecord(t_s=0.07, headings=(0.5, -0.0), mean=0.25, spread=0.5)")
    pose = Posture(1.0, 2.0, -math.pi)
    assert pose == (1.0, 2.0, math.pi) and hash(pose) == hash((1.0, 2.0, math.pi))
    with pytest.raises(AttributeError):
        pose.theta = 0.0


def test_geometry_validation():
    with pytest.raises(ValueError):
        RobotGeometry(wheel_base=0.0)
    with pytest.raises(ValueError):
        RobotGeometry(ir_range_min=2000.0, ir_range_max=1500.0)
