"""Planar differential-drive kinematics.

Conventions used throughout the package: lengths in mm, angles in radians,
time in seconds unless a field is explicitly a millisecond timestamp.
Headings are counterclockwise-positive and wrapped to (-pi, pi].  Wheel
speeds are ground-contact speeds in mm/s, right wheel first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

TAU = 2.0 * math.pi

# Hard actuator limit of the platform, mm/s.  Commands beyond it saturate.
MAX_WHEEL_SPEED = 180.0

# Below this |omega * dt| the constant-twist arc degenerates to a straight
# segment and the closed form loses precision, so integration switches to
# the first-order limit.
ARC_EPSILON = 1e-9


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    if -math.pi < angle <= math.pi:
        # What math.remainder returns for it, as a float.
        return float(angle)
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    wrapped = math.remainder(angle, TAU)
    # math.remainder returns [-pi, pi]; fold the open end onto +pi.
    if wrapped <= -math.pi:
        wrapped += TAU
    return wrapped


def wrap_angles(angles: np.ndarray) -> np.ndarray:
    """wrap_angle of each element, as a float array: one in (-pi, pi)
    passes unchanged, and any other goes through wrap_angle in a copy."""
    wrapped = np.asarray(angles, dtype=float)
    outside = ~(np.abs(wrapped) < math.pi)
    if np.count_nonzero(outside):
        wrapped = wrapped.copy()
        wrapped[outside] = [wrap_angle(a) for a in wrapped[outside].tolist()]
    return wrapped


class Posture(NamedTuple("Posture", [("x", float), ("y", float), ("theta", float)])):
    """Planar pose (x, y, theta). Heading is wrapped on construction."""

    __slots__ = ()

    def __new__(cls, x: float, y: float, theta: float) -> "Posture":
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError("posture coordinates must be finite")
        return tuple.__new__(cls, (x, y, wrap_angle(theta)))


class WheelSpeeds(NamedTuple("WheelSpeeds", [("right", float), ("left", float)])):
    """Right/left wheel ground speeds, mm/s.

    The type itself carries no speed limit; the plant and controller clamp
    commands to MAX_WHEEL_SPEED by saturation where they are applied.
    """

    __slots__ = ()

    def __new__(cls, right: float, left: float) -> "WheelSpeeds":
        if not (math.isfinite(right) and math.isfinite(left)):
            raise ValueError("wheel speeds must be finite")
        return tuple.__new__(cls, (right, left))


class Twist(NamedTuple("Twist", [("v", float), ("w", float)])):
    """Body velocity: forward speed v (mm/s) and yaw rate w (rad/s)."""

    __slots__ = ()

    def __new__(cls, v: float, w: float) -> "Twist":
        if not (math.isfinite(v) and math.isfinite(w)):
            raise ValueError("twist components must be finite")
        return tuple.__new__(cls, (v, w))


@dataclass(frozen=True)
class RobotGeometry:
    """Fixed physical parameters of one robot."""

    wheel_base: float = 100.0            # wheel separation l, mm
    flow_separation: float = 60.0        # lateral spacing of the two flow sensors, mm
    mm_per_tick: float = 0.5             # encoder displacement quantum, mm
    body_radius: float = 60.0            # circumscribed body radius, mm
    ir_range_min: float = 200.0          # mm
    ir_range_max: float = 1500.0         # mm

    # Body-frame bearings of the five range sensors: one forward, the rest
    # paired symmetrically around the pentagon.
    ir_ray_angles: tuple[float, ...] = (
        0.0,
        2.0 * math.pi / 5.0,
        -2.0 * math.pi / 5.0,
        4.0 * math.pi / 5.0,
        -4.0 * math.pi / 5.0,
    )

    def __post_init__(self) -> None:
        if self.wheel_base <= 0 or self.flow_separation <= 0:
            raise ValueError("wheel_base and flow_separation must be positive")
        if self.mm_per_tick <= 0:
            raise ValueError("mm_per_tick must be positive")
        if not (0 <= self.ir_range_min < self.ir_range_max):
            raise ValueError("require 0 <= ir_range_min < ir_range_max")


def saturate(v1: float, v2: float,
             v_max: float = MAX_WHEEL_SPEED) -> tuple[float, float]:
    """The wheel pair (right v1, left v2), both scaled by a common factor
    when either exceeds v_max, so the commanded curvature (and turn
    direction) survives saturation."""
    peak = max(abs(v1), abs(v2))
    if peak > v_max:
        scale = v_max / peak
        v1 *= scale
        v2 *= scale
    return v1, v2


def wheels_to_twist(wheels: WheelSpeeds, geometry: RobotGeometry) -> Twist:
    """Forward kinematics: wheel pair to body twist.

    v = (right + left) / 2, w = (right - left) / wheel_base.  A faster right
    wheel turns the robot counterclockwise.
    """
    v = 0.5 * (wheels.right + wheels.left)
    w = (wheels.right - wheels.left) / geometry.wheel_base
    return Twist(v, w)


def integrate_unicycle(pose: Posture, twist: Twist, dt: float) -> Posture:
    """Advance a pose under a constant twist for dt seconds.

    Uses the exact circular-arc solution in its chord form: the robot moves
    2 R sin(swept / 2) along the heading theta + swept / 2.  Written as
    v * dt * sinc(swept / 2), this avoids the cancellation of
    R * (sin(theta + swept) - sin(theta)) when the radius is huge.  When
    |w * dt| <= ARC_EPSILON the straight-line limit (sinc = 1) is used.
    """
    if not math.isfinite(dt) or dt < 0:
        raise ValueError(f"dt must be finite and non-negative, got {dt!r}")
    swept = twist.w * dt
    if abs(swept) > ARC_EPSILON:
        half = 0.5 * swept
        chord = twist.v * dt * math.sin(half) / half
        heading = pose.theta + half
    else:
        chord = twist.v * dt
        heading = pose.theta
    x = pose.x + chord * math.cos(heading)
    y = pose.y + chord * math.sin(heading)
    return Posture(x, y, wrap_angle(pose.theta + swept))


def error_posture(reference: Posture, current: Posture) -> Posture:
    """Tracking error of `reference` expressed in the body frame of `current`.

    Positive x is ahead of the robot, positive y to its left; theta is the
    wrapped heading difference.
    """
    dx = reference.x - current.x
    dy = reference.y - current.y
    cos_t = math.cos(current.theta)
    sin_t = math.sin(current.theta)
    return Posture(
        cos_t * dx + sin_t * dy,
        -sin_t * dx + cos_t * dy,
        wrap_angle(reference.theta - current.theta),
    )
