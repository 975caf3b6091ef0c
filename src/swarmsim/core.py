"""Planar differential-drive kinematics.

Conventions used throughout the package: lengths in mm, angles in radians,
time in seconds unless a field is explicitly a millisecond timestamp.
Headings are counterclockwise-positive and wrapped to (-pi, pi].  Wheel
speeds are ground-contact speeds in mm/s, right wheel first.
``BlockStream`` reads a seeded random stream in order, drawn in blocks.
"""

from __future__ import annotations

import itertools
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


def chord_steps(theta: np.ndarray, travel: np.ndarray,
                swept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """integrate_unicycle's displacement (dx, dy) for each step from
    heading theta with travel v * dt and turn w * dt, with its float
    operations.  Quiet where a step is not finite: callers check."""
    with np.errstate(all="ignore"):
        arc = (swept > ARC_EPSILON) | (swept < -ARC_EPSILON)
        half = 0.5 * swept
        chord = np.where(arc, travel * np.sin(half) / half, travel)
        heading = np.where(arc, theta + half, theta)
        return chord * np.cos(heading), chord * np.sin(heading)


def unicycle_path(start: tuple[float, float, float], travel: np.ndarray,
                  swept: np.ndarray) -> np.ndarray:
    """The poses of n chained integrate_unicycle steps from start (x, y
    and a wrapped theta), step k with travel v * dt = travel[k] and turn
    w * dt = swept[k]: a (3, n + 1) array of x, y and theta, start first,
    with the doubles of the n calls.  x and y are running sums of
    chord_steps; the heading is summed and wrapped as the calls do."""
    path = np.empty((3, len(swept) + 1))
    path[:, 0] = start
    _wrapped_heading(start[2], swept, path[2])
    path[0, 1:], path[1, 1:] = chord_steps(path[2, :-1], travel, swept)
    with np.errstate(all="ignore"):
        np.cumsum(path[:2], axis=1, out=path[:2])
    return path


def _wrapped_heading(start: float, swept: np.ndarray, out: np.ndarray) -> None:
    """out[0] = start and out[k + 1] = out[k] + swept[k], each sum that
    leaves (-pi, pi] wrapped by wrap_angle before the next is added."""
    pi = math.pi
    out[0] = start
    out[1:] = swept
    # out[first] holds a heading, and out[first + 1:] the steps still to
    # add.  A wrap restarts the sum, so each pass spans twice the steps
    # the last wrap took: a fast spin does not redo the whole sequence.
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
        else:
            out[first:last] = part
            first = last - 1
            span *= 2


# Values per block of a seeded stream read in order.
NOISE_BLOCK = 64


class BlockStream:
    """The values of draw(size), draw(size), ... read in order: one at a
    time by next() or k at a time by take(k).

    An array draw of a numpy Generator continues its scalar stream, so
    with draw a Generator method the values are those of one scalar draw
    each, in order, whichever way they are read.
    """

    def __init__(self, draw, size: int = NOISE_BLOCK):
        self._draw = draw
        self._block = iter(())
        self.next = self._values(size).__next__

    def _values(self, size: int):
        while True:
            self._block = iter(self._draw(size).tolist())
            # take reads the same iterator, so the two never repeat a value.
            yield from self._block

    def take(self, k: int) -> np.ndarray:
        """The next k values, as an array of the draw's dtype."""
        head = list(itertools.islice(self._block, k))
        if len(head) == k:
            return np.array(head)
        tail = self._draw(k - len(head))
        return np.concatenate((np.array(head, tail.dtype), tail))


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
