"""Trajectory tracking: sampled references with numeric feedforward and a
Lyapunov-based wheel-speed controller.

A reference is a densely sampled sequence of timed postures. Feedforward
velocities (v_r, w_r) are recovered numerically by central differences on
the samples, so any trajectory source works as long as it is sampled finely
enough. The controller maps the body-frame error posture to wheel speeds;
with all gains positive the error dynamics are asymptotically stable, and
``lyapunov_value`` exposes the standard certificate V for diagnostics.

Forward motion is assumed: the numeric v_r is a speed (nonnegative).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .core import (
    MAX_WHEEL_SPEED,
    Posture,
    RobotGeometry,
    WheelSpeeds,
    error_posture,
    saturate,
    wrap_angle,
)

__all__ = [
    "Gains",
    "ReferenceTrajectory",
    "circle_trajectory",
    "line_trajectory",
    "lyapunov_value",
    "tracking_control",
]


@dataclass(frozen=True)
class Gains:
    """Controller gains, raw scalars in the mm/rad/s unit system.

    Defaults are tuned for the 70 ms control period at cruise speeds
    around 100 mm/s: the heading/lateral loop is critically damped
    (natural frequency ~1.5 rad/s), which keeps every discrete step
    contractive well inside the wheel-speed envelope.
    """

    k_x: float = 1.0
    k_y: float = 2.25e-4
    k_theta: float = 0.03

    def __post_init__(self):
        if not (self.k_x > 0 and self.k_y > 0 and self.k_theta > 0):
            raise ValueError("all gains must be positive")


class ReferenceTrajectory:
    """Timed posture samples with interpolation and numeric feedforward.

    Positions interpolate linearly, headings along the shortest arc.
    Feedforward is computed once per sample: v_r from the chord length
    over the surrounding interval, w_r from the wrapped heading change
    (central differences inside, one-sided at the ends).
    """

    def __init__(self, times_s, postures):
        times = [float(t) for t in times_s]
        posts = list(postures)
        if len(times) != len(posts):
            raise ValueError("times and postures must have equal length")
        if len(times) < 2:
            raise ValueError("a trajectory needs at least two samples")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("sample times must be strictly increasing")
        for a, b in zip(posts, posts[1:]):
            if abs(wrap_angle(b.theta - a.theta)) >= math.pi / 2:
                raise ValueError("adjacent heading steps must stay below pi/2")
        self.times_s = times
        self.postures = posts
        self._v_r, self._w_r = self._feedforward()

    def _feedforward(self):
        t, p = self.times_s, self.postures
        n = len(t)
        v, w = [0.0] * n, [0.0] * n
        for i in range(n):
            lo, hi = max(i - 1, 0), min(i + 1, n - 1)
            dt = t[hi] - t[lo]
            v[i] = math.hypot(p[hi].x - p[lo].x, p[hi].y - p[lo].y) / dt
            w[i] = wrap_angle(p[hi].theta - p[lo].theta) / dt
        return v, w

    @property
    def span(self) -> tuple[float, float]:
        return self.times_s[0], self.times_s[-1]

    def reference_at(self, t_s: float) -> tuple[Posture, float, float]:
        """Interpolated (posture, v_r, w_r) at time ``t_s`` (seconds)."""
        t0, t1 = self.span
        if not t0 <= t_s <= t1:
            raise ValueError(f"t={t_s} outside trajectory span [{t0}, {t1}]")
        i = bisect.bisect_right(self.times_s, t_s) - 1
        if i >= len(self.times_s) - 1:
            return self.postures[-1], self._v_r[-1], self._w_r[-1]
        a, b = self.postures[i], self.postures[i + 1]
        u = (t_s - self.times_s[i]) / (self.times_s[i + 1] - self.times_s[i])
        pose = Posture(
            a.x + u * (b.x - a.x),
            a.y + u * (b.y - a.y),
            wrap_angle(a.theta + u * wrap_angle(b.theta - a.theta)),
        )
        v = self._v_r[i] + u * (self._v_r[i + 1] - self._v_r[i])
        w = self._w_r[i] + u * (self._w_r[i + 1] - self._w_r[i])
        return pose, v, w


def _sample_times(duration_s: float, period_s: float) -> list[float]:
    """Sample instants k * period_s from 0, the last one clipped to duration_s."""
    n = int(math.ceil(duration_s / period_s))
    return [min(k * period_s, duration_s) for k in range(n + 1)]


def circle_trajectory(radius: float, speed: float, duration_s: float,
                      period_s: float = 0.07, ccw: bool = True,
                      start: Posture = Posture(0.0, 0.0, 0.0)) -> ReferenceTrajectory:
    """Constant-speed circle tangent to ``start`` (robot begins on the path)."""
    if radius <= 0 or speed <= 0 or duration_s <= 0 or period_s <= 0:
        raise ValueError("radius, speed, duration and period must be positive")
    sign = 1.0 if ccw else -1.0
    # Center sits body-left of the start heading for a counterclockwise loop.
    cx = start.x - sign * radius * math.sin(start.theta)
    cy = start.y + sign * radius * math.cos(start.theta)
    rate = sign * speed / radius
    phi0 = math.atan2(start.y - cy, start.x - cx)
    times = _sample_times(duration_s, period_s)
    postures = []
    for t in times:
        phi = phi0 + rate * t
        postures.append(Posture(
            cx + radius * math.cos(phi),
            cy + radius * math.sin(phi),
            wrap_angle(phi + sign * math.pi / 2),
        ))
    return ReferenceTrajectory(times, postures)


def line_trajectory(speed: float, duration_s: float, period_s: float = 0.07,
                    start: Posture = Posture(0.0, 0.0, 0.0)) -> ReferenceTrajectory:
    """Constant-speed straight run along the start heading."""
    if speed <= 0 or duration_s <= 0 or period_s <= 0:
        raise ValueError("speed, duration and period must be positive")
    times = _sample_times(duration_s, period_s)
    postures = [Posture(start.x + speed * t * math.cos(start.theta),
                        start.y + speed * t * math.sin(start.theta),
                        start.theta)
                for t in times]
    return ReferenceTrajectory(times, postures)


def tracking_control(ref: Posture, current: Posture, v_r: float, w_r: float,
                     gains: Gains, geometry: RobotGeometry,
                     v_max: float = MAX_WHEEL_SPEED) -> WheelSpeeds:
    """Wheel speeds driving ``current`` onto the reference.

    The forward channel blends the feedforward speed with a longitudinal
    correction; the turn channel blends the feedforward turn rate with
    lateral and heading corrections scaled by the reference speed. The
    wheel pair saturates at ``v_max`` through ``saturate``.
    """
    e = error_posture(ref, current)
    half_base = geometry.wheel_base / 2.0
    forward = v_r * math.cos(e.theta) + gains.k_x * e.x
    turn = w_r + v_r * (gains.k_y * e.y + gains.k_theta * math.sin(e.theta))
    return WheelSpeeds(*saturate(forward + half_base * turn,
                                 forward - half_base * turn, v_max))


def lyapunov_value(error: Posture) -> float:
    """Tracking certificate V = (x^2 + y^2)/2 + (1 - cos theta); zero only
    at zero error."""
    return 0.5 * (error.x * error.x + error.y * error.y) + (1.0 - math.cos(error.theta))
