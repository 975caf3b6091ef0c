"""Heading consensus, both as pure synchronous iteration and over the
simulated star network.

The iteration is plain arithmetic on scalar headings: every agent moves a
fraction K toward the current swarm mean. That preserves the mean exactly
and contracts every pairwise difference by (1 - K) per round, so any
K in (0, 2) converges. Headings are treated as unwrapped scalars; demos
keep the initial spread below pi so the arithmetic never fights the
branch cut (a circular mean is out of scope). ``consensus_step`` is the
one round rule of both modes.

In networked mode the robots only report headings over the star channel;
the server averages the freshest report per robot, hands each robot its
corrected target, and the robots turn in place toward it between rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .comms import ChannelModel, FreshnessBuffer, StarChannel, encode_heading_frames
# Unused, but bench/tests/test_bench_tracing.py traces it in this module.
from .comms import encode_frame  # noqa: F401
from .core import MAX_WHEEL_SPEED, RobotGeometry, wrap_angles
from .sim import NOISE_BLOCK

__all__ = [
    "ConsensusConfig",
    "ConsensusResult",
    "RoundRecord",
    "consensus_step",
    "mean_heading",
    "run_networked_consensus",
    "run_synchronous_consensus",
    "spread",
    "swarm_headings",
]


def mean_heading(headings) -> float:
    """Arithmetic mean of scalar headings (deliberately not circular)."""
    values = list(headings)
    if not values:
        raise ValueError("mean_heading needs at least one heading")
    return math.fsum(values) / len(values)


def spread(headings) -> float:
    """Largest pairwise difference: max - min for scalar headings."""
    values = list(headings)
    if not values:
        raise ValueError("spread needs at least one heading")
    return max(values) - min(values)


def swarm_headings(headings) -> tuple[float, ...]:
    """The headings as floats; a swarm needs at least two agents."""
    values = tuple(float(h) for h in headings)
    if len(values) < 2:
        raise ValueError("a swarm needs at least two agents")
    return values


def consensus_step(headings, k: float) -> np.ndarray:
    """One synchronous round: every heading moves K of the way to the
    pre-step mean, simultaneously."""
    if not 0.0 < k < 2.0:
        raise ValueError("consensus gain must lie in (0, 2)")
    m = mean_heading(headings)
    h = np.array(headings, dtype=float)
    return h + k * (m - h)


@dataclass(frozen=True)
class ConsensusConfig:
    k: float = 0.2
    epsilon: float = 0.01               # rad
    max_rounds: int = 2000
    mode: str = "networked"
    round_period_ms: float = 70.0
    settle_rounds: int = 10             # consecutive sub-epsilon rounds
    staleness_horizon_ms: float = 500.0
    turn_gain: float = 8.0              # heading P-gain for turn-in-place, 1/s

    def __post_init__(self):
        if not 0.0 < self.k < 2.0:
            raise ValueError("consensus gain must lie in (0, 2)")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        if self.mode not in ("synchronous", "networked"):
            raise ValueError("mode must be 'synchronous' or 'networked'")
        if self.round_period_ms <= 0 or self.staleness_horizon_ms <= 0:
            raise ValueError("periods must be positive")
        if self.settle_rounds < 1:
            raise ValueError("settle_rounds must be at least 1")
        if self.turn_gain <= 0:
            raise ValueError("turn_gain must be positive")
        if (self.mode == "networked"
                and self.max_rounds * self.round_period_ms > 0xFFFFFFFF):
            raise ValueError("max_rounds x round_period_ms must fit the u32 ms "
                             "report clock")


class RoundRecord(NamedTuple):
    t_s: float
    headings: tuple[float, ...]
    mean: float
    spread: float


@dataclass
class ConsensusResult:
    converged: bool
    time_s: float
    rounds: int
    trace: list[RoundRecord] = field(default_factory=list)
    staleness_warnings: int = 0


def _check_settled(streak: int, value: float, cfg: ConsensusConfig) -> int:
    return streak + 1 if value < cfg.epsilon else 0


def _round(t_s: float, headings: tuple[float, ...],
           k: float) -> tuple[RoundRecord, np.ndarray]:
    """The record of a round that sees these headings, and the targets one
    consensus step on."""
    record = RoundRecord(t_s, headings, mean_heading(headings), spread(headings))
    return record, consensus_step(headings, k)


# Headings that overflow step to infinities, as float arithmetic does,
# without a numpy warning.
@np.errstate(over="ignore", invalid="ignore")
def run_synchronous_consensus(initial_headings, cfg: ConsensusConfig) -> ConsensusResult:
    """Iterate the pure algebraic rounds until the spread settles."""
    headings = swarm_headings(initial_headings)
    period_s = cfg.round_period_ms / 1e3
    trace: list[RoundRecord] = []
    streak = 0
    for rounds in range(cfg.max_rounds + 1):
        record, target = _round(rounds * period_s, headings, cfg.k)
        trace.append(record)
        streak = _check_settled(streak, record.spread, cfg)
        if streak >= cfg.settle_rounds:
            break
        headings = tuple(target.tolist())
    return ConsensusResult(streak >= cfg.settle_rounds, rounds * period_s, rounds, trace)


def _turn_wheels(theta: np.ndarray, target: np.ndarray, turn_gain: float,
                 wheel_base: float) -> tuple[np.ndarray, np.ndarray]:
    """The (right, left) wheel pairs that turn robots at headings theta in
    place toward target: a turn rate proportional to the heading error as
    an opposite pair, saturated as saturate does, element by element. Its
    forward speed is exactly zero, so a robot keeps only its heading."""
    half_turn = wheel_base / 2.0 * (turn_gain * wrap_angles(target - theta))
    # Zero forward speed added, so a zero pair has the signs of zeros that
    # tracking_control gives for a pure turn.
    right, left = 0.0 + half_turn, 0.0 - half_turn
    # Both wheels of a pair have the speed |half_turn|. A factor of exactly
    # 1 leaves an unsaturated pair as it is.
    scale = MAX_WHEEL_SPEED / np.maximum(np.abs(half_turn), MAX_WHEEL_SPEED)
    return right * scale, left * scale


def _turn_step(theta: np.ndarray, target: np.ndarray, turn_gain: float,
               wheel_base: float, dt_s: float) -> np.ndarray:
    """The wrapped headings after turning toward target for dt_s seconds."""
    right, left = _turn_wheels(theta, target, turn_gain, wheel_base)
    return wrap_angles(theta + (right - left) / wheel_base * dt_s)


# A gain or gyro noise that overflows makes a heading non-finite, which
# wrap_angles rejects with wrap_angle's error and no numpy warning.
@np.errstate(over="ignore", invalid="ignore")
def run_networked_consensus(initial_headings, cfg: ConsensusConfig,
                            channel_model: ChannelModel | None = None,
                            geometry: RobotGeometry | None = None,
                            gyro_sigma: float = 0.0,
                            seed: int = 0) -> ConsensusResult:
    """Consensus over the star network with turn-in-place robots.

    Every round period each robot uplinks its gyro heading; the server
    refreshes its per-robot buffer, averages the freshest headings, and
    assigns each robot the target one K-step toward the mean. Rounds run
    only once every robot has reported at least once. A report older than
    the staleness horizon still participates but is counted as a warning.
    Convergence means the buffered spread stayed below epsilon for
    ``settle_rounds`` consecutive rounds.
    """
    headings = swarm_headings(initial_headings)
    geometry = geometry or RobotGeometry()
    channel_model = channel_model or ChannelModel()

    channel = StarChannel(channel_model, np.random.default_rng([seed, 0xFFFF, 2]))
    target = np.array(headings)
    theta = wrap_angles(target)
    # Each robot's gyro noise is its own stream, read one normal a round.
    # A noiseless gyro reads theta plus a signed zero, which quantizes to
    # the same frame, so it needs no stream.
    streams = [np.random.default_rng([seed, i, 1])
               for i in range(len(headings))] if gyro_sigma else []
    buffer = FreshnessBuffer()
    expected_ids = list(range(len(headings)))

    period_s = cfg.round_period_ms / 1e3
    trace: list[RoundRecord] = []
    staleness_warnings = 0
    streak = 0

    for round_idx in range(1, cfg.max_rounds + 1):
        t_ms = round_idx * cfg.round_period_ms
        gyro = theta
        if streams:
            column = (round_idx - 1) % NOISE_BLOCK
            if column == 0:
                noise = np.array([rng.standard_normal(NOISE_BLOCK) for rng in streams])
            gyro = wrap_angles(theta + gyro_sigma * noise[:, column])
        for robot_id, frame in enumerate(encode_heading_frames(int(round(t_ms)), gyro)):
            channel.send(frame, t_ms, robot_id)
        for packet in channel.receive(t_ms):
            buffer.update(packet)
        if buffer.robot_ids() == expected_ids:
            latest = [buffer.latest(i) for i in expected_ids]
            for packet in latest:
                if t_ms - packet.t_sent > cfg.staleness_horizon_ms:
                    staleness_warnings += 1
            record, target = _round(t_ms / 1e3,
                                    tuple(p.gyro_heading for p in latest), cfg.k)
            trace.append(record)
            streak = _check_settled(streak, record.spread, cfg)
            if streak >= cfg.settle_rounds:
                return ConsensusResult(True, record.t_s, len(trace), trace,
                                       staleness_warnings)
        theta = _turn_step(theta, target, cfg.turn_gain, geometry.wheel_base, period_s)
    return ConsensusResult(False, cfg.max_rounds * period_s, len(trace), trace,
                           staleness_warnings)
