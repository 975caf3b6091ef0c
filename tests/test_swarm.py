from __future__ import annotations

import math
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmsim import swarm
from swarmsim.comms import (ChannelModel, FreshnessBuffer, SensorPacket, StarChannel,
                            encode_frame)
from swarmsim.control import Gains, tracking_control
from swarmsim.core import (Posture, RobotGeometry, integrate_unicycle, saturate,
                           wheels_to_twist, wrap_angle)
from swarmsim.sim import BlockNormals, sample_gyro
from swarmsim.swarm import (
    ConsensusConfig,
    ConsensusResult,
    RoundRecord,
    _check_settled,
    _turn_step,
    _turn_wheels,
    consensus_step,
    mean_heading,
    run_networked_consensus,
    run_synchronous_consensus,
    spread,
    swarm_headings,
)

IDEAL = ChannelModel(latency_min_ms=0.0, latency_max_ms=0.0)

headings_strategy = st.lists(
    st.floats(-1.5, 1.5, allow_nan=False), min_size=2, max_size=12)


# --- algebra ---------------------------------------------------------------------


def test_mean_examples():
    assert mean_heading([0.0, 1.0]) == 0.5
    assert mean_heading([0.7, 0.7, 0.7]) == pytest.approx(0.7)
    assert mean_heading([0.1, 0.2, 0.6]) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        mean_heading([])


def test_step_examples():
    assert consensus_step((0.0, 1.0), 0.5).tolist() == [0.25, 0.75]
    assert consensus_step((0.0, 1.0), 1.0).tolist() == [0.5, 0.5]
    same = consensus_step((0.3, 0.3, 0.3), 0.7)
    assert same.tolist() == [0.3, 0.3, 0.3]


def test_step_gain_domain():
    for bad in (0.0, 2.0, -0.5, 2.5):
        with pytest.raises(ValueError):
            consensus_step((0.0, 1.0), bad)


def test_swarm_needs_two_agents():
    with pytest.raises(ValueError, match="a swarm needs at least two agents"):
        swarm_headings((0.1,))
    assert swarm_headings(np.array([0.1, 0.2])) == (0.1, 0.2)


@given(headings_strategy, st.floats(0.01, 1.99))
def test_mean_preserved(headings, k):
    after = consensus_step(headings, k)
    assert mean_heading(after) == pytest.approx(mean_heading(headings),
                                                rel=1e-12, abs=1e-12)


@given(headings_strategy, st.floats(0.01, 1.99))
def test_pairwise_contraction(headings, k):
    after = consensus_step(headings, k)
    for i in range(len(headings)):
        for j in range(i + 1, len(headings)):
            want = (1 - k) * (headings[i] - headings[j])
            got = after[i] - after[j]
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_spread_contracts_geometrically_over_fifty_rounds():
    headings = (0.9, -0.7, 0.35, -0.15, 0.2, -0.3)
    k = 0.2
    initial = spread(headings)
    for _ in range(50):
        headings = consensus_step(headings, k)
    assert spread(headings) == pytest.approx(abs(1 - k) ** 50 * initial, rel=1e-12)


def test_fixed_point_iff_equal():
    moved = consensus_step((0.1, 0.1, 0.100001), 0.5)
    assert moved.tolist() != [0.1, 0.1, 0.100001]
    fixed = consensus_step((0.25, 0.25), 0.5)
    assert fixed.tolist() == [0.25, 0.25]


# --- synchronous runner ------------------------------------------------------------


def test_synchronous_run_converges():
    cfg = ConsensusConfig(k=0.2, mode="synchronous")
    result = run_synchronous_consensus((0.9, -0.7, 0.35, -0.15, 0.2, -0.3), cfg)
    assert result.converged
    assert result.trace[-1].spread < cfg.epsilon
    means = [row.mean for row in result.trace]
    assert max(means) - min(means) < 1e-12
    spreads = [row.spread for row in result.trace]
    assert all(b <= a + 1e-15 for a, b in zip(spreads, spreads[1:]))


def test_synchronous_equal_headings_converges_immediately():
    cfg = ConsensusConfig(k=0.5, mode="synchronous", settle_rounds=10)
    result = run_synchronous_consensus((0.4, 0.4, 0.4), cfg)
    assert result.converged
    assert result.rounds < cfg.settle_rounds


def test_synchronous_respects_max_rounds():
    # Tiny epsilon that plain float spread cannot reach in the budget.
    cfg = ConsensusConfig(k=0.01, epsilon=1e-300, max_rounds=40,
                          mode="synchronous")
    result = run_synchronous_consensus((0.0, 1.0), cfg)
    assert not result.converged
    assert result.rounds == 40


# --- oracle: a frozen swarm state stepped as tuples -----------------------------------


@dataclass(frozen=True)
class _SwarmState:
    headings: tuple[float, ...]
    round: int = 0

    def __post_init__(self):
        object.__setattr__(self, "headings", tuple(float(h) for h in self.headings))
        if len(self.headings) < 2:
            raise ValueError("a swarm needs at least two agents")

    @property
    def mean(self) -> float:
        return mean_heading(self.headings)

    @property
    def spread(self) -> float:
        return spread(self.headings)


def _tuple_step(state: _SwarmState, k: float) -> _SwarmState:
    if not 0.0 < k < 2.0:
        raise ValueError("consensus gain must lie in (0, 2)")
    m = state.mean
    return _SwarmState(tuple(h + k * (m - h) for h in state.headings), state.round + 1)


def reference_synchronous_consensus(initial_headings, cfg):
    """The synchronous rounds with every heading a float of a tuple."""
    state = _SwarmState(tuple(initial_headings))
    period_s = cfg.round_period_ms / 1e3
    trace = [RoundRecord(0.0, state.headings, state.mean, state.spread)]
    streak = _check_settled(0, state.spread, cfg)
    while state.round < cfg.max_rounds and streak < cfg.settle_rounds:
        state = _tuple_step(state, cfg.k)
        trace.append(RoundRecord(state.round * period_s, state.headings,
                                 state.mean, state.spread))
        streak = _check_settled(streak, state.spread, cfg)
    converged = streak >= cfg.settle_rounds
    return ConsensusResult(converged, state.round * period_s, state.round, trace)


def _outcome(run, *args):
    """The bits of run(*args)'s result, or the type and text of its error."""
    try:
        return _result_bits(run(*args))
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(headings=st.lists(st.one_of(st.floats(-12.0, 12.0), st.floats(-1e300, 1e300)),
                         min_size=2, max_size=64),
       k=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
       epsilon=st.one_of(st.floats(1e-12, 0.5), st.just(1e-300)),
       settle_rounds=st.integers(1, 12), max_rounds=st.integers(1, 300),
       round_period_ms=st.sampled_from((70.0, 70.5, 33.3)))
@example(headings=[-1.2, -0.7, -0.2, 0.3, 0.8, 1.3], k=0.2, epsilon=0.01,
         settle_rounds=10, max_rounds=2000, round_period_ms=70.0)
@example(headings=[0.4, 0.4, 0.4], k=0.5, epsilon=0.01, settle_rounds=10,
         max_rounds=2000, round_period_ms=70.0)
@example(headings=[0.0, -0.0, 5e-324], k=1.0, epsilon=1e-300, settle_rounds=3,
         max_rounds=5, round_period_ms=70.0)
# The steps overflow to infinities, whose mean fsum then rejects.
@example(headings=[1.7e308, -1.7e308, -1.7e308], k=1.9, epsilon=0.01,
         settle_rounds=10, max_rounds=20, round_period_ms=70.0)
def test_synchronous_consensus_matches_the_tuple_oracle(
        headings, k, epsilon, settle_rounds, max_rounds, round_period_ms):
    cfg = ConsensusConfig(k=k, epsilon=epsilon, max_rounds=max_rounds,
                          mode="synchronous", round_period_ms=round_period_ms,
                          settle_rounds=settle_rounds)
    assert (_outcome(run_synchronous_consensus, headings, cfg)
            == _outcome(reference_synchronous_consensus, headings, cfg))


# --- networked runner ---------------------------------------------------------------


def test_networked_ideal_channel_converges_within_ten_seconds():
    rng = np.random.default_rng(11)
    headings = rng.uniform(-math.pi / 2, math.pi / 2, size=6)
    cfg = ConsensusConfig(k=0.2)
    result = run_networked_consensus(headings, cfg, channel_model=IDEAL, seed=5)
    assert result.converged
    assert result.time_s < 10.0
    assert result.trace[-1].spread < cfg.epsilon
    # The consensus value stays inside the initial heading hull.
    assert min(headings) - 0.01 < result.trace[-1].mean < max(headings) + 0.01


def test_networked_total_loss_never_converges():
    cfg = ConsensusConfig(k=0.2, max_rounds=200)
    dead = ChannelModel(loss_prob=1.0)
    result = run_networked_consensus((0.0, 1.0), cfg, channel_model=dead, seed=3)
    assert not result.converged
    assert result.rounds == 0
    assert result.trace == []


def test_networked_equal_headings_converges_at_first_checks():
    cfg = ConsensusConfig(k=0.2, settle_rounds=10)
    result = run_networked_consensus((0.5, 0.5, 0.5), cfg, channel_model=IDEAL,
                                     seed=1)
    assert result.converged
    assert result.rounds == cfg.settle_rounds
    assert all(row.spread == 0.0 for row in result.trace)


def test_networked_default_channel_converges_across_gains_and_sizes():
    # Default star channel: 50-100 ms latency and 5% loss. Epsilon sits
    # above the 1 mrad wire lattice: at K=0.1 the per-round correction near
    # spread 0.01 rounds to zero on the wire, parking the buffered spread
    # exactly one lattice step wide.
    channel = ChannelModel(loss_prob=0.05)
    for seed in range(20):
        k = (0.1, 0.3, 0.5)[seed % 3]
        n = 2 + seed % 9
        rng = np.random.default_rng([99, seed])
        headings = rng.uniform(-1.4, 1.4, size=n)
        cfg = ConsensusConfig(k=k, epsilon=0.02, max_rounds=300)
        result = run_networked_consensus(headings, cfg, channel_model=channel,
                                         seed=seed)
        assert result.converged, f"seed {seed}: k={k} n={n} did not converge"
        assert result.time_s <= 15.0


def test_networked_counts_staleness_warnings():
    lossy = ChannelModel(loss_prob=0.9)
    cfg = ConsensusConfig(k=0.2, max_rounds=400, staleness_horizon_ms=200.0)
    result = run_networked_consensus((1.0, -1.0, 0.3), cfg, channel_model=lossy,
                                     seed=7)
    assert result.staleness_warnings > 0


def test_networked_determinism():
    cfg = ConsensusConfig(k=0.3, max_rounds=300)
    runs = [
        run_networked_consensus((0.8, -0.6, 0.1, 0.4), cfg,
                                channel_model=ChannelModel(loss_prob=0.05),
                                seed=21)
        for _ in range(2)
    ]
    assert runs[0].trace == runs[1].trace
    assert runs[0].time_s == runs[1].time_s


def _bits(pair):
    # float.hex tells -0.0 from 0.0, which == does not.
    return tuple(v.hex() for v in pair)


@settings(max_examples=300, deadline=None)
@given(robot_id=st.integers(0, 30), heading=st.floats(-math.pi, math.pi),
       target=st.one_of(st.none(), st.floats(-10.0, 10.0)),
       turn_gain=st.one_of(st.floats(1e-6, 1e6), st.sampled_from((8.0, 1e6))),
       wheel_base=st.one_of(st.floats(1e-3, 1e6), st.just(100.0)))
@example(robot_id=0, heading=0.0, target=-0.0, turn_gain=8.0, wheel_base=100.0)
@example(robot_id=1, heading=-1.4, target=1.4, turn_gain=8.0, wheel_base=100.0)
def test_turning_robot_matches_a_pure_turn_of_the_tracking_controller(
        robot_id, heading, target, turn_gain, wheel_base):
    # The turn-in-place robot once ran tracking_control with a reference
    # at its own pose, zero speed and the turn as feedforward; its wheel
    # pair, saturated or not, and its step must stay that bit for bit.
    geometry = RobotGeometry(wheel_base=wheel_base)
    theta = np.array([wrap_angle(heading)])
    goal = np.array([heading if target is None else target])
    pose = Posture(300.0 * robot_id, 0.0, heading)
    w = turn_gain * wrap_angle(goal[0] - pose.theta)
    expected = tracking_control(pose, pose, 0.0, w, Gains(), geometry)
    right, left = _turn_wheels(theta, goal, turn_gain, wheel_base)
    assert _bits((right.item(), left.item())) == _bits((expected.right, expected.left))
    after = integrate_unicycle(pose, wheels_to_twist(expected, geometry), 0.07)
    stepped = _turn_step(theta, goal, turn_gain, wheel_base, 0.07)
    assert stepped.item().hex() == after.theta.hex()
    # The pair has zero forward speed, so the plant never moves the robot:
    # it need not keep x and y.
    assert (after.x.hex(), after.y.hex()) == (pose.x.hex(), pose.y.hex())


# --- oracle: one object per robot, frames encoded one by one -------------------------


class _TurningRobot:
    """Robot that holds position and turns in place toward a target heading."""

    def __init__(self, robot_id: int, heading: float, wheel_base: float,
                 gyro_sigma: float, rng: BlockNormals):
        self.robot_id = robot_id
        self.theta = wrap_angle(heading)
        self.target = heading
        self.wheel_base = wheel_base
        self.gyro_sigma = gyro_sigma
        self.rng = rng

    def report(self, t_sent: int) -> bytes:
        packet = SensorPacket(
            robot_id=self.robot_id, t_sent=t_sent,
            ticks_left=0, ticks_right=0,
            flow_dx_left=0.0, flow_dx_right=0.0,
            gyro_heading=sample_gyro(self.theta, self.gyro_sigma, self.rng),
        )
        return encode_frame(packet)

    def wheels(self, turn_gain: float) -> tuple[float, float]:
        w_cmd = turn_gain * wrap_angle(self.target - self.theta)
        half_turn = self.wheel_base / 2.0 * w_cmd
        return saturate(0.0 + half_turn, 0.0 - half_turn)

    def advance(self, dt_s: float, turn_gain: float):
        right, left = self.wheels(turn_gain)
        self.theta = wrap_angle(self.theta + (right - left) / self.wheel_base * dt_s)


def reference_consensus(headings, cfg, channel_model, geometry, gyro_sigma, seed):
    """The per-robot round loop; returns the result and its channel."""
    robots = [
        _TurningRobot(i, float(h), geometry.wheel_base, gyro_sigma,
                      BlockNormals(np.random.default_rng([seed, i, 1])))
        for i, h in enumerate(headings)
    ]
    channel = StarChannel(channel_model, np.random.default_rng([seed, 0xFFFF, 2]))
    buffer = FreshnessBuffer()
    expected_ids = [r.robot_id for r in robots]
    period_s = cfg.round_period_ms / 1e3
    trace = []
    staleness_warnings = 0
    streak = 0
    for round_idx in range(1, cfg.max_rounds + 1):
        t_ms = round_idx * cfg.round_period_ms
        t_sent = int(round(t_ms))
        for robot in robots:
            channel.send(robot.report(t_sent), t_ms, robot.robot_id)
        for packet in channel.receive(t_ms):
            buffer.update(packet)
        if buffer.robot_ids() == expected_ids:
            latest = [buffer.latest(i) for i in expected_ids]
            for packet in latest:
                if t_ms - packet.t_sent > cfg.staleness_horizon_ms:
                    staleness_warnings += 1
            values = [p.gyro_heading for p in latest]
            m = mean_heading(values)
            for robot, h in zip(robots, values):
                robot.target = h + cfg.k * (m - h)
            width = spread(values)
            trace.append(RoundRecord(t_ms / 1e3, tuple(values), m, width))
            streak = _check_settled(streak, width, cfg)
            if streak >= cfg.settle_rounds:
                return ConsensusResult(True, t_ms / 1e3, len(trace), trace,
                                       staleness_warnings), channel
        for robot in robots:
            robot.advance(period_s, cfg.turn_gain)
    return ConsensusResult(False, cfg.max_rounds * period_s, len(trace), trace,
                           staleness_warnings), channel


def _result_bits(result: ConsensusResult) -> tuple:
    records = [(r.t_s.hex(), tuple(h.hex() for h in r.headings), r.mean.hex(),
                r.spread.hex()) for r in result.trace]
    return (result.converged, result.time_s.hex(), result.rounds,
            result.staleness_warnings, records)


def _channel_counts(channel: StarChannel) -> tuple[int, int, int, int]:
    return channel.sent, channel.dropped, channel.undecodable, channel.pending


@settings(max_examples=120, deadline=None)
@given(headings=st.lists(st.floats(-12.0, 12.0), min_size=2, max_size=256),
       gyro_sigma=st.sampled_from((0.0, 0.01, 0.3)),
       loss=st.floats(0.0, 0.5), bit_flip=st.sampled_from((0.0, 0.002)),
       latency_min=st.floats(0.0, 100.0), latency_span=st.floats(0.0, 300.0),
       k=st.floats(0.05, 1.95), epsilon=st.floats(1e-3, 0.5),
       settle_rounds=st.integers(1, 10), max_rounds=st.integers(1, 90),
       round_period_ms=st.sampled_from((70.0, 70.5, 33.3)),
       staleness_horizon_ms=st.floats(50.0, 500.0),
       turn_gain=st.one_of(st.just(8.0), st.floats(0.5, 1e4)),
       wheel_base=st.one_of(st.just(100.0), st.floats(1e-3, 1e3)),
       seed=st.integers(0, 2**32))
@example(headings=[-4.0 + 0.03125 * i for i in range(256)], gyro_sigma=0.3, loss=0.5,
         bit_flip=0.002, latency_min=0.0, latency_span=300.0, k=0.2, epsilon=0.01,
         settle_rounds=10, max_rounds=80, round_period_ms=70.0,
         staleness_horizon_ms=100.0, turn_gain=1e4, wheel_base=1e-3, seed=5)
@example(headings=[math.pi, -math.pi, 3 * math.pi, -7.5, 0.0, -0.0], gyro_sigma=0.0,
         loss=0.1, bit_flip=0.0, latency_min=50.0, latency_span=50.0, k=0.2,
         epsilon=0.01, settle_rounds=10, max_rounds=90, round_period_ms=70.0,
         staleness_horizon_ms=500.0, turn_gain=8.0, wheel_base=100.0, seed=0)
def test_networked_consensus_matches_the_per_robot_oracle(
        headings, gyro_sigma, loss, bit_flip, latency_min, latency_span, k, epsilon,
        settle_rounds, max_rounds, round_period_ms, staleness_horizon_ms, turn_gain,
        wheel_base, seed):
    cfg = ConsensusConfig(k=k, epsilon=epsilon, max_rounds=max_rounds,
                          round_period_ms=round_period_ms, settle_rounds=settle_rounds,
                          staleness_horizon_ms=staleness_horizon_ms,
                          turn_gain=turn_gain)
    model = ChannelModel(latency_min_ms=latency_min,
                         latency_max_ms=latency_min + latency_span,
                         loss_prob=loss, bit_flip_prob=bit_flip)
    geometry = RobotGeometry(wheel_base=wheel_base)
    expected, expected_channel = reference_consensus(
        headings, cfg, model, geometry, gyro_sigma, seed)
    channels = []

    def recording_channel(*args):
        channels.append(StarChannel(*args))
        return channels[-1]

    with mock.patch.object(swarm, "StarChannel", recording_channel):
        result = run_networked_consensus(headings, cfg, channel_model=model,
                                         geometry=geometry, gyro_sigma=gyro_sigma,
                                         seed=seed)
    assert _result_bits(result) == _result_bits(expected)
    assert _channel_counts(channels[0]) == _channel_counts(expected_channel)


def test_config_validation():
    with pytest.raises(ValueError):
        ConsensusConfig(k=2.0)
    with pytest.raises(ValueError):
        ConsensusConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        ConsensusConfig(mode="gossip")
    with pytest.raises(ValueError):
        ConsensusConfig(settle_rounds=0)
