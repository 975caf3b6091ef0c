from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmsim.comms import ChannelModel
from swarmsim.control import Gains, tracking_control
from swarmsim.core import (Posture, RobotGeometry, integrate_unicycle, wheels_to_twist,
                           wrap_angle)
from swarmsim.swarm import (
    ConsensusConfig,
    SwarmState,
    _TurningRobot,
    consensus_step,
    mean_heading,
    run_networked_consensus,
    run_synchronous_consensus,
    spread,
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
    s = consensus_step(SwarmState((0.0, 1.0)), 0.5)
    assert s.headings == (0.25, 0.75)
    assert s.round == 1
    assert consensus_step(SwarmState((0.0, 1.0)), 1.0).headings == (0.5, 0.5)
    same = consensus_step(SwarmState((0.3, 0.3, 0.3)), 0.7)
    assert same.headings == (0.3, 0.3, 0.3)


def test_step_gain_domain():
    for bad in (0.0, 2.0, -0.5, 2.5):
        with pytest.raises(ValueError):
            consensus_step(SwarmState((0.0, 1.0)), bad)


def test_swarm_needs_two_agents():
    with pytest.raises(ValueError):
        SwarmState((0.1,))


@given(headings_strategy, st.floats(0.01, 1.99))
def test_mean_preserved(headings, k):
    before = SwarmState(tuple(headings))
    after = consensus_step(before, k)
    assert after.mean == pytest.approx(before.mean, rel=1e-12, abs=1e-12)


@given(headings_strategy, st.floats(0.01, 1.99))
def test_pairwise_contraction(headings, k):
    before = SwarmState(tuple(headings))
    after = consensus_step(before, k)
    for i in range(len(headings)):
        for j in range(i + 1, len(headings)):
            want = (1 - k) * (before.headings[i] - before.headings[j])
            got = after.headings[i] - after.headings[j]
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_spread_contracts_geometrically_over_fifty_rounds():
    state = SwarmState((0.9, -0.7, 0.35, -0.15, 0.2, -0.3))
    k = 0.2
    initial = state.spread
    for _ in range(50):
        state = consensus_step(state, k)
    assert state.spread == pytest.approx(abs(1 - k) ** 50 * initial, rel=1e-12)


def test_fixed_point_iff_equal():
    moved = consensus_step(SwarmState((0.1, 0.1, 0.100001)), 0.5)
    assert moved.headings != (0.1, 0.1, 0.100001)
    fixed = consensus_step(SwarmState((0.25, 0.25)), 0.5)
    assert fixed.headings == (0.25, 0.25)


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
    robot = _TurningRobot(robot_id, heading, wheel_base, 0.0,
                          np.random.default_rng(0))
    robot.target = heading if target is None else target
    pose = Posture(300.0 * robot_id, 0.0, heading)
    w = turn_gain * wrap_angle(robot.target - pose.theta)
    expected = tracking_control(pose, pose, 0.0, w, Gains(), geometry)
    assert _bits(robot.wheels(turn_gain)) == _bits((expected.right, expected.left))
    robot.advance(0.07, turn_gain)
    after = integrate_unicycle(pose, wheels_to_twist(expected, geometry), 0.07)
    assert robot.theta.hex() == after.theta.hex()
    # The pair has zero forward speed, so the plant never moves the robot:
    # it need not keep x and y.
    assert (after.x.hex(), after.y.hex()) == (pose.x.hex(), pose.y.hex())


def test_config_validation():
    with pytest.raises(ValueError):
        ConsensusConfig(k=2.0)
    with pytest.raises(ValueError):
        ConsensusConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        ConsensusConfig(mode="gossip")
    with pytest.raises(ValueError):
        ConsensusConfig(settle_rounds=0)
