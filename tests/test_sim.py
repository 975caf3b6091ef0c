from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swarmsim.core import BlockStream, Posture, RobotGeometry, WheelSpeeds, wheels_to_twist
from swarmsim.sim import (
    LAG_END,
    LAG_MEAN,
    TICK_S,
    EncoderModel,
    FlowModel,
    PlantLoop,
    Rect,
    Segment,
    SensorNoise,
    SlipEvent,
    World,
    _cast_rays,
    sample_gyro,
    sample_gyros,
    sample_ir,
)
from test_engine import active_slip

GEOM = RobotGeometry()
QUIET = SensorNoise.noiseless()


def run_pi(command: tuple[float, float], seconds: float) -> PlantLoop:
    loop = PlantLoop(Posture(0, 0, 0), GEOM)
    loop.set_command(*command)
    for _ in range(round(seconds / TICK_S)):
        loop.advance()
    return loop


def _rolling(speed: float = 100.0, left: float | None = None) -> PlantLoop:
    """A plant already at its commanded speeds, so the PI update holds it."""
    left = speed if left is None else left
    return PlantLoop(Posture(0, 0, 0), GEOM,
                     command=WheelSpeeds(speed, left),
                     actual=WheelSpeeds(speed, left))


def _encoders(noise: SensorNoise = QUIET) -> EncoderModel:
    return EncoderModel(GEOM, noise)


def _flow(noise: SensorNoise = QUIET) -> FlowModel:
    return FlowModel(GEOM, noise)


# The normals of a noiseless window, which it scales by zero.
NO_NORMALS = (0.0, 0.0)


# --- wheel PI loop -----------------------------------------------------------


def test_pi_holds_setpoint_without_integrator_drift():
    loop = _rolling(100.0)
    for _ in range(100):
        loop.advance()
    assert loop.actual.right == pytest.approx(100.0, abs=1e-9)
    assert loop.integral == (0.0, 0.0)


def test_pi_step_converges_to_command():
    loop = run_pi((100, 100), seconds=2.0)
    assert loop.actual.right == pytest.approx(100.0, abs=1.0)
    assert loop.actual.left == pytest.approx(100.0, abs=1.0)


def test_pi_settles_quickly():
    loop = run_pi((100, 100), seconds=0.3)
    assert abs(loop.actual.right - 100.0) < 5.0   # within 5% band


def test_pi_saturates_not_rejects():
    loop = run_pi((300, 300), seconds=2.0)
    assert loop.actual.right == pytest.approx(180.0, abs=1.0)
    assert loop.actual.left == pytest.approx(180.0, abs=1.0)


def test_pi_never_exceeds_limit():
    loop = PlantLoop(Posture(0, 0, 0), GEOM, command=WheelSpeeds(180, -180))
    for _ in range(2000):
        loop.advance()
        assert abs(loop.actual.right) <= 180.0 + 1e-9
        assert abs(loop.actual.left) <= 180.0 + 1e-9


def test_pi_first_tick_hand_values():
    # From rest, command 50 mm/s: error 50, drive 50 + 0.8 * 50 = 90 held
    # for the tick, integral 50 * 0.0025. Command 200 saturates to 180:
    # drive 180 + 0.8 * 180 clips to 180 and the integral stays frozen.
    # The lag over 2.5 ms with tau 50 ms: a = exp(-0.05) ends the tick at
    # drive * (1 - a) and averages drive * (1 - (tau / dt) * (1 - a)).
    assert LAG_END == pytest.approx(0.951229424500714, rel=1e-14)
    assert LAG_MEAN == pytest.approx(0.97541150998572, rel=1e-13)
    loop = PlantLoop(Posture(0, 0, 0), GEOM, command=WheelSpeeds(50.0, 200.0))
    loop.advance()
    assert loop.integral == (pytest.approx(0.125, rel=1e-15), 0.0)
    assert loop.actual.right == pytest.approx(4.38935179493574, rel=1e-12)
    assert loop.actual.left == pytest.approx(8.77870358987148, rel=1e-12)
    assert loop.wheels.right == pytest.approx(2.2129641012852, rel=1e-11)
    assert loop.wheels.left == pytest.approx(4.4259282025704, rel=1e-11)
    assert loop.ground == loop.wheels


# --- plant stepping ---------------------------------------------------------


def test_plant_straight():
    loop = _rolling(100.0)
    for _ in range(40):      # 0.1 s
        loop.advance()
    assert loop.pose.x == pytest.approx(10.0, abs=1e-9)
    assert loop.pose.y == pytest.approx(0.0, abs=1e-12)
    assert loop.ground == loop.actual


def test_plant_stuck_freezes_body():
    stuck = SlipEvent(0.0, 1000.0, "stuck")
    loop = _rolling(100.0)
    for _ in range(40):
        loop.advance(slip=stuck)
    assert (loop.pose.x, loop.pose.y) == (0.0, 0.0)
    assert loop.actual.right == 100.0   # wheels keep spinning
    assert loop.ground == WheelSpeeds(0.0, 0.0)


def test_plant_scale_halves_motion():
    half = SlipEvent(0.0, 1000.0, "scale", factor=0.5)
    loop = _rolling(100.0)
    for _ in range(40):
        loop.advance(slip=half)
    assert loop.pose.x == pytest.approx(5.0, abs=1e-9)


def test_plant_tick_moves_along_the_chord():
    # Wheels held at (120, 80) mm/s: v = 100 mm/s and w = 0.4 rad/s, so one
    # 2.5 ms tick sweeps 1 mrad along a 0.25 mm arc, whose chord of
    # 0.25 * sin(0.0005) / 0.0005 mm points at the mid-tick heading.
    loop = _rolling(120.0, 80.0)
    loop.advance()
    chord = 0.25 * math.sin(0.0005) / 0.0005
    assert loop.pose.x == pytest.approx(chord * math.cos(0.0005), rel=1e-12)
    assert loop.pose.y == pytest.approx(chord * math.sin(0.0005), rel=1e-12)
    assert loop.pose.theta == pytest.approx(0.001, rel=1e-12)


def test_fused_loop_ground_speeds_follow_slip():
    loop = PlantLoop(Posture(0, 0, 0), GEOM)
    loop.set_command(120.0, 120.0)
    for _ in range(200):
        loop.advance()
    assert loop.ground.right == pytest.approx(120.0, abs=2.0)
    loop.advance(SlipEvent(0.0, 1e9, "stuck"))
    assert loop.ground == WheelSpeeds(0.0, 0.0)
    assert loop.actual.right == pytest.approx(120.0, abs=2.0)
    loop.advance(SlipEvent(0.0, 1e9, "scale", factor=0.5))
    assert loop.ground.right == pytest.approx(60.0, abs=2.0)


def test_active_slip_window():
    schedule = (SlipEvent(1000.0, 2000.0, "stuck"),)
    assert active_slip(schedule, 999.9) is None
    assert active_slip(schedule, 1000.0) is not None
    assert active_slip(schedule, 1999.9) is not None
    assert active_slip(schedule, 2000.0) is None


def test_slip_event_validation():
    with pytest.raises(ValueError):
        SlipEvent(5.0, 5.0, "stuck")
    with pytest.raises(ValueError):
        SlipEvent(0.0, 1.0, "sideways")


# --- encoders ---------------------------------------------------------------


def test_encoder_tick_hand_values():
    # Noiseless windows; travel in mm, 0.5 mm ticks. The count truncates
    # the cumulative travel toward zero.
    enc = _encoders()
    assert enc.sample_speeds(1.3, 0.2, 1.0, *NO_NORMALS) == (2, 0)
    assert enc._travel == [pytest.approx(1.3), pytest.approx(0.2)]
    assert enc.sample_speeds(0.0, 0.4, 1.0, *NO_NORMALS) == (2, 1)   # (0, 1) more
    assert enc._travel[1] == pytest.approx(0.6)
    enc = _encoders()
    assert enc.sample_speeds(-1.3, 0.0, 1.0, *NO_NORMALS) == (-2, 0)
    assert enc._travel[0] == pytest.approx(-1.3)
    # A reversal: 0.6 mm forward then 0.2 mm back leaves 0.4 mm, no tick.
    enc = _encoders()
    assert enc.sample_speeds(0.6, 0.0, 1.0, *NO_NORMALS) == (1, 0)
    assert enc.sample_speeds(-0.2, 0.0, 1.0, *NO_NORMALS) == (0, 0)   # (-1, 0) more


@given(st.lists(st.floats(min_value=-0.6, max_value=0.6), min_size=1, max_size=300))
def test_tick_carry_telescopes(displacements):
    # Cumulative ticks times the quantum never drifts more than one quantum
    # from the true cumulative displacement.
    enc = _encoders()
    total_disp = 0.0
    for d in displacements:
        total_ticks, _ = enc.sample_speeds(d, d, 1.0, *NO_NORMALS)
        total_disp += d
        assert abs(total_disp - total_ticks * 0.5) < 0.5 + 1e-9


def test_encoder_counts_constant_speed():
    enc = _encoders()
    for _ in range(400):           # 1 s of 2.5 ms windows at 100 mm/s
        r, l = enc.sample_speeds(0.25, 0.25, 0.0025, *NO_NORMALS)
        assert l == r
    # 100 mm of travel at 0.5 mm per tick.
    assert r == 200


def test_encoder_is_slip_blind():
    # Wheels spinning while the body is stuck still produce ticks.
    enc = _encoders()
    loop = _rolling(150.0)
    stuck = SlipEvent(0.0, 1e9, "stuck")
    for _ in range(400):
        loop.advance(slip=stuck)
        ticks = enc.sample_speeds(loop.wheels.right * TICK_S,
                                  loop.wheels.left * TICK_S, TICK_S, *NO_NORMALS)[0]
    assert (loop.pose.x, loop.pose.y) == (0.0, 0.0)
    assert ticks * GEOM.mm_per_tick == pytest.approx(150.0, abs=0.5)


def test_encoder_determinism():
    def run(seed):
        enc, rng = _encoders(SensorNoise()), np.random.default_rng(seed)
        return [enc.sample_speeds(8.61, 8.61, 0.07, rng.standard_normal(), rng.standard_normal())
                for _ in range(200)]

    assert run(7) == run(7)
    assert run(7) != run(8)


# --- optical flow ------------------------------------------------------------


def test_flow_pure_translation():
    dx_l, dx_r = _flow().sample_vw(10.0, 0.0, 0.1, *NO_NORMALS)
    assert dx_l == dx_r == pytest.approx(10.0)


def test_flow_pure_rotation():
    # A 0.1 rad turn in place with 60 mm sensor separation.
    dx_l, dx_r = _flow().sample_vw(0.0, 0.1, 0.1, *NO_NORMALS)
    assert dx_l == pytest.approx(-3.0, abs=1e-12)
    assert dx_r == pytest.approx(3.0, abs=1e-12)


def test_flow_is_slip_immune():
    loop = _rolling(150.0)
    loop.advance(SlipEvent(0, 1e9, "stuck"))
    stuck_twist = wheels_to_twist(loop.ground, GEOM)
    flow = _flow()
    assert flow.sample_vw(stuck_twist.v * TICK_S, stuck_twist.w * TICK_S,
                          TICK_S, *NO_NORMALS) == (0.0, 0.0)


def test_flow_scale_factor():
    noise = SensorNoise(encoder_sigma=0, flow_sigma=0, gyro_sigma=0, ir_sigma=0,
                        flow_scale=1.1)
    dx_l, dx_r = _flow(noise).sample_vw(1.0, 0.0, 0.01, *NO_NORMALS)
    assert dx_l == pytest.approx(1.1, abs=1e-12)


def test_flow_noise_statistics():
    # A 70 ms window of 1 ms samples at 25 mm/s each: one normal of sd
    # 25 * sqrt(0.001 * 0.07) mm.
    flow, rng = _flow(SensorNoise(flow_sigma=25.0)), np.random.default_rng(4)
    samples = np.array([flow.sample_vw(0.0, 0.0, 0.07, rng.standard_normal(),
                                       rng.standard_normal()) for _ in range(20_000)])
    assert abs(samples.mean()) < 0.01
    assert samples.std() == pytest.approx(25.0 * math.sqrt(0.001 * 0.07), rel=0.05)


# --- gyro ---------------------------------------------------------------------


def test_gyro_statistics():
    rng = np.random.default_rng(5)
    samples = np.array([sample_gyro(1.0, 0.01, rng.standard_normal()) for _ in range(20_000)])
    assert samples.mean() == pytest.approx(1.0, abs=0.001)
    assert samples.std() == pytest.approx(0.01, rel=0.05)
    assert np.all(samples > -math.pi) and np.all(samples <= math.pi)


def test_gyro_wraps_near_pi():
    rng = np.random.default_rng(6)
    samples = [sample_gyro(math.pi, 0.1, rng.standard_normal()) for _ in range(100)]
    assert all(-math.pi < s <= math.pi for s in samples)


# --- block streams -----------------------------------------------------------------


@pytest.mark.parametrize("size", [1, 3, 64])
def test_block_normals_continue_the_scalar_stream(size):
    scalar, block = np.random.default_rng([3, 0, 1]), np.random.default_rng([3, 0, 1])
    pairs = [v for _ in range(50) for v in scalar.standard_normal(2).tolist()]
    stream = BlockStream(block.standard_normal, size)
    assert [stream.next() for _ in range(100)] == pairs


@pytest.mark.parametrize("size", [1, 5, 64])
@pytest.mark.parametrize("lo, hi", [(50_000, 100_001), (-3, 4), (0, 2**40)])
def test_block_integers_continue_the_scalar_stream(size, lo, hi):
    scalar, block = np.random.default_rng([3, 0, 5]), np.random.default_rng([3, 0, 5])
    stream = BlockStream(lambda n: block.integers(lo, hi, size=n), size)
    assert ([stream.next() for _ in range(130)]
            == [int(scalar.integers(lo, hi)) for _ in range(130)])


@pytest.mark.parametrize("size", [1, 7, 64])
def test_block_doubles_continue_the_scalar_stream(size):
    # The channel's loss, flip and latency doubles: one at a time and
    # 240 at a time, as a frame's bit flips take them.
    scalar, block = np.random.default_rng(13), BlockStream(np.random.default_rng(13).random,
                                                           size)
    got = [block.next() for _ in range(3)] + block.take(240).tolist() + [block.next()]
    assert [v.hex() for v in got] == [scalar.random().hex() for _ in range(244)]


@pytest.mark.parametrize("reads", [
    [1, 65, 3], [64, 0, 1], [63, 1, 200, 2, 1], [0, 5, 0, 1000, 64, 64, 1],
])
def test_block_normals_take_continues_the_scalar_stream(reads):
    # Scalar reads and take(k) in turn, across and inside draw blocks.
    scalar = np.random.default_rng(11)
    block = BlockStream(np.random.default_rng(11).standard_normal)
    got, want = [], []
    for i, k in enumerate(reads):
        if i % 2:
            got += block.take(k).tolist()
        else:
            got += [block.next() for _ in range(k)]
        want += [scalar.standard_normal() for _ in range(k)]
    assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("first", [0, 1, 60, 64])
def test_block_integers_take_crosses_a_block_as_int64(first):
    # The report clock's windows: a take after `first` scalar reads, which
    # leave 64 - first values of the block (none at 0 and 64), reaches
    # into the next draw and stays int64.
    scalar, block = np.random.default_rng(17), np.random.default_rng(17)
    stream = BlockStream(lambda n: block.integers(50_000, 90_001, size=n))
    head = [stream.next() for _ in range(first)]
    taken = stream.take(64)
    assert taken.dtype == np.int64
    assert head + taken.tolist() + [stream.next()] == [
        int(scalar.integers(50_000, 90_001)) for _ in range(first + 65)]


# --- array forms of the sensor models -----------------------------------------------


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


windows = st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
                             st.integers(1, 200_000)), min_size=1, max_size=60)


@settings(max_examples=200, deadline=None)
@given(windows, st.sampled_from((0.5, 0.013, 3.0, 1e-300)),
       st.sampled_from((0.0, 1.0, 40.0)), st.integers(0, 2**32))
@example([(1e300, -1e300, 70_000)], 0.5, 1.0, 0)   # an int64 count overflows
@example([(0.4, 0.1, 70_000)], 5e-324, 1.0, 0)      # count_ticks' Fraction path
def test_encoder_windows_are_sample_speeds_in_turn(moves, mm_per_tick, sigma, seed):
    geometry = RobotGeometry(mm_per_tick=mm_per_tick)
    noise = SensorNoise(encoder_sigma=sigma)
    scalar, batch = EncoderModel(geometry, noise), EncoderModel(geometry, noise)
    for model in (scalar, batch):   # a start away from zero
        model._travel = [0.3, -0.7]
    normals = np.random.default_rng(seed).standard_normal(2 * len(moves))
    counts, quotients = [], []
    for (right, left, window_us), normal_r, normal_l in zip(
            moves, normals[0::2].tolist(), normals[1::2].tolist()):
        counts.append(list(scalar.sample_speeds(right, left, window_us / 1e6,
                                                normal_r, normal_l)))
        quotients += [t / mm_per_tick for t in scalar._travel]
    right, left, window_us = (np.array(c) for c in zip(*moves))
    before = batch._travel[:]
    got = batch.sample_windows(right, left, window_us / 1e6, normals)
    if got is None:
        # A count left int64, and the model is as it was.
        assert not all(abs(q) < 2.0 ** 62 for q in quotients)
        assert batch._travel == before
        return
    assert got.T.tolist() == counts
    assert _hexes(batch._travel) == _hexes(scalar._travel)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(-0.5, 0.5),
                          st.integers(1, 200_000)), min_size=1, max_size=60),
       st.sampled_from((0.0, 25.0)), st.sampled_from((1.0, 1.3)), st.integers(0, 2**32))
def test_flow_windows_are_sample_vw_in_turn(moves, sigma, scale, seed):
    noise = SensorNoise(flow_sigma=sigma, flow_scale=scale)
    flow = FlowModel(GEOM, noise)
    normals = np.random.default_rng(seed).standard_normal(2 * len(moves))
    want = [flow.sample_vw(path, turn, window_us / 1e6, normal_l, normal_r)
            for (path, turn, window_us), normal_l, normal_r
            in zip(moves, normals[0::2].tolist(), normals[1::2].tolist())]
    path, turn, window_us = (np.array(c) for c in zip(*moves))
    got = flow.sample_windows(path, turn, window_us / 1e6, normals)
    assert [_hexes(pair) for pair in got.T.tolist()] == [_hexes(pair) for pair in want]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-math.pi, math.pi) | st.sampled_from((math.pi, -0.0, 0.0)),
                min_size=1, max_size=60),
       st.sampled_from((0.0, 0.01, 3.0, 1e308)), st.integers(0, 2**32))
def test_gyro_array_is_sample_gyro_in_turn(headings, sigma, seed):
    normals = np.random.default_rng(seed).standard_normal(len(headings))
    try:
        want = _hexes(sample_gyro(h, sigma, n) for h, n in zip(headings, normals.tolist()))
    except ValueError:
        want = None   # a reading overflowed
    got = sample_gyros(np.array(headings), sigma, normals)
    assert (got if got is None else _hexes(got)) == want


# --- IR ranging -----------------------------------------------------------------


AT_ORIGIN = ([0.0], [0.0], [0.0])   # x, y, theta of one pose


def test_ir_wall_ahead():
    world = World(bounds=Rect(-3000, -3000, 3000, 3000),
                  segments=(Segment(500, -400, 500, 400),))
    readings = sample_ir(world, *AT_ORIGIN, GEOM, QUIET, np.random.default_rng(7)).scans()[0]
    assert readings[0] == pytest.approx(500.0, abs=1e-9)


def test_ir_below_minimum_range():
    world = World(bounds=Rect(-3000, -3000, 3000, 3000),
                  segments=(Segment(150, -400, 150, 400),))
    readings = sample_ir(world, *AT_ORIGIN, GEOM, QUIET, np.random.default_rng(8)).scans()[0]
    assert readings[0] is None


def test_ir_beyond_maximum_range():
    world = World(bounds=Rect(-3000, -3000, 3000, 3000))
    readings = sample_ir(world, *AT_ORIGIN, GEOM, QUIET, np.random.default_rng(9)).scans()[0]
    assert readings[0] is None   # wall 3000 mm ahead, limit 1500


def test_ir_blind_spot_between_rays():
    # A small block at bearing 36 degrees falls between the forward ray and
    # the 72 degree ray: no reading changes.
    base = World(bounds=Rect(-3000, -3000, 3000, 3000))
    blocked = World(bounds=base.bounds, rects=(Rect(313, 225, 333, 245),))
    a = sample_ir(base, *AT_ORIGIN, GEOM, QUIET, np.random.default_rng(10)).scans()[0]
    b = sample_ir(blocked, *AT_ORIGIN, GEOM, QUIET, np.random.default_rng(10)).scans()[0]
    assert a == b


def test_ir_rect_obstacle_and_noise():
    world = World(bounds=Rect(-3000, -3000, 3000, 3000),
                  rects=(Rect(400, -100, 600, 100),))
    noise = SensorNoise(ir_sigma=1.0)
    rng = np.random.default_rng(11)
    samples = [sample_ir(world, *AT_ORIGIN, GEOM, noise, rng).scans()[0][0]
               for _ in range(2000)]
    assert np.mean(samples) == pytest.approx(400.0, abs=0.1)
    assert np.std(samples) == pytest.approx(1.0, rel=0.1)


def test_ir_outside_world_rejected():
    world = World(bounds=Rect(-100, -100, 100, 100))
    with pytest.raises(ValueError):
        sample_ir(world, [500.0], [0.0], [0.0], GEOM, QUIET, np.random.default_rng(12))


def test_cast_rays_hit_bounds():
    world = World(bounds=Rect(-1000, -1000, 1000, 1000))
    angles = [0.0, math.pi / 2, math.pi / 4]
    dist = _cast_rays(world, np.zeros(3), np.zeros(3), np.array([math.cos(a) for a in angles]),
                      np.array([math.sin(a) for a in angles]))
    assert dist == pytest.approx([1000.0, 1000.0, 1000.0 * math.sqrt(2)])


# --- slip observability -------------------------------------------------------


def test_stuck_interval_discrepancy():
    # During a stuck interval encoder-implied speed stays high while
    # flow-implied speed is zero: the signature slip detection keys on.
    enc = _encoders()
    flow = _flow()
    loop = _rolling(150.0)
    stuck = SlipEvent(0.0, 1e9, "stuck")
    flow_disp = 0.0
    for _ in range(400):
        loop.advance(slip=stuck)
        ticks_r, _ = enc.sample_speeds(loop.wheels.right * TICK_S,
                                       loop.wheels.left * TICK_S, TICK_S, *NO_NORMALS)
        twist = wheels_to_twist(loop.ground, GEOM)
        flow_disp += sum(flow.sample_vw(twist.v * TICK_S, twist.w * TICK_S,
                                        TICK_S, *NO_NORMALS)) / 2
    enc_disp = ticks_r * GEOM.mm_per_tick
    assert enc_disp / 1.0 > 100.0   # implied speed, mm/s
    assert flow_disp == 0.0


def test_straight_dead_reckoning_quantization_limited():
    # Noiseless encoders reconstruct a straight 10 s run to within one
    # tick quantum.
    enc = _encoders()
    loop = _rolling(123.43)
    for _ in range(4000):
        loop.advance()
        total_ticks = enc.sample_speeds(loop.wheels.right * TICK_S,
                                        loop.wheels.left * TICK_S, TICK_S, *NO_NORMALS)[0]
    reconstructed = total_ticks * GEOM.mm_per_tick
    assert abs(reconstructed - loop.pose.x) < 0.5


def test_clearance_of_a_segment_too_short_to_square():
    # The segment's squared length underflows to 0.0; its distance is that
    # of its endpoints, not a division by zero.
    world = World(segments=(Segment(0.0, 0.0, 0.0, 1.0654625120938912e-240),))
    assert world.clearance(400.0, 250.0) == math.hypot(400.0, 250.0)
