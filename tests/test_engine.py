"""The fused sensor engine against the reference plant.

`RobotSim.advance_to` writes the plant tick and slip lookup inline or, in
a call that runs at least `MIN_BLOCK_TICKS` ticks, computes them in blocks,
and samples each report window through `EncoderModel` and `FlowModel` on
block-drawn noise. `ReferenceSim` below is the engine as one call per tick
and per window: it calls `PlantLoop.advance` once per tick,
`integrate_unicycle` for a pose inside a tick, `EncoderModel.sample_speeds`
and `FlowModel.sample_vw` once per report window, and `sample_gyro` and
`sample_ir`, with normals it draws one at a time from its own Generators.
Both must produce the same packets, truth, pose, wheel state and counters,
bit for bit.
"""

from __future__ import annotations

import hashlib
import math
import runpy
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swarmsim import sim as sim_module
from swarmsim.cli import runner
from swarmsim.cli.runner import simulate_reports
from swarmsim.cli.scenario import load_scenario
from swarmsim.comms import SensorPacket, StarChannel, encode_frame, wrap_flow, wrap_i16
from swarmsim.control import Gains, circle_trajectory, tracking_control
from swarmsim.core import (Posture, RobotGeometry, WheelSpeeds, _wrapped_heading,
                           integrate_unicycle, wheels_to_twist, wrap_angle)
from swarmsim.estimation import EkfConfig, ReportConverter, filter_step, initial_belief
from swarmsim.sim import (
    MIN_BLOCK_TICKS,
    STREAM_CHANNEL,
    STREAM_ENCODER,
    STREAM_FLOW,
    STREAM_GYRO,
    STREAM_IR,
    STREAM_SCHEDULE,
    TICK_S,
    TICK_US,
    EncoderModel,
    FlowModel,
    PlantLoop,
    Rates,
    Rect,
    RobotSim,
    RuntimeFault,
    SensorNoise,
    SlipEvent,
    World,
    sample_gyro,
    sample_ir,
    stream_rng,
)

GEOM = RobotGeometry()


def active_slip(schedule: tuple[SlipEvent, ...], t_ms: float) -> SlipEvent | None:
    """The event of the schedule whose [start_ms, end_ms) holds t_ms."""
    for event in schedule:
        if event.start_ms <= t_ms < event.end_ms:
            return event
    return None


class ReferenceSim:
    """One robot's engine with one call per plant tick and report window."""

    def __init__(self, noise: SensorNoise, start: Posture, seed: int,
                 slip_schedule: tuple[SlipEvent, ...], rates: Rates,
                 world: World | None):
        self.noise = noise
        self.world = world
        self.slip_schedule = slip_schedule
        self.loop = PlantLoop(start, GEOM)
        self.encoders = EncoderModel(GEOM, noise)
        self.encoder_rng = stream_rng(seed, 0, STREAM_ENCODER)
        self.flow = FlowModel(GEOM, noise)
        self.flow_rng = stream_rng(seed, 0, STREAM_FLOW)
        self.gyro_rng = stream_rng(seed, 0, STREAM_GYRO)
        self.ir_rng = stream_rng(seed, 0, STREAM_IR)
        self.schedule_rng = stream_rng(seed, 0, STREAM_SCHEDULE)
        self.truth_at_send: dict[int, Posture] = {}
        self.t_us = 0
        # The tick in progress: its start (None at a tick boundary) and the
        # pose there. Running sums at the last boundary: wheel travel right
        # and left, ground path length and heading change.
        self.tick_start: int | None = None
        self.tick_pose = start
        self.sums = (0.0, 0.0, 0.0, 0.0)
        self.at_report = self.sums
        self.report_us = rates.report_period_us
        self.jitter_us = rates.report_jitter_us
        self.window_us = self.report_interval()
        self.next_report = self.window_us
        self.flow_l = self.flow_r = 0.0

    def report_interval(self) -> int:
        if self.jitter_us == 0:
            return self.report_us
        return int(self.schedule_rng.integers(
            self.report_us - self.jitter_us, self.report_us + self.jitter_us + 1))

    def set_command(self, wheels: WheelSpeeds) -> None:
        self.loop.set_command(wheels.right, wheels.left)

    def into_tick(self) -> float:
        if self.tick_start is None:
            return 0.0
        return (self.t_us - self.tick_start) / 1e6

    @property
    def pose(self) -> Posture:
        if self.tick_start is None:
            return self.loop.pose
        return integrate_unicycle(self.tick_pose,
                                  wheels_to_twist(self.loop.ground, GEOM),
                                  self.into_tick())

    def advance_to(self, target_us: int) -> list[SensorPacket]:
        sent = []
        loop = self.loop
        while self.t_us < target_us:
            if self.tick_start is None:
                slip = (active_slip(self.slip_schedule, self.t_us / 1e3)
                        if self.slip_schedule else None)
                self.tick_pose = loop.pose
                loop.advance(slip)
                self.tick_start = self.t_us
            tick_end = self.tick_start + TICK_US
            self.t_us = min(tick_end, self.next_report, target_us)
            if self.t_us == tick_end:
                twist = wheels_to_twist(loop.ground, GEOM)
                right, left, path, turn = self.sums
                self.sums = (right + loop.wheels.right * TICK_S,
                             left + loop.wheels.left * TICK_S,
                             path + twist.v * TICK_S, turn + twist.w * TICK_S)
                self.tick_start = None
            if self.t_us == self.next_report:
                sent.append(self.assemble_report())
                self.window_us = self.report_interval()
                self.next_report += self.window_us
        return sent

    def assemble_report(self) -> SensorPacket:
        pose = self.pose
        if self.world is not None:
            if not self.world.bounds.contains(pose.x, pose.y):
                raise RuntimeFault(
                    f"robot 0 left the world bounds at t={self.t_us / 1e6:g} s "
                    f"(x={pose.x:.1f} mm, y={pose.y:.1f} mm)")
            ir = tuple(sample_ir(self.world, [pose.x], [pose.y], [pose.theta], GEOM,
                                 self.noise, self.ir_rng).scans()[0])
        else:
            ir = (None,) * 5
        # The sums at the report instant, and the window since the last one.
        into = self.into_tick()
        twist = wheels_to_twist(self.loop.ground, GEOM)
        right, left, path, turn = self.sums
        now = (right + self.loop.wheels.right * into,
               left + self.loop.wheels.left * into,
               path + twist.v * into, turn + twist.w * into)
        window = [b - a for a, b in zip(self.at_report, now)]
        self.at_report = now
        window_s = self.window_us / 1e6
        encoder, flow = self.encoder_rng, self.flow_rng
        ticks_r, ticks_l = self.encoders.sample_speeds(
            window[0], window[1], window_s, encoder.standard_normal(),
            encoder.standard_normal())
        flow_l, flow_r = self.flow.sample_vw(window[2], window[3], window_s,
                                             flow.standard_normal(), flow.standard_normal())
        self.flow_l += flow_l
        self.flow_r += flow_r
        packet = SensorPacket(
            robot_id=0,
            t_sent=self.t_us // 1000,
            ticks_left=wrap_i16(ticks_l),
            ticks_right=wrap_i16(ticks_r),
            flow_dx_left=wrap_flow(self.flow_l),
            flow_dx_right=wrap_flow(self.flow_r),
            gyro_heading=sample_gyro(pose.theta, self.noise.gyro_sigma,
                                     self.gyro_rng.standard_normal()),
            ir=ir,
        )
        self.truth_at_send[packet.t_sent] = pose
        return packet


def _run(sim, windows, command) -> tuple[list, str | None]:
    """Packets sent over the windows, and the fault message (time and pose)
    if the robot left the world."""
    sent = []
    sim.set_command(WheelSpeeds(*command))
    t_us = 0
    try:
        for step_us, new_command in windows:
            t_us += step_us
            sent += sim.advance_to(t_us)
            if new_command is not None:
                sim.set_command(WheelSpeeds(*new_command))
    except RuntimeFault as fault:
        return sent, str(fault)
    return sent, None


speeds = st.one_of(st.floats(-260.0, 260.0),
                   st.sampled_from((0.0, -0.0, 180.0, -180.0, 400.0, -250.0,
                                    math.nextafter(180.0, math.inf),
                                    -math.nextafter(180.0, math.inf))))
commands = st.tuples(speeds, speeds)
slip_events = st.builds(
    lambda start, length, stuck, factor: SlipEvent(
        start, start + length, "stuck" if stuck else "scale", factor),
    # Whole milliseconds land some slip edges exactly on tick starts.
    st.one_of(st.floats(0.0, 2500.0), st.integers(0, 2500).map(float)),
    st.one_of(st.floats(0.5, 1500.0), st.integers(1, 1500).map(float)),
    st.booleans(), st.floats(0.0, 1.0))


@st.composite
def rates(draw) -> Rates:
    period = draw(st.floats(5.0, 150.0))
    jitter = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.9 * period)))
    return Rates(report_period_ms=period, report_jitter_ms=jitter)


noises = st.one_of(
    st.just(SensorNoise()), st.just(SensorNoise.noiseless()),
    st.builds(SensorNoise, encoder_sigma=st.floats(0.0, 30.0),
              flow_sigma=st.floats(0.0, 80.0), gyro_sigma=st.floats(0.0, 0.1),
              ir_sigma=st.floats(0.0, 10.0), flow_scale=st.floats(0.5, 1.5)))
worlds = st.sampled_from((
    None,
    World(rects=(Rect(300.0, -200.0, 500.0, 200.0),)),
    World(bounds=Rect(-250.0, -250.0, 250.0, 250.0)),
))
windows = st.lists(
    st.tuples(st.integers(1, 120_000), st.one_of(st.none(), commands)),
    min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), command=commands,
       schedule=st.lists(slip_events, max_size=3), rates=rates(),
       noise=noises, world=worlds, windows=windows,
       heading=st.floats(-3.14159, 3.14159))
# The robot leaves the world at the report of t = 1.47 s.
@example(seed=1, command=(180.0, 180.0), schedule=[], rates=Rates(),
         noise=SensorNoise(), world=World(bounds=Rect(-250.0, -250.0, 250.0, 250.0)),
         windows=[(120_000, None)] * 13, heading=0.0)
def test_fused_engine_matches_per_step_reference(seed, command, schedule,
                                                 rates, noise, world, windows,
                                                 heading):
    start = Posture(0.0, 0.0, heading)
    schedule = tuple(schedule)
    sim = RobotSim(GEOM, noise, start, seed,
                   slip_schedule=schedule, rates=rates, world=world)
    ref = ReferenceSim(noise, start, seed, schedule, rates, world)
    sent, fault = _run(sim, windows, command)
    assert (sent, fault) == _run(ref, windows, command)
    assert sim.truth_at_send == ref.truth_at_send
    if fault is not None:
        return   # a fault ends the run; the engine state after it is unused
    assert sim.pose == ref.pose
    assert sim.t_us == ref.t_us
    assert (sim._instants[0], sim._windows[0]) == (ref.next_report, ref.window_us)
    loop = ref.loop
    mean_r, mean_l, _, _, act_r, act_l, int_r, int_l = sim._state[7:]
    assert ((act_r, act_l, int_r, int_l)
            == (loop.actual.right, loop.actual.left, *loop.integral))
    assert (mean_r, mean_l) == (loop.wheels.right, loop.wheels.left)
    assert sim._encoders._travel == ref.encoders._travel
    assert (sim._flow_l, sim._flow_r) == (ref.flow_l, ref.flow_r)
    assert sim._at_report == ref.at_report


def test_fused_engine_matches_reference_over_a_long_turning_run_with_slip():
    # 2,240 ticks of a turn under a stuck and a scaled slip event, with
    # report instants inside ticks (a 70.3 ms period).
    schedule = (SlipEvent(1000.0, 1500.0, "stuck"),
                SlipEvent(3000.0, 4000.0, "scale", factor=0.4))
    rates_ = Rates(report_period_ms=70.3)
    start = Posture(0.0, 0.0, 0.0)
    sim = RobotSim(GEOM, SensorNoise(), start, 11,
                   slip_schedule=schedule, rates=rates_)
    ref = ReferenceSim(SensorNoise(), start, 11, schedule, rates_, None)
    steps = [(70_000, None)] * 80
    assert _run(sim, steps, (150.0, 90.0)) == _run(ref, steps, (150.0, 90.0))
    assert sim.t_us // TICK_US == 2240
    assert sim.pose == ref.pose


# --- long calls: ticks computed in blocks -------------------------------------


def _engine_state(sim: RobotSim) -> tuple:
    """Every private state field of the engine that outlives a call."""
    return (sim.t_us, sim._tick_end, sim._state,
            sim._instants, sim._windows, sim._at_report,
            sim._encoders._travel, sim._flow_l, sim._flow_r)


def _assert_matches_reference(sim: RobotSim, ref: ReferenceSim) -> None:
    """The engine's state after a run equals the reference's."""
    assert sim.pose == ref.pose
    assert sim.t_us == ref.t_us
    assert (sim._instants[0], sim._windows[0]) == (ref.next_report, ref.window_us)
    (x, y, wheel_r, wheel_l, path, turn, theta,
     mean_r, mean_l, v, w, act_r, act_l, int_r, int_l) = sim._state
    loop = ref.loop
    assert ((act_r, act_l, int_r, int_l)
            == (loop.actual.right, loop.actual.left, *loop.integral))
    assert (mean_r, mean_l) == (loop.wheels.right, loop.wheels.left)
    assert sim._encoders._travel == ref.encoders._travel
    assert (sim._flow_l, sim._flow_r) == (ref.flow_l, ref.flow_r)
    assert sim._at_report == ref.at_report
    # The state at the start of the tick in hand, or at t_us on a boundary.
    at_boundary = ref.tick_start is None
    start = loop.pose if at_boundary else ref.tick_pose
    assert (x, y, theta) == (start.x, start.y, start.theta)
    assert (wheel_r, wheel_l, path, turn) == ref.sums
    assert sim._tick_end == (ref.t_us if at_boundary else ref.tick_start + TICK_US)
    twist = wheels_to_twist(loop.ground, GEOM)
    assert (v, w) == (twist.v, twist.w)


def _count_blocks(monkeypatch) -> list:
    """Patch RobotSim._held_block to record each block it returns."""
    built = []
    held_block = RobotSim._held_block

    def recording(self, *args):
        built.append(held_block(self, *args))
        return built[-1]

    monkeypatch.setattr(RobotSim, "_held_block", recording)
    return built


# Call lengths on both sides of MIN_BLOCK_TICKS: a call that runs fewer
# ticks steps them one by one, a longer one runs them in blocks.
block_windows = st.lists(
    st.tuples(st.one_of(st.integers(1, 120_000),
                        st.integers((MIN_BLOCK_TICKS - 2) * TICK_US,
                                    (MIN_BLOCK_TICKS + 1) * TICK_US),
                        st.integers(1, 2 * MIN_BLOCK_TICKS * TICK_US)),
              st.one_of(st.none(), commands)),
    min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), command=commands,
       schedule=st.lists(slip_events, max_size=3), rates=rates(),
       noise=noises, world=worlds, windows=block_windows,
       heading=st.floats(-3.14159, 3.14159))
# The robot leaves the world at the report of t = 1.47 s, inside a block.
@example(seed=1, command=(180.0, 180.0), schedule=[], rates=Rates(),
         noise=SensorNoise(), world=World(bounds=Rect(-250.0, -250.0, 250.0, 250.0)),
         windows=[(1_560_000, None)], heading=0.0)
# A report on the boundary of the first two blocks, at 10.24 s.
@example(seed=2, command=(150.0, 90.0), schedule=[], rates=Rates(report_period_ms=80.0),
         noise=SensorNoise(), world=None, windows=[(12_000_000, None)], heading=0.3)
# Reports at each call's target_us.
@example(seed=3, command=(120.0, 60.0), schedule=[SlipEvent(300.0, 900.0)],
         rates=Rates(), noise=SensorNoise(), world=None,
         windows=[(700_000, None), (1_400_000, (100.0, 120.0))], heading=-2.0)
# A call that starts inside a tick, at 1 ms, with reports at 1.6 and 2.4 ms
# before its first block starts at 2.5 ms.
@example(seed=4, command=(60.0, 60.0), schedule=[], rates=Rates(report_period_ms=0.8),
         noise=SensorNoise(), world=None, windows=[(1_000, None), (700_000, (170.0, 60.0))],
         heading=1.0)
# A jittered call of three blocks, turning through wraps under slip, with
# reports inside ticks.
@example(seed=5, command=(180.0, 20.0),
         schedule=[SlipEvent(9000.0, 11000.0, "scale", 0.5), SlipEvent(20000.0, 21000.0)],
         rates=Rates(report_period_ms=70.3, report_jitter_ms=20.0), noise=SensorNoise(),
         world=None, windows=[(25_000_000, None)], heading=3.0)
# The robot leaves the default world at about 14 s, in the second block.
@example(seed=6, command=(180.0, 180.0), schedule=[], rates=Rates(), noise=SensorNoise(),
         world=World(), windows=[(20_000_000, None)], heading=0.0)
def test_block_engine_matches_per_step_reference(seed, command, schedule, rates,
                                                 noise, world, windows, heading):
    start = Posture(0.0, 0.0, heading)
    schedule = tuple(schedule)

    def engine():
        return RobotSim(GEOM, noise, start, seed,
                        slip_schedule=schedule, rates=rates, world=world)

    sim = engine()
    ref = ReferenceSim(noise, start, seed, schedule, rates, world)
    sent, fault = _run(sim, windows, command)
    assert (sent, fault) == _run(ref, windows, command)
    assert sim.truth_at_send == ref.truth_at_send
    # The engine with blocks switched off, which steps every tick: the same
    # bits, signed zeros included.
    plain = engine()
    with mock.patch.object(sim_module, "MIN_BLOCK_TICKS", math.inf):
        assert repr((sent, fault)) == repr(_run(plain, windows, command))
    assert repr(sim.truth_at_send) == repr(plain.truth_at_send)
    if fault is not None:
        return   # a fault ends the run; the engine state after it is unused
    _assert_matches_reference(sim, ref)
    assert repr(_engine_state(sim)) == repr(_engine_state(plain))


def test_block_engine_matches_reference_across_many_small_blocks(monkeypatch):
    # Blocks of 7 ticks over a 17 s run of two advance_to calls, one per
    # command: jittered reports inside ticks (70.3 ms period), slip edges on
    # whole-ms tick starts and two overlapping events (the first one listed
    # wins), four heading wraps while circling, then a straight run out of
    # the world.
    monkeypatch.setattr(sim_module, "HELD_BLOCK_TICKS", 7)
    built = _count_blocks(monkeypatch)
    schedule = (SlipEvent(2000.0, 3000.0, "stuck"),
                SlipEvent(6000.0, 8500.0, "scale", factor=0.5),
                SlipEvent(7000.0, 9000.0, "stuck"))
    rates_ = Rates(report_period_ms=70.3, report_jitter_ms=20.0)
    world = World(bounds=Rect(-400.0, -400.0, 400.0, 400.0))
    start = Posture(0.0, 0.0, 3.0)
    sim = RobotSim(GEOM, SensorNoise(), start, 5, slip_schedule=schedule,
                   rates=rates_, world=world)
    ref = ReferenceSim(SensorNoise(), start, 5, schedule, rates_, world)
    # Circle for 15.96 s, then head straight.
    windows = [(228 * 70_000, (150.0, 150.0)), (200 * 70_000, None)]
    sent, fault = _run(sim, windows, (180.0, 20.0))
    assert (sent, fault) == _run(ref, windows, (180.0, 20.0))
    assert sim.truth_at_send == ref.truth_at_send
    assert fault is not None and "left the world bounds" in fault
    assert len(built) > 900 and all(block[0] % TICK_US == 0 for block in built)
    headings = [pose.theta for _, pose in sorted(sim.truth_at_send.items())]
    wraps = sum(abs(b - a) > math.pi for a, b in zip(headings, headings[1:]))
    assert wraps >= 4
    assert sum(packet.t_sent % 1000 != 0 for packet in sent) > 100


def test_block_engine_keeps_signed_zeros(monkeypatch):
    # Straight ahead from (-0.0, -0.0, -0.0): the first tick adds
    # chord * sin(-0.0) = -0.0 to y, which stays -0.0 only if the step
    # keeps the heading's sign; the heading itself is +0.0 after it.  One
    # call of 400 ticks runs them in blocks; the other engine steps one
    # tick per call.
    built = _count_blocks(monkeypatch)
    start = Posture(-0.0, -0.0, -0.0)
    blocked = RobotSim(GEOM, SensorNoise(), start, 3)
    stepped = RobotSim(GEOM, SensorNoise(), start, 3)
    blocked.set_command(WheelSpeeds(120.0, 120.0))
    stepped.set_command(WheelSpeeds(120.0, 120.0))
    sent = blocked.advance_to(1_000_000)
    assert len(built) == 1
    _, _, rows, *_ = built[0]
    assert math.copysign(1.0, rows[1, 1]) == -1.0
    stepped_sent = []
    for t_us in range(TICK_US, 1_000_000 + 1, TICK_US):
        stepped_sent += stepped.advance_to(t_us)
        if t_us == TICK_US:
            assert math.copysign(1.0, stepped._state[1]) == -1.0
    assert len(built) == 1
    assert repr(sent) == repr(stepped_sent)
    assert repr(_engine_state(blocked)) == repr(_engine_state(stepped))
    assert repr(blocked.truth_at_send) == repr(stepped.truth_at_send)


def test_block_reports_keep_tick_start_zeros_on_a_boundary():
    # A spin in place (v is exactly 0.0) from y = -0.0 at a heading whose
    # midpoint stays negative through tick 27 while its end, the 70 ms
    # report on a tick boundary, is positive: y stays -0.0 only if the
    # report takes the tick-start pose instead of a zero-length chord step
    # at the end heading, which would add +0.0.
    start = Posture(-0.0, -0.0, -0.03602346816119946)
    blocked = RobotSim(GEOM, SensorNoise(), start, 3)
    stepped = RobotSim(GEOM, SensorNoise(), start, 3)
    for sim in (blocked, stepped):
        sim.set_command(WheelSpeeds(40.0, -40.0))
    sent = blocked.advance_to(1_000_000)
    stepped_sent = []
    for t_us in range(TICK_US, 1_000_000 + 1, TICK_US):
        stepped_sent += stepped.advance_to(t_us)
    pose = blocked.truth_at_send[70]
    assert (pose.x, math.copysign(1.0, pose.y)) == (0.0, -1.0) and pose.theta > 0.0
    assert repr(sent) == repr(stepped_sent)
    assert repr(blocked.truth_at_send) == repr(stepped.truth_at_send)


@pytest.mark.parametrize("start_us", [0, 70_300])
@pytest.mark.parametrize("ticks", [MIN_BLOCK_TICKS - 1, MIN_BLOCK_TICKS])
@pytest.mark.parametrize("end_into", [1, TICK_US])
def test_call_length_selects_the_tick_path(monkeypatch, start_us, ticks, end_into):
    # A call that runs MIN_BLOCK_TICKS ticks builds a block, and one a tick
    # shorter builds none; both give the reference's bits.  The call starts
    # at t = 0, or inside a tick after the 70.3 ms report with a new
    # command; it ends 1 us into its last tick or at its end, and slip
    # edges fall on whole-ms tick starts inside it.
    built = _count_blocks(monkeypatch)
    schedule = (SlipEvent(200.0, 400.0, "scale", factor=0.4),
                SlipEvent(400.0, 600.0, "stuck"))
    rates_ = Rates(report_period_ms=70.3)
    start = Posture(0.0, 0.0, 0.5)
    sim = RobotSim(GEOM, SensorNoise(), start, 9, slip_schedule=schedule, rates=rates_)
    ref = ReferenceSim(SensorNoise(), start, 9, schedule, rates_, None)
    first_tick = -(-start_us // TICK_US) * TICK_US
    windows = [(start_us, (170.0, 60.0)),
               (first_tick + (ticks - 1) * TICK_US + end_into - start_us, None)]
    sent, fault = _run(sim, windows, (150.0, 90.0))
    assert (sent, fault) == _run(ref, windows, (150.0, 90.0))
    assert fault is None and len(sent) == len(ref.truth_at_send) > 8
    assert len(built) == (ticks >= MIN_BLOCK_TICKS)
    assert repr(sim.truth_at_send) == repr(ref.truth_at_send)
    _assert_matches_reference(sim, ref)


# --- the per-process memo of a held block -------------------------------------


def _reference_block(geometry: RobotGeometry, schedule: tuple[SlipEvent, ...], t0: int,
                     n: int, targets: tuple[float, float],
                     state: tuple[float, ...]) -> tuple[list, list, list]:
    """_held_block's rows, ticks and last as n PlantLoop.advance calls from
    the tick boundary t0, with the running sums of ReferenceSim."""
    x, y, wheel_r, wheel_l, path, turn, theta = state[:7]
    loop = PlantLoop(Posture(x, y, theta), geometry, WheelSpeeds(*targets),
                     WheelSpeeds(*state[11:13]), tuple(state[13:15]))
    rows, ticks = [state[:7]], []
    for k in range(n):
        loop.advance(active_slip(schedule, (t0 + k * TICK_US) / 1e3))
        twist = wheels_to_twist(loop.ground, geometry)
        ticks.append((loop.wheels.right, loop.wheels.left, twist.v, twist.w))
        wheel_r += loop.wheels.right * TICK_S
        wheel_l += loop.wheels.left * TICK_S
        path += twist.v * TICK_S
        turn += twist.w * TICK_S
        rows.append((loop.pose.x, loop.pose.y, wheel_r, wheel_l, path, turn, loop.pose.theta))
    last = [*ticks[-1], *loop.actual, *loop.integral]
    return [list(row) for row in zip(*rows)], [list(row) for row in zip(*ticks)], last


def _bits(values) -> list[str]:
    """Each float of a nested list as its hex form: exact, signed zeros
    included."""
    if isinstance(values, float):
        return values.hex()
    return [_bits(value) for value in values]


def _assert_block_is_the_reference(block, sim, schedule, t0, n, targets, state) -> None:
    """A _held_block result is _reference_block's, bit for bit."""
    block_t0, end, rows, ticks, last = block
    assert (block_t0, end) == (t0, t0 + n * TICK_US)
    rows_ref, ticks_ref, last_ref = _reference_block(sim.geometry, schedule, t0, n,
                                                     targets, state)
    assert _bits(rows.tolist()) == _bits(rows_ref)
    assert _bits(ticks.tolist()) == _bits(ticks_ref)
    assert _bits(list(last)) == _bits(last_ref)
    assert ([math.copysign(1.0, v) for v in rows.flat]
            == [math.copysign(1.0, v) for row in rows_ref for v in row])


# The loop state of a block's key: at rest on a tick boundary, heading 0.7.
REST = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.7) + (0.0,) * 8


def test_held_blocks_match_the_reference_cold_and_warm():
    # A 12 s run of two blocks under slip and jittered reports, first with
    # an empty memo (a miss per block) and then again from it (a hit per
    # block): both give the reference's bits.
    schedule = (SlipEvent(3000.0, 4000.0, "scale", factor=0.5),
                SlipEvent(10500.0, 11000.0, "stuck"))
    rates_ = Rates(report_period_ms=70.3, report_jitter_ms=20.0)
    start = Posture(0.0, 0.0, 0.7)
    windows = [(12_000_000, None)]
    ref = ReferenceSim(SensorNoise(), start, 8, schedule, rates_, None)
    expected = _run(ref, windows, (170.0, 60.0))
    truth = [(t, _bits(list(pose))) for t, pose in sorted(ref.truth_at_send.items())]
    memo = sim_module._block_memo
    memo.cache_clear()
    runs = []
    for misses, hits in ((2, 0), (2, 2)):
        sim = RobotSim(GEOM, SensorNoise(), start, 8, slip_schedule=schedule, rates=rates_)
        sent, fault = _run(sim, windows, (170.0, 60.0))
        assert (memo.cache_info().misses, memo.cache_info().hits) == (misses, hits)
        assert (sent, fault) == expected and fault is None
        assert repr(sent) == repr(expected[0])
        assert [(t, _bits(list(pose))) for t, pose in sorted(sim.truth_at_send.items())] == truth
        _assert_matches_reference(sim, ref)
        assert _bits(list(sim.pose)) == _bits(list(ref.pose))
        runs.append(repr((sent, sim.truth_at_send, _engine_state(sim))))
    assert runs[0] == runs[1]


def test_block_memo_keeps_signed_zeros_apart():
    # A warm entry for +0.0 serves neither an all -0.0 key nor a -0.0
    # target, speed or position: each is its own entry, with the bits of
    # its own reference.
    memo = sim_module._block_memo
    memo.cache_clear()
    sim = RobotSim(GEOM, SensorNoise(), Posture(0.0, 0.0, 0.0), 1)
    zeros = (0.0,) * 15
    warm = sim._held_block(0, 8 * TICK_US, 0.0, 0.0, zeros)
    keys = (((-0.0, -0.0), (-0.0,) * 15),
            ((-0.0, 0.0), zeros),
            ((0.0, 0.0), zeros[:11] + (-0.0,) + zeros[12:]),
            ((0.0, 0.0), (-0.0,) + zeros[1:]))
    for targets, state in keys:
        block = sim._held_block(0, 8 * TICK_US, *targets, state)
        assert block is not warm
        _assert_block_is_the_reference(block, sim, (), 0, 8, targets, state)
    assert math.copysign(1.0, block[2][0, 0]) == -1.0
    assert (memo.cache_info().misses, memo.cache_info().hits) == (5, 0)


def test_block_memo_keys_apart_slip_wheel_base_and_t0():
    # Blocks that differ only in the slip schedule (a signed-zero factor
    # included), the wheel base or the start tick never share an entry.
    memo = sim_module._block_memo
    memo.cache_clear()
    start = Posture(0.0, 0.0, 0.7)
    base = (SlipEvent(0.0, 5.0, "scale", 0.5),)
    blocks = [(GEOM, base, 0), (GEOM, (SlipEvent(0.0, 5.0, "scale", 0.25),), 0),
              (GEOM, (SlipEvent(0.0, 5.0, "scale", 0.0),), 0),
              (GEOM, (SlipEvent(0.0, 5.0, "scale", -0.0),), 0),
              (GEOM, (SlipEvent(0.0, 5.0, "stuck"),), 0), (GEOM, (), 0),
              (GEOM, (SlipEvent(0.0, 7.5, "scale", 0.5),), 0),
              (RobotGeometry(wheel_base=1.5 * GEOM.wheel_base), base, 0),
              (GEOM, base, TICK_US)]
    state = REST[:11] + (20.0, -30.0, 1.5, -0.5)
    for geometry, schedule, t0 in blocks:
        sim = RobotSim(geometry, SensorNoise(), start, 1, slip_schedule=schedule)
        block = sim._held_block(t0, t0 + 6 * TICK_US, 150.0, 90.0, state)
        _assert_block_is_the_reference(block, sim, schedule, t0, 6, (150.0, 90.0), state)
    assert (memo.cache_info().misses, memo.cache_info().hits) == (len(blocks), 0)
    # The last block again, from a new engine, is served from the memo.
    sim = RobotSim(GEOM, SensorNoise(), start, 2, slip_schedule=base)
    sim._held_block(TICK_US, 7 * TICK_US, 150.0, 90.0, state)
    assert memo.cache_info().hits == 1


def test_held_block_is_read_only_and_the_memo_bounded():
    memo = sim_module._block_memo
    memo.cache_clear()
    sim = RobotSim(GEOM, SensorNoise(), Posture(0.0, 0.0, 0.7), 1)
    state = REST[:11] + (20.0, 20.0, 1.5, 1.5)
    block = sim._held_block(0, 5 * TICK_US, 150.0, 20.0, state)
    _, _, rows, ticks, last = block
    assert rows.shape == (7, 6) and ticks.shape == (4, 5) and len(last) == 8
    assert rows.dtype == ticks.dtype == np.float64
    _assert_block_is_the_reference(block, sim, (), 0, 5, (150.0, 20.0), state)
    for array in (rows, ticks):
        with pytest.raises(ValueError):
            array[0, 1] = 0.0
        with pytest.raises(ValueError):
            array += 1.0
    _assert_block_is_the_reference(block, sim, (), 0, 5, (150.0, 20.0), state)
    size = sim_module.BLOCK_MEMO_SIZE
    for k in range(size + 5):
        sim._held_block(k * TICK_US, (k + 3) * TICK_US, float(k), 0.0, REST)
        assert memo.cache_info().currsize == min(k + 2, size)
    # The least recently used entries went first.
    before = memo.cache_info().misses
    sim._held_block(0, 5 * TICK_US, 150.0, 20.0, state)
    sim._held_block((size + 4) * TICK_US, (size + 7) * TICK_US, float(size + 4), 0.0, REST)
    assert memo.cache_info().misses == before + 1
    assert memo.cache_info().currsize == size


@pytest.mark.parametrize("name", ["localize_slip.yaml", "localize_jitter.yaml"])
def test_seed_sweep_outputs_are_the_same_from_a_warm_memo(tmp_path, name):
    # Five seeds of a bundled localize scenario, each compared after
    # cache_clear() and then all again in one sweep, in which the later
    # seeds take every block from the memo: the same bytes.
    memo = sim_module._block_memo

    def compare(seed: int) -> tuple[str, bytes]:
        summary = runner.run_compare(load_scenario(SCENARIOS / name, (f"seed={seed}",)),
                                     tmp_path)
        return repr(summary.metrics), (tmp_path / "compare.csv").read_bytes()

    cold = []
    for seed in range(1, 6):
        memo.cache_clear()
        cold.append(compare(seed))
        assert memo.cache_info().hits == 0
    memo.cache_clear()
    assert [compare(seed) for seed in range(1, 6)] == cold
    info = memo.cache_info()
    assert info.hits == 4 * info.misses > 0
    assert len(set(cold)) == 5


def _stepped_reports(scenario):
    """simulate_reports as one advance_to and one receive per report
    period, the loop it ran before its single call; also counts the frames
    sent after a receive instant that were due by it."""
    sim = RobotSim(scenario.geometry, scenario.noise, scenario.start, scenario.seed,
                   slip_schedule=scenario.slip, rates=scenario.rates,
                   world=scenario.world)
    sim.set_command(scenario.command)
    channel = StarChannel(scenario.channel,
                          stream_rng(scenario.seed, 0, STREAM_CHANNEL))
    digest = hashlib.sha256()
    delivered, late = [], 0
    duration_us = round(scenario.duration_s * 1e6)
    step_us = scenario.rates.report_period_us
    t_us = 0
    while t_us < duration_us:
        last_us, t_us = t_us, min(t_us + step_us, duration_us)
        for packet in sim.advance_to(t_us):
            frame = encode_frame(packet)
            digest.update(frame)
            channel.send(frame, float(packet.t_sent), packet.robot_id)
        late += sum(delivery[0] <= last_us / 1e3 for delivery in channel._queue)
        delivered += channel.receive(t_us / 1e3)
    return delivered, sim.truth_at_send, digest.hexdigest(), channel, late


SCENARIOS = Path(__file__).resolve().parents[1] / "src/swarmsim/scenarios"
LOSSY_LOCALIZE = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "scripts/output_digests.py"))["LOSSY_LOCALIZE"]


@pytest.mark.parametrize("name, overrides, late", [
    ("localize_slip.yaml", (), False),
    ("localize_jitter.yaml", (), False),
    ("localize_slip.yaml", LOSSY_LOCALIZE, False),
    # Reports inside a millisecond after a receive instant, stamped with
    # the millisecond before it, arrive within 0.5 ms: some are due by the
    # receive instant before their send.
    ("localize_jitter.yaml", ("rates.report_period_ms=70.3", "rates.report_jitter_ms=20",
                              "channel.latency_min_ms=0", "channel.latency_max_ms=0.5"),
     True),
])
def test_simulate_reports_matches_the_stepped_loop(name, overrides, late):
    # One advance_to and one receive over the run deliver what a call and
    # a receive per report period did: StarChannel pops in (deliver time,
    # robot id, seq) order, so the batches joined are the one order.
    scenario = load_scenario(SCENARIOS / name, overrides)
    run = simulate_reports(scenario)
    delivered, truth, digest, channel, late_frames = _stepped_reports(scenario)
    assert repr(run.delivered) == repr(delivered)
    assert repr(run.truth_at_send) == repr(truth)
    assert run.noise_digest == digest
    assert ((run.channel.sent, run.channel.dropped, run.channel.undecodable,
             run.channel.pending)
            == (channel.sent, channel.dropped, channel.undecodable, channel.pending))
    assert (late_frames > 0) == late


@settings(max_examples=200, deadline=None)
@given(start=st.floats(-math.pi, math.pi),
       steps=st.lists(st.one_of(st.floats(-0.01, 0.01), st.floats(-4.0, 4.0),
                                st.sampled_from((0.0, -0.0, math.pi, -math.pi))),
                      min_size=1, max_size=300))
# A sum of exactly -pi leaves (-pi, pi] and wraps to +pi; +pi stays.
@example(start=0.0, steps=[-math.pi, math.pi, math.pi])
# A wrap on the first step, then one every 118 steps or so.
@example(start=3.0, steps=[0.5] + [0.05] * 299)
def test_wrapped_heading_matches_the_tick_loop(start, steps):
    # The loop of advance_to: add, then wrap a sum that leaves (-pi, pi].
    expected = [start]
    theta = start
    for swept in steps:
        theta += swept
        if not -math.pi < theta <= math.pi:
            theta = wrap_angle(theta)
        expected.append(theta)
    out = np.empty(len(steps) + 1)
    _wrapped_heading(start, np.array(steps), out)
    assert [v.hex() for v in out.tolist()] == [v.hex() for v in expected]


def test_numpy_trig_is_the_math_module_trig_bit_for_bit():
    # The block pass takes np.sin and np.cos where the tick loop takes
    # math.sin and math.cos. A numpy that routes float64 trig through its
    # own kernels would change outputs; this fails first.
    rng = np.random.default_rng(2024)
    values = np.concatenate([rng.uniform(-4.0, 4.0, 200_001),
                             rng.uniform(-1e-2, 1e-2, 20_001),
                             rng.uniform(-1e3, 1e3, 20_001),
                             [0.0, -0.0, math.pi, -math.pi, 1e-300]])
    plain = values.tolist()
    for np_f, math_f in ((np.sin, math.sin), (np.cos, math.cos)):
        assert [v.hex() for v in np_f(values).tolist()] == [
            math_f(v).hex() for v in plain]


CIRCLE = Path(__file__).resolve().parents[1] / "src/swarmsim/scenarios/circle_track.yaml"


def test_estimator_fed_track_steps_every_tick(monkeypatch):
    # The track loop sets a new command every control period, so it holds
    # none and never builds a block; an open-loop run builds them.
    def refuse(*args):
        raise AssertionError("the track loop built a block")

    monkeypatch.setattr(RobotSim, "_held_block", refuse)
    scenario = load_scenario(CIRCLE, ("control.feedback=estimator", "duration_s=3"))
    rows = runner._track_estimator_loop(scenario, 40)
    assert len(rows) == 40
    with pytest.raises(AssertionError, match="built a block"):
        simulate_reports(load_scenario(SLIP, ("duration_s=1",)))


@pytest.mark.parametrize("rates_", [
    Rates(report_period_ms=0.0004),    # a 0 us report clock never advances
    Rates(report_period_ms=0.0004, report_jitter_ms=0.0004),   # a 0 us window
])
def test_engine_rejects_a_report_clock_that_does_not_advance(rates_):
    # Scenario validation rejects these rates first; the engine's check on
    # each report interval stays as the backstop.
    with pytest.raises(ValueError, match="report interval must be at least 1 us"):
        RobotSim(GEOM, SensorNoise(), Posture(0.0, 0.0, 0.0), 1,
                 rates=rates_).advance_to(1_000_000)


@pytest.mark.parametrize("rates_", [
    Rates(1.0, 1.0),                   # a jittered window of 0 us
    Rates(1.0, 1.5),                   # one of -500 us
    Rates(report_period_ms=0.0004, report_jitter_ms=0.0006),   # a 0 us clock, 1 us jitter
])
def test_engine_rejects_a_window_under_1_us_at_construction(rates_):
    # The check is on the shortest window the schedule can draw, before
    # any is drawn, so a seed whose first windows are long raises too.
    with pytest.raises(ValueError, match="report interval must be at least 1 us"):
        RobotSim(GEOM, SensorNoise(), Posture(0.0, 0.0, 0.0), 1, rates=rates_)


def test_estimator_feedback_keeps_the_engine_on_python_floats():
    # The estimator-fed track loop: the filter's pose feeds the controller,
    # whose wheels feed the engine. A numpy scalar leaking from the filter
    # mean would turn every later plant step into numpy scalar arithmetic.
    start = Posture(0.0, 0.0, 0.0)
    traj = circle_trajectory(400.0, 80.0, 2.0, start=start)
    sim = RobotSim(GEOM, SensorNoise(), start, 4)
    cfg = EkfConfig.from_noise(SensorNoise(), GEOM)
    converter = ReportConverter(GEOM, cfg)
    belief = initial_belief(start)
    for i in range(1, 20):
        t_us = i * 70_000
        for packet in sim.advance_to(t_us):
            meas = converter.convert(packet)
            if meas is not None:
                belief = filter_step(belief, meas, converter.slip, cfg)
        pose = belief.pose
        assert [type(f) for f in (pose.x, pose.y, pose.theta)] == [float] * 3
        ref, v_r, w_r = traj.reference_at(t_us / 1e6)
        sim.set_command(tracking_control(ref, pose, v_r, w_r, Gains(), GEOM))
    state = (*sim._target, *sim._state)
    assert [type(f) for f in state] == [float] * len(state)


SLIP = Path(__file__).resolve().parents[1] / "src/swarmsim/scenarios/localize_slip.yaml"


@pytest.mark.parametrize("jitter_ms", [0.0, 25.0])
def test_truth_ignores_the_sensor_settings(jitter_ms):
    # Sensors only observe the plant, so their noise and calibration never
    # move the ground truth: every truth at send, the last one included, is
    # the same double without noise, with the default noise, and with a
    # miscalibrated flow sensor and 30x the encoder noise.
    def truths(*noise):
        overrides = (f"rates.report_jitter_ms={jitter_ms}", *noise)
        run = simulate_reports(load_scenario(SLIP, overrides))
        return [(t, pose.x.hex(), pose.y.hex(), pose.theta.hex())
                for t, pose in sorted(run.truth_at_send.items())]

    noiseless = truths("robot.noiseless=true")
    assert noiseless[-1][0] >= 29_900
    assert truths() == noiseless
    assert truths("robot.noise.flow_scale=1.3",
                  "robot.noise.encoder_sigma=30") == noiseless


@pytest.mark.parametrize("scenario", [SLIP, SLIP.with_name("localize_jitter.yaml")],
                         ids=lambda path: path.stem)
def test_each_report_samples_each_sensor_model_once(monkeypatch, scenario):
    # The engine samples every report window through the sensor models:
    # one encoder, one flow and one gyro sample per report sent, here all
    # through their array forms, one window per element.
    calls = {}

    def count(owner, name, windows):
        original = getattr(owner, name)

        def counting(*args):
            key = f"{getattr(owner, '__name__', '')}.{name}"
            calls[key] = calls.get(key, 0) + windows(args)
            return original(*args)

        monkeypatch.setattr(owner, name, counting)

    for owner, name in ((EncoderModel, "sample_speeds"), (FlowModel, "sample_vw"),
                        (sim_module, "sample_gyro")):
        count(owner, name, lambda args: 1)
    # The windows are the window_s argument of a model's array form, and
    # the headings of sample_gyros.
    count(EncoderModel, "sample_windows", lambda args: len(args[-2]))
    count(FlowModel, "sample_windows", lambda args: len(args[-2]))
    count(sim_module, "sample_gyros", lambda args: len(args[0]))
    run = simulate_reports(load_scenario(scenario, ()))
    assert run.channel.sent >= 400
    assert calls == dict.fromkeys(("EncoderModel.sample_windows", "FlowModel.sample_windows",
                                   "swarmsim.sim.sample_gyros"), run.channel.sent)


def _sampled(columns: bool, geometry=GEOM, noise=SensorNoise(), rates=Rates(),
             slip=(SlipEvent(10_000.0, 12_000.0),), command=WheelSpeeds(160.0, 140.0),
             world=None):
    """A 12 s block-path run of the bundled localize_slip robot with some
    settings replaced, its reports sampled as columns or one by one: the
    packets, truth, counters and next normal of each stream, or the error
    raised."""
    sim = RobotSim(geometry, noise, Posture(0.0, 0.0, 0.0), 7, slip_schedule=slip,
                   rates=rates, world=world)
    sim.set_command(command)
    if not columns:
        sim._sample_columns = lambda *args: None
    try:
        packets = sim.advance_to(12_000_000)
    except Exception as exc:  # noqa: BLE001 - the class and text are the outcome
        return type(exc), str(exc)
    return (repr(packets), repr(sim.truth_at_send),
            repr((sim._at_report, sim._flow_l, sim._flow_r, sim._encoders._travel)),
            [stream.next().hex() for stream in sim._normals])


# The robustness probe's extremes, and settings that make a column
# non-finite or overflow an int64 counter. Validation rejects several, so
# they are set on the engine directly.
EXTREME_ENGINES = {
    "bundled": {},
    "jitter": {"rates": Rates(75.0, 25.0)},
    # Reports inside the ticks whose heading leaves (-pi, pi].
    "fast spin, 3 ms reports": {"command": WheelSpeeds(180.0, -180.0),
                                "rates": Rates(3.0, 1.0)},
    "subnormal tick": {"geometry": RobotGeometry(mm_per_tick=5e-324)},
    "smallest normal tick": {"geometry": RobotGeometry(mm_per_tick=sys.float_info.min)},
    "command at 1e308": {"command": WheelSpeeds(1e308, 1e308)},
    "command at +-1e308": {"command": WheelSpeeds(1e308, -1e308)},
    "subnormal wheel base": {"geometry": RobotGeometry(wheel_base=5e-324)},
    "subnormal flow separation": {"geometry": RobotGeometry(flow_separation=5e-324)},
    "slip scale 1e308": {"slip": (SlipEvent(0.0, 1e308, "scale", 1e308),)},
    "encoder noise 1e308": {"noise": SensorNoise(encoder_sigma=1e308)},
    "encoder noise 1e290": {"noise": SensorNoise(encoder_sigma=1e290)},
    # Counts between 2**63 and 2**70 ticks.
    "encoder noise 1e21": {"noise": SensorNoise(encoder_sigma=1e21)},
    "flow noise 1e300": {"noise": SensorNoise(flow_sigma=1e300)},
    "flow scale 1e308": {"noise": SensorNoise(flow_scale=1e308)},
    "gyro noise 1e308": {"noise": SensorNoise(gyro_sigma=1e308)},
    "world": {"world": World()},
}


@pytest.mark.parametrize("engine", EXTREME_ENGINES.values(), ids=EXTREME_ENGINES)
def test_block_sampling_matches_the_per_report_path_at_the_extremes(engine):
    # The same reports, truth, counters and stream positions, or the same
    # error, whether the block samples its reports as columns or hands
    # them to _sample_report one by one, each with its slice of the
    # normals it drew.  Numpy
    # warns on none of them: _sampled would return a warning raised here as
    # the outcome.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        columns = _sampled(True, **engine)
        assert columns == _sampled(False, **engine)
    assert columns[0] is not RuntimeWarning


def _chi2_quantile(n: int, z: float) -> float:
    """Wilson-Hilferty approximation of the chi-square quantile with n
    degrees of freedom at the standard normal quantile z."""
    h = 2.0 / (9.0 * n)
    return n * (1.0 - h + z * math.sqrt(h)) ** 3


def test_window_noise_matches_the_filter_noise_model():
    # A robot at rest, so every reported motion is noise. Ticks of 1e-4 mm
    # and 250 mm/s flow noise make the tick truncation and the 0.1 mm flow
    # wire quantum negligible against the sample noise, which is all that
    # is left of EkfConfig.from_noise's var_wheel and var_dx.
    n = 8000
    geometry = RobotGeometry(mm_per_tick=1e-4)
    noise = SensorNoise(encoder_sigma=1.0, flow_sigma=250.0)
    rates = Rates(report_period_ms=10.0)
    cfg = EkfConfig.from_noise(noise, geometry, rates)
    t = rates.report_period_ms / 1e3
    var_wheel = 2.0 * cfg.r_base[0]
    var_dx = 2.0 * t * t * cfg.r_base[2]
    sim = RobotSim(geometry, noise, Posture(0.0, 0.0, 0.0), 2024, rates=rates)
    packets = sim.advance_to(n * rates.report_period_us)
    assert len(packets) == n
    sums = [0.0] * 4
    prev = (0, 0, 0.0, 0.0)
    for packet in packets:
        now = (packet.ticks_right, packet.ticks_left, packet.flow_dx_left,
               packet.flow_dx_right)
        errors = (wrap_i16(now[0] - prev[0]) * 1e-4 / t,
                  wrap_i16(now[1] - prev[1]) * 1e-4 / t,
                  now[2] - prev[2], now[3] - prev[3])
        sums = [a + e * e for a, e in zip(sums, errors)]
        prev = now
    # n * (sample variance) / (model variance) is chi-square with n degrees
    # of freedom; the band holds it with probability 1 - 6e-5 (z = 4).
    lo, hi = _chi2_quantile(n, -4.0) / n, _chi2_quantile(n, 4.0) / n
    assert 0.93 < lo < hi < 1.07
    ratios = [sums[0] / n / var_wheel, sums[1] / n / var_wheel,
              sums[2] / n / var_dx, sums[3] / n / var_dx]
    assert all(lo < r < hi for r in ratios), (ratios, lo, hi)
