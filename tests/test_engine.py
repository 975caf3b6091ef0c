"""The fused sensor engine against the reference plant.

`RobotSim.advance_to` writes the plant tick and slip lookup inline, or
computes a held command's ticks in blocks, and samples each report window
through `EncoderModel` and `FlowModel` on block-drawn noise. `ReferenceSim`
below is the engine as one call per tick and per window: it calls
`PlantLoop.advance` once per tick, `integrate_unicycle` for a pose inside a
tick, `EncoderModel.sample_speeds` and `FlowModel.sample_vw` once per
report window, and `sample_gyro` and `sample_ir`, with scalar noise draws.
Both must produce the same packets, truth, pose, wheel state and counters,
bit for bit.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swarmsim import sim as sim_module
from swarmsim.cli import runner
from swarmsim.cli.runner import simulate_reports
from swarmsim.cli.scenario import load_scenario
from swarmsim.comms import SensorPacket, wrap_flow, wrap_i16
from swarmsim.control import Gains, circle_trajectory, tracking_control
from swarmsim.core import (Posture, RobotGeometry, WheelSpeeds, integrate_unicycle,
                           wheels_to_twist, wrap_angle)
from swarmsim.estimation import EkfConfig, ReportConverter, filter_step, initial_belief
from swarmsim.sim import (
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
    _wrapped_heading,
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
        self.encoders = EncoderModel(GEOM, noise,
                                     stream_rng(seed, 0, STREAM_ENCODER))
        self.flow = FlowModel(GEOM, noise, stream_rng(seed, 0, STREAM_FLOW))
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
        self.ticks_l = self.ticks_r = 0
        self.flow_l = self.flow_r = 0.0

    def report_interval(self) -> int:
        if self.jitter_us == 0:
            return self.report_us
        return int(self.schedule_rng.integers(
            self.report_us - self.jitter_us, self.report_us + self.jitter_us + 1))

    def set_command(self, wheels: WheelSpeeds,
                    hold_until_us: int | None = None) -> None:
        # The reference steps every tick whatever the caller promises.
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
        ticks_r, ticks_l = self.encoders.sample_speeds(window[0], window[1],
                                                       window_s)
        self.ticks_r += ticks_r
        self.ticks_l += ticks_l
        flow_l, flow_r = self.flow.sample_vw(window[2], window[3], window_s)
        self.flow_l += flow_l
        self.flow_r += flow_r
        packet = SensorPacket(
            robot_id=0,
            t_sent=self.t_us // 1000,
            ticks_left=wrap_i16(self.ticks_l),
            ticks_right=wrap_i16(self.ticks_r),
            flow_dx_left=wrap_flow(self.flow_l),
            flow_dx_right=wrap_flow(self.flow_r),
            gyro_heading=sample_gyro(pose.theta, self.noise.gyro_sigma,
                                     self.gyro_rng),
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
    assert (sim._next_report, sim._window_us) == (ref.next_report, ref.window_us)
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


# --- a held command: ticks computed in blocks ---------------------------------


def _hold_until(kind: str, frac: float, t0: int, t1: int, end_us: int) -> int | None:
    """The hold promised for a command set at t0 that runs until t1 (or,
    set at the last window's end, until end_us): none, inside the window,
    at its end, or past the run."""
    if kind == "none":
        return None
    if kind == "inside":
        return t0 + 1 + int(frac * max(t1 - t0 - 1, 0))
    if kind == "end":
        return t1
    return end_us + 1 + int(frac * 1e6)


def _run_held(sim, windows, command, first_hold) -> tuple[list, str | None]:
    """_run with each command set under a drawn hold; windows hold
    (step_us, new command or None, hold kind, hold fraction)."""
    ends = list(itertools.accumulate(step_us for step_us, *_ in windows))
    end_us = ends[-1]
    sent = []
    sim.set_command(WheelSpeeds(*command), _hold_until(*first_hold, 0, ends[0], end_us))
    try:
        for i, (_, new_command, kind, frac) in enumerate(windows):
            sent += sim.advance_to(ends[i])
            if new_command is not None:
                t1 = ends[i + 1] if i + 1 < len(ends) else end_us
                sim.set_command(WheelSpeeds(*new_command),
                                _hold_until(kind, frac, ends[i], t1, end_us))
    except RuntimeFault as fault:
        return sent, str(fault)
    return sent, None


def _engine_state(sim: RobotSim) -> tuple:
    """Every private state field of the engine that outlives a call."""
    return (sim.t_us, sim._tick_end, sim._state,
            sim._next_report, sim._window_us, sim._at_report,
            sim._encoders._travel, sim._ticks_r, sim._ticks_l,
            sim._flow_l, sim._flow_r)


def _assert_matches_reference(sim: RobotSim, ref: ReferenceSim) -> None:
    """The engine's state after a run equals the reference's."""
    assert sim.pose == ref.pose
    assert sim.t_us == ref.t_us
    assert (sim._next_report, sim._window_us) == (ref.next_report, ref.window_us)
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


holds = st.tuples(st.sampled_from(("none", "inside", "end", "past")),
                  st.floats(0.0, 1.0))
held_windows = st.lists(
    st.tuples(st.integers(1, 120_000), st.one_of(st.none(), commands),
              st.sampled_from(("none", "inside", "end", "past")), st.floats(0.0, 1.0)),
    min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), command=commands,
       schedule=st.lists(slip_events, max_size=3), rates=rates(),
       noise=noises, world=worlds, windows=held_windows,
       heading=st.floats(-3.14159, 3.14159), first_hold=holds)
# The robot leaves the world at the report of t = 1.47 s, inside a block.
@example(seed=1, command=(180.0, 180.0), schedule=[], rates=Rates(),
         noise=SensorNoise(), world=World(bounds=Rect(-250.0, -250.0, 250.0, 250.0)),
         windows=[(120_000, None, "none", 0.0)] * 13, heading=0.0,
         first_hold=("past", 0.5))
def test_held_engine_matches_per_step_reference(seed, command, schedule, rates,
                                                noise, world, windows, heading,
                                                first_hold):
    start = Posture(0.0, 0.0, heading)
    schedule = tuple(schedule)

    def engine():
        return RobotSim(GEOM, noise, start, seed,
                        slip_schedule=schedule, rates=rates, world=world)

    sim = engine()
    ref = ReferenceSim(noise, start, seed, schedule, rates, world)
    sent, fault = _run_held(sim, windows, command, first_hold)
    assert (sent, fault) == _run_held(ref, windows, command, first_hold)
    assert sim.truth_at_send == ref.truth_at_send
    # The engine without holds, which steps every tick: the same bits,
    # signed zeros included.
    plain = engine()
    plain_windows = [(step_us, new_command, "none", frac)
                     for step_us, new_command, _, frac in windows]
    assert repr((sent, fault)) == repr(
        _run_held(plain, plain_windows, command, ("none", 0.0)))
    assert repr(sim.truth_at_send) == repr(plain.truth_at_send)
    if fault is not None:
        return   # a fault ends the run; the engine state after it is unused
    _assert_matches_reference(sim, ref)
    assert repr(_engine_state(sim)) == repr(_engine_state(plain))


def test_held_engine_matches_reference_across_many_small_blocks(monkeypatch):
    # Blocks of 7 ticks over a 17 s run: jittered reports inside ticks
    # (70.3 ms period), slip edges on whole-ms tick starts and two
    # overlapping events (the first one listed wins), four heading wraps
    # while circling, then a straight run out of the world.
    monkeypatch.setattr(sim_module, "HELD_BLOCK_TICKS", 7)
    built = []
    held_block = RobotSim._held_block

    def counting(self, t0, *args):
        built.append(t0)
        return held_block(self, t0, *args)

    monkeypatch.setattr(RobotSim, "_held_block", counting)
    schedule = (SlipEvent(2000.0, 3000.0, "stuck"),
                SlipEvent(6000.0, 8500.0, "scale", factor=0.5),
                SlipEvent(7000.0, 9000.0, "stuck"))
    rates_ = Rates(report_period_ms=70.3, report_jitter_ms=20.0)
    world = World(bounds=Rect(-400.0, -400.0, 400.0, 400.0))
    start = Posture(0.0, 0.0, 3.0)
    sim = RobotSim(GEOM, SensorNoise(), start, 5, slip_schedule=schedule,
                   rates=rates_, world=world)
    ref = ReferenceSim(SensorNoise(), start, 5, schedule, rates_, world)
    # Circle for 15.96 s, then head straight; each hold reaches past the run.
    windows = ([(70_000, None, "past", 0.0)] * 227 + [(70_000, (150.0, 150.0), "past", 0.0)]
               + [(70_000, None, "past", 0.0)] * 200)
    sent, fault = _run_held(sim, windows, (180.0, 20.0), ("past", 0.0))
    assert (sent, fault) == _run_held(ref, windows, (180.0, 20.0), ("past", 0.0))
    assert sim.truth_at_send == ref.truth_at_send
    assert fault is not None and "left the world bounds" in fault
    assert len(built) > 900 and all(t % TICK_US == 0 for t in built)
    headings = [pose.theta for _, pose in sorted(sim.truth_at_send.items())]
    wraps = sum(abs(b - a) > math.pi for a, b in zip(headings, headings[1:]))
    assert wraps >= 4
    assert sum(packet.t_sent % 1000 != 0 for packet in sent) > 100


def test_held_engine_keeps_signed_zeros():
    # Straight ahead from (-0.0, -0.0, -0.0): the first tick adds
    # chord * sin(-0.0) = -0.0 to y, which stays -0.0 only if the step
    # keeps the heading's sign; the heading itself is +0.0 after it.
    start = Posture(-0.0, -0.0, -0.0)
    held = RobotSim(GEOM, SensorNoise(), start, 3)
    plain = RobotSim(GEOM, SensorNoise(), start, 3)
    held.set_command(WheelSpeeds(120.0, 120.0), hold_until_us=1_000_000)
    plain.set_command(WheelSpeeds(120.0, 120.0))
    for t_us in [*range(TICK_US, 10 * TICK_US, TICK_US), 1_000_000]:
        assert repr(held.advance_to(t_us)) == repr(plain.advance_to(t_us))
        assert repr(_engine_state(held)) == repr(_engine_state(plain))
        if t_us == TICK_US:
            assert math.copysign(1.0, held._state[1]) == -1.0
    assert repr(held.truth_at_send) == repr(plain.truth_at_send)


@settings(max_examples=200, deadline=None)
@given(start=st.floats(-math.pi, math.pi),
       steps=st.lists(st.one_of(st.floats(-0.01, 0.01), st.floats(-4.0, 4.0),
                                st.sampled_from((0.0, -0.0, math.pi, -math.pi))),
                      min_size=1, max_size=300))
# A sum of exactly -pi leaves (-pi, pi] and wraps to +pi; +pi stays.
@example(start=0.0, steps=[-math.pi, math.pi, math.pi])
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


def test_each_report_samples_each_sensor_model_once(monkeypatch):
    # The engine samples every report window through the sensor models:
    # one encoder, one flow and one gyro sample per report sent.
    calls = {}

    def count(owner, name):
        original = getattr(owner, name)

        def counting(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(owner, name, counting)

    count(EncoderModel, "sample_speeds")
    count(FlowModel, "sample_vw")
    count(sim_module, "sample_gyro")
    run = simulate_reports(load_scenario(SLIP, ()))
    assert run.channel.sent >= 400
    assert calls == dict.fromkeys(("sample_speeds", "sample_vw", "sample_gyro"),
                                  run.channel.sent)


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
