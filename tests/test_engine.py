"""The fused sensor engine against the reference plant.

`RobotSim.advance_to` writes the plant step, slip lookup, encoder sample
and flow sample inline and draws encoder and flow noise in blocks.
`ReferenceSim` below is the engine as one call per event: it calls
`PlantLoop.advance`, `EncoderModel.sample_speeds`, `FlowModel.sample_vw`,
`sample_gyro` and `sample_ir` with scalar noise draws. Both must produce
the same packets, truth, pose, wheel state and counters, bit for bit.
"""

from __future__ import annotations

from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from swarmsim.comms import SensorPacket, wrap_flow, wrap_i16
from swarmsim.core import Posture, RobotGeometry, WheelSpeeds, wheels_to_twist
from swarmsim.sim import (
    NOISE_BLOCK,
    STREAM_ENCODER,
    STREAM_FLOW,
    STREAM_GYRO,
    STREAM_IR,
    STREAM_SCHEDULE,
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
    active_slip,
    sample_gyro,
    sample_ir,
    stream_rng,
)

GEOM = RobotGeometry()


class ReferenceSim:
    """One robot's engine with one call per plant event and sensor sample."""

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
        self.enc_us = rates.encoder_period_us
        self.flow_us = rates.flow_period_us
        self.report_us = rates.report_period_us
        self.jitter_us = rates.report_jitter_us
        self.next_enc = self.enc_us
        self.next_flow = self.flow_us
        self.next_report = self.report_interval()
        self.ticks_l = self.ticks_r = 0
        self.flow_l = self.flow_r = 0.0

    def report_interval(self) -> int:
        if self.jitter_us == 0:
            return self.report_us
        return int(self.schedule_rng.integers(
            self.report_us - self.jitter_us, self.report_us + self.jitter_us + 1))

    def set_command(self, wheels: WheelSpeeds) -> None:
        self.loop.set_command(wheels.right, wheels.left)

    @property
    def pose(self) -> Posture:
        return self.loop.pose

    def advance_to(self, target_us: int) -> list[SensorPacket]:
        sent = []
        loop = self.loop
        flow_dt = self.flow_us * 1e-6
        enc_dt = self.enc_us * 1e-6
        while self.t_us < target_us:
            t_next = min(target_us, self.next_enc, self.next_flow,
                         self.next_report)
            slip = (active_slip(self.slip_schedule, self.t_us / 1e3)
                    if self.slip_schedule else None)
            loop.advance((t_next - self.t_us) * 1e-6, slip)
            self.t_us = t_next
            if self.t_us == self.next_flow:
                twist = wheels_to_twist(loop.ground, GEOM)
                dl, dr = self.flow.sample_vw(twist.v, twist.w, flow_dt)
                self.flow_l += dl
                self.flow_r += dr
                self.next_flow += self.flow_us
            if self.t_us == self.next_enc:
                wheels = loop.actual
                tr, tl = self.encoders.sample_speeds(wheels.right, wheels.left,
                                                     enc_dt)
                self.ticks_r += tr
                self.ticks_l += tl
                self.next_enc += self.enc_us
            if self.t_us == self.next_report:
                sent.append(self.assemble_report())
                self.next_report += self.report_interval()
        return sent

    def assemble_report(self) -> SensorPacket:
        pose = self.pose
        if self.world is not None:
            if not self.world.bounds.contains(pose.x, pose.y):
                raise RuntimeFault(
                    f"robot 0 left the world bounds at t={self.t_us / 1e6:g} s "
                    f"(x={pose.x:.1f} mm, y={pose.y:.1f} mm)")
            ir = tuple(sample_ir(self.world, [pose], GEOM, self.noise,
                                 self.ir_rng)[0])
        else:
            ir = (None,) * 5
        packet = SensorPacket(
            robot_id=0,
            t_sent=self.t_us // 1000,
            ticks_left=wrap_i16(self.ticks_l),
            ticks_right=wrap_i16(self.ticks_r),
            flow_dx_left=wrap_flow(self.flow_l),
            flow_dx_right=wrap_flow(self.flow_r),
            gyro_heading=sample_gyro(pose, self.noise, self.gyro_rng),
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
                   st.sampled_from((0.0, 180.0, -180.0, 400.0, -250.0)))
commands = st.tuples(speeds, speeds)
slip_events = st.builds(
    lambda start, length, stuck, factor: SlipEvent(
        start, start + length, "stuck" if stuck else "scale", factor),
    # Whole milliseconds land slip edges exactly on event instants.
    st.one_of(st.floats(0.0, 2500.0), st.integers(0, 2500).map(float)),
    st.one_of(st.floats(0.5, 1500.0), st.integers(1, 1500).map(float)),
    st.booleans(), st.floats(0.0, 1.0))
sensor_hz = st.one_of(st.sampled_from((400.0, 1000.0, 333.0, 700.0, 250.0)),
                      st.floats(20.0, 3000.0))


@st.composite
def rates(draw) -> Rates:
    period = draw(st.floats(5.0, 150.0))
    jitter = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.9 * period)))
    return Rates(encoder_hz=draw(sensor_hz), flow_hz=draw(sensor_hz),
                 report_period_ms=period, report_jitter_ms=jitter)


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
    assert (sim._ticks_r, sim._ticks_l) == (ref.ticks_r, ref.ticks_l)
    assert (sim._flow_l, sim._flow_r) == (ref.flow_l, ref.flow_r)
    assert ((sim._next_enc, sim._next_flow, sim._next_report)
            == (ref.next_enc, ref.next_flow, ref.next_report))
    loop = ref.loop
    assert ((sim._act_right, sim._act_left, sim._int_right, sim._int_left)
            == (loop.actual.right, loop.actual.left, *loop.integral))
    assert ((sim._carry_right, sim._carry_left)
            == tuple(ref.encoders._carry))


def test_fused_engine_crosses_noise_blocks():
    # Several NOISE_BLOCK refills of both streams, under slip and a turn.
    schedule = (SlipEvent(1000.0, 1500.0, "stuck"),
                SlipEvent(3000.0, 4000.0, "scale", factor=0.4))
    rates_ = Rates()
    start = Posture(0.0, 0.0, 0.0)
    sim = RobotSim(GEOM, SensorNoise(), start, 11,
                   slip_schedule=schedule, rates=rates_)
    ref = ReferenceSim(SensorNoise(), start, 11, schedule, rates_, None)
    steps = [(70_000, None)] * 80
    assert _run(sim, steps, (150.0, 90.0)) == _run(ref, steps, (150.0, 90.0))
    flow_draws = 2 * (sim.t_us // rates_.flow_period_us)
    assert flow_draws > 2 * NOISE_BLOCK
    assert sim.pose == ref.pose


def test_block_draws_equal_scalar_draws():
    # The engine serves noise from standard_normal(NOISE_BLOCK) blocks on
    # the promise that blocks continue the generator's scalar sequence
    # exactly; draw through its iterators past a block boundary.
    sim = RobotSim(GEOM, SensorNoise(), Posture(0.0, 0.0, 0.0), 5, robot_id=3)
    for purpose, stream in ((STREAM_ENCODER, sim._enc_noise),
                            (STREAM_FLOW, sim._flow_noise)):
        drawn = list(islice(stream, 2 * NOISE_BLOCK + 7))
        scalars = stream_rng(5, 3, purpose)
        assert drawn == [scalars.standard_normal() for _ in drawn]


@pytest.mark.parametrize("rates_", [
    Rates(report_period_ms=0.0004),    # a 0 us report clock never advances
    Rates(encoder_hz=2.0, flow_hz=2.0, report_period_ms=1000.0),
])
def test_engine_keeps_the_plant_step_check(rates_):
    # Scenario validation rejects these rates first; the engine's per-step
    # dt check stays as the backstop.
    sim = RobotSim(GEOM, SensorNoise(), Posture(0.0, 0.0, 0.0), 1, rates=rates_)
    with pytest.raises(ValueError, match="dt must be in"):
        sim.advance_to(1_000_000)
