"""Application runners: deterministic simulations behind each subcommand.

Each runner consumes a validated Scenario, writes its artifact files into
an output directory, and returns a RunSummary. Output files never contain
wall-clock time, so an identical (scenario, seed) pair reproduces them
byte for byte; the command line times each run and prints the time only
on stdout.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from swarmsim.comms import SensorPacket, StarChannel, encode_frame, wrap_flow, wrap_i16
from swarmsim.control import lyapunov_value, tracking_control
from swarmsim.core import (ARC_EPSILON, Posture, RobotGeometry, WheelSpeeds,
                           error_posture, integrate_unicycle, wheels_to_twist,
                           wrap_angle)
from swarmsim.estimation import StreamingEstimator, dead_reckon, run_estimator
from swarmsim.planning import astar, inflate, ingest_ir_scan, median_filter, save_grid
from swarmsim.sim import (MAX_STEP_S, PiConfig, Rates, SensorNoise, SlipEvent, World,
                          sample_gyro, sample_ir)
from swarmsim.swarm import run_networked_consensus, run_synchronous_consensus
from swarmsim.cli.scenario import Scenario, ScenarioError


class RuntimeFault(Exception):
    """A validated scenario failed while running (exit code 3)."""


# Independent, seed-derived random streams per (robot, purpose): adding a
# robot or toggling one sensor never perturbs any other stream.
(STREAM_ENCODER, STREAM_FLOW, STREAM_GYRO, STREAM_IR, STREAM_CHANNEL,
 STREAM_SCHEDULE) = range(6)

COMPARE_VARIANTS = ("adaptive", "nonadaptive", "fixed_dt", "wheels", "flow")
DEFAULT_COMPARE_VARIANTS = ("adaptive", "nonadaptive", "fixed_dt", "wheels")


# Encoder and flow noise is drawn this many normals at a time.
NOISE_BLOCK = 4096


def stream_rng(seed: int, robot_id: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, robot_id, purpose])


# --- CSV and summary formatting ---------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_csv(path: Path, header: list[str], rows) -> Path:
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")
    return path


@dataclass
class RunSummary:
    """What one scenario run produced; printed as structured text."""

    scenario: Scenario
    metrics: dict = field(default_factory=dict)
    files: list = field(default_factory=list)


def format_summary(summary: RunSummary) -> str:
    scenario = summary.scenario
    lines = [
        f"scenario: {scenario.name}",
        f"kind: {scenario.kind}",
        f"seed: {scenario.seed}",
        f"config_digest: {scenario.digest}",
    ]
    lines += [f"{key}: {_fmt(value)}" for key, value in summary.metrics.items()]
    lines += [f"wrote: {path}" for path in summary.files]
    return "\n".join(lines)


# --- one-robot plant and sensor engine ---------------------------------------------


class RobotSim:
    """Plant, wheel PI loop, and sensor suite of one robot.

    Time advances on an integer microsecond grid so the 400 Hz encoder,
    1000 Hz flow, and report clocks stay exactly commensurate; every event
    fires at its true instant regardless of the other rates.

    ``advance_to`` is one fused event loop: the reference plant
    ``wheel_pi_step``, ``ground_wheels`` and ``step_plant``, the slip
    lookup, the encoder quantization of ``EncoderModel.sample_speeds`` and
    the flow sample of ``FlowModel.sample_vw`` are written inline, float
    operation for float operation, with the state held in locals between
    reports.  Encoder and flow noise come from ``standard_normal(NOISE_BLOCK)``
    blocks of the same per-stream generators, which yield the same sequence
    as scalar draws.  A reference loop that makes those one-step calls is
    the oracle of the engine equivalence test.
    """

    def __init__(self, geometry: RobotGeometry, noise: SensorNoise,
                 pi_cfg: PiConfig, start: Posture, seed: int,
                 slip_schedule: tuple[SlipEvent, ...] = (),
                 rates: Rates = Rates(), world: World | None = None,
                 robot_id: int = 0):
        self.geometry = geometry
        self.noise = noise
        self.pi_cfg = pi_cfg
        self.world = world
        self.robot_id = robot_id
        self._slips = tuple((e.start_ms, e.end_ms, e.mode == "stuck", e.factor)
                            for e in slip_schedule)
        self._x, self._y, self._theta = start.x, start.y, start.theta
        self._cmd_right = self._cmd_left = 0.0
        self._act_right = self._act_left = 0.0
        self._int_right = self._int_left = 0.0
        self._enc_rng = stream_rng(seed, robot_id, STREAM_ENCODER)
        self._flow_rng = stream_rng(seed, robot_id, STREAM_FLOW)
        self._enc_noise: list[float] = []
        self._flow_noise: list[float] = []
        self._enc_i = self._flow_i = NOISE_BLOCK   # both blocks drawn lazily
        self.gyro_rng = stream_rng(seed, robot_id, STREAM_GYRO)
        self.ir_rng = stream_rng(seed, robot_id, STREAM_IR)
        self.truth_at_send: dict[int, Posture] = {}
        self.t_us = 0
        self._enc_us = rates.encoder_period_us
        self._flow_us = rates.flow_period_us
        self._report_us = rates.report_period_us
        self._jitter_us = rates.report_jitter_us
        self._schedule_rng = stream_rng(seed, robot_id, STREAM_SCHEDULE)
        self._next_enc = self._enc_us
        self._next_flow = self._flow_us
        self._next_report = self._report_interval()
        self._carry_right = self._carry_left = 0.0
        self._ticks_l = 0
        self._ticks_r = 0
        self._flow_l = 0.0
        self._flow_r = 0.0

    def _report_interval(self) -> int:
        if self._jitter_us == 0:
            return self._report_us
        return int(self._schedule_rng.integers(
            self._report_us - self._jitter_us,
            self._report_us + self._jitter_us + 1))

    def set_command(self, wheels: WheelSpeeds) -> None:
        self._cmd_right = wheels.right
        self._cmd_left = wheels.left

    @property
    def pose(self) -> Posture:
        return Posture(self._x, self._y, self._theta)

    def advance_to(self, target_us: int) -> list[SensorPacket]:
        """Run plant and sensors up to target time; returns reports sent."""
        sent: list[SensorPacket] = []
        t_us = self.t_us
        cfg = self.pi_cfg
        kp, ki, tau = cfg.kp, cfg.ki, cfg.motor_tau
        v_max = cfg.v_max
        v_min = -v_max
        wheel_base = self.geometry.wheel_base
        half_sep = 0.5 * self.geometry.flow_separation
        mm_per_tick = self.geometry.mm_per_tick
        enc_sigma = self.noise.encoder_sigma
        flow_scale = self.noise.flow_scale
        enc_us, flow_us = self._enc_us, self._flow_us
        enc_dt = enc_us * 1e-6
        flow_dt = flow_us * 1e-6
        flow_sigma = self.noise.flow_sigma * flow_dt
        slips = self._slips
        sin, cos, pi = math.sin, math.cos, math.pi
        arc_eps, neg_arc_eps = ARC_EPSILON, -ARC_EPSILON
        # Saturated wheel targets; the command holds for the whole call.
        cmd = self._cmd_right
        target_r = cmd if cmd < v_max else v_max
        target_r = target_r if target_r > v_min else v_min
        cmd = self._cmd_left
        target_l = cmd if cmd < v_max else v_max
        target_l = target_l if target_l > v_min else v_min
        # Window state, written back before each report and at the end.
        x, y, theta = self._x, self._y, self._theta
        act_r, act_l = self._act_right, self._act_left
        int_r, int_l = self._int_right, self._int_left
        carry_r, carry_l = self._carry_right, self._carry_left
        ticks_r, ticks_l = self._ticks_r, self._ticks_l
        flow_l, flow_r = self._flow_l, self._flow_r
        next_enc, next_flow = self._next_enc, self._next_flow
        next_report = self._next_report
        enc_noise, enc_i = self._enc_noise, self._enc_i
        flow_noise, flow_i = self._flow_noise, self._flow_i
        window_slips = ()
        while t_us < target_us:
            stop = next_report if next_report < target_us else target_us
            if slips:
                # Events that can be active at some step start in
                # [t_us, stop); t / 1e3 is monotone in t.
                lo_ms, hi_ms = t_us / 1e3, stop / 1e3
                window_slips = tuple(e for e in slips
                                     if e[1] > lo_ms and e[0] <= hi_ms)
            # At least one step per window, so a report clock that does not
            # advance fails the dt check instead of looping forever.
            while True:
                t_next = stop
                if next_enc < t_next:
                    t_next = next_enc
                if next_flow < t_next:
                    t_next = next_flow
                dt = (t_next - t_us) * 1e-6
                if not 0 < dt <= MAX_STEP_S:
                    raise ValueError(
                        f"dt must be in (0, {MAX_STEP_S}], got {dt!r}")
                # Wheel speed loops: PI trim, anti-windup, motor lag.
                error = target_r - act_r
                drive = target_r + kp * error + ki * int_r
                if drive > v_max:
                    drive = v_max
                elif drive < v_min:
                    drive = v_min
                else:
                    int_r += error * dt
                act_r += dt * (drive - act_r) / tau
                error = target_l - act_l
                drive = target_l + kp * error + ki * int_l
                if drive > v_max:
                    drive = v_max
                elif drive < v_min:
                    drive = v_min
                else:
                    int_l += error * dt
                act_l += dt * (drive - act_l) / tau
                # Ground contact under the first active slip event.
                g_r, g_l = act_r, act_l
                if window_slips:
                    t_ms = t_us / 1e3
                    for start_ms, end_ms, stuck, factor in window_slips:
                        if start_ms <= t_ms < end_ms:
                            if stuck:
                                g_r = g_l = 0.0
                            else:
                                g_r = factor * act_r
                                g_l = factor * act_l
                            break
                # Body motion: chord form of the constant-twist arc.
                v = 0.5 * (g_r + g_l)
                w = (g_r - g_l) / wheel_base
                swept = w * dt
                if swept > arc_eps or swept < neg_arc_eps:
                    half = 0.5 * swept
                    chord = v * dt * sin(half) / half
                    heading = theta + half
                else:
                    chord = v * dt
                    heading = theta
                x += chord * cos(heading)
                y += chord * sin(heading)
                # wrap_angle returns a heading in (-pi, pi] unchanged.
                theta += swept
                if not -pi < theta <= pi:
                    theta = wrap_angle(theta)
                t_us = t_next
                if t_us == next_flow:
                    if flow_i == NOISE_BLOCK:
                        flow_noise = self._flow_rng.standard_normal(
                            NOISE_BLOCK).tolist()
                        flow_i = 0
                    half = half_sep * w
                    flow_l += ((v - half) * flow_dt * flow_scale
                               + flow_sigma * flow_noise[flow_i])
                    flow_r += ((v + half) * flow_dt * flow_scale
                               + flow_sigma * flow_noise[flow_i + 1])
                    flow_i += 2
                    next_flow += flow_us
                if t_us == next_enc:
                    if enc_i == NOISE_BLOCK:
                        enc_noise = self._enc_rng.standard_normal(
                            NOISE_BLOCK).tolist()
                        enc_i = 0
                    noisy = act_r + enc_sigma * enc_noise[enc_i]
                    total = carry_r + noisy * enc_dt
                    ticks = int(total / mm_per_tick)
                    carry_r = total - ticks * mm_per_tick
                    ticks_r += ticks
                    noisy = act_l + enc_sigma * enc_noise[enc_i + 1]
                    total = carry_l + noisy * enc_dt
                    ticks = int(total / mm_per_tick)
                    carry_l = total - ticks * mm_per_tick
                    ticks_l += ticks
                    enc_i += 2
                    next_enc += enc_us
                if t_us == stop:
                    break
            if t_us == next_report:
                # What _assemble_report reads.
                self._x, self._y, self._theta = x, y, theta
                self.t_us = t_us
                self._ticks_r, self._ticks_l = ticks_r, ticks_l
                self._flow_l, self._flow_r = flow_l, flow_r
                sent.append(self._assemble_report())
                next_report += self._report_interval()
        self._x, self._y, self._theta = x, y, theta
        self._act_right, self._act_left = act_r, act_l
        self._int_right, self._int_left = int_r, int_l
        self._carry_right, self._carry_left = carry_r, carry_l
        self._ticks_r, self._ticks_l = ticks_r, ticks_l
        self._flow_l, self._flow_r = flow_l, flow_r
        self._next_enc, self._next_flow = next_enc, next_flow
        self._next_report = next_report
        self._enc_noise, self._enc_i = enc_noise, enc_i
        self._flow_noise, self._flow_i = flow_noise, flow_i
        self.t_us = t_us
        return sent

    def _assemble_report(self) -> SensorPacket:
        """Snapshot the free-running odometry counters at send time."""
        pose = self.pose
        if self.world is not None:
            if not self.world.bounds.contains(pose.x, pose.y):
                raise RuntimeFault(
                    f"robot {self.robot_id} left the world bounds at "
                    f"t={self.t_us / 1e6:g} s (x={pose.x:.1f} mm, "
                    f"y={pose.y:.1f} mm)")
            ir = tuple(sample_ir(self.world, [pose], self.geometry, self.noise,
                                 self.ir_rng)[0])
        else:
            ir = (None,) * 5
        packet = SensorPacket(
            robot_id=self.robot_id,
            t_sent=self.t_us // 1000,
            ticks_left=wrap_i16(self._ticks_l),
            ticks_right=wrap_i16(self._ticks_r),
            flow_dx_left=wrap_flow(self._flow_l),
            flow_dx_right=wrap_flow(self._flow_r),
            gyro_heading=sample_gyro(pose, self.noise, self.gyro_rng),
            ir=ir,
        )
        self.truth_at_send[packet.t_sent] = pose
        return packet


@dataclass
class SensorRun:
    """Everything one simulated run handed to the server side."""

    delivered: list[SensorPacket]
    truth_at_send: dict[int, Posture]
    final_truth: Posture
    noise_digest: str
    sent: int
    dropped: int
    undecodable: int
    undelivered: int


def simulate_reports(scenario: Scenario, seed: int) -> SensorRun:
    """Open-loop run under the scenario's constant wheel command, reports
    via the channel; `seed` replaces the scenario's own for seed sweeps.

    Raises RuntimeFault when no report reaches the server, since no
    estimate can then be made.
    """
    sim = RobotSim(scenario.geometry, scenario.noise, PiConfig(), scenario.start,
                   seed, slip_schedule=scenario.slip, rates=scenario.rates,
                   world=scenario.world)
    sim.set_command(scenario.command)
    channel = StarChannel(scenario.channel, stream_rng(seed, 0, STREAM_CHANNEL))
    digest = hashlib.sha256()
    delivered: list[SensorPacket] = []
    duration_us = round(scenario.duration_s * 1e6)
    step_us = scenario.rates.report_period_us
    t_us = 0
    while t_us < duration_us:
        t_us = min(t_us + step_us, duration_us)
        for packet in sim.advance_to(t_us):
            frame = encode_frame(packet)
            digest.update(frame)
            channel.send(frame, float(packet.t_sent), packet.robot_id)
        delivered += channel.receive(t_us / 1e3)
    if not delivered:
        raise RuntimeFault(
            f"no report reached the server: {channel.sent} sent, "
            f"{channel.dropped} lost, {channel.undecodable} undecodable, "
            f"{channel.pending} still in flight")
    return SensorRun(
        delivered=delivered,
        truth_at_send=sim.truth_at_send,
        final_truth=sim.pose,
        noise_digest=digest.hexdigest(),
        sent=channel.sent,
        dropped=channel.dropped,
        undecodable=channel.undecodable,
        undelivered=channel.pending,
    )


def position_errors(times_ms, means, truth_at: dict[int, Posture]) -> np.ndarray:
    if not times_ms:
        # Only reports stamped 0 ms arrived: none postdates the start.
        raise RuntimeFault("no delivered report postdates the start time, "
                           "so none could be processed")
    errors = []
    for t, mean in zip(times_ms, means):
        truth = truth_at[int(t)]
        errors.append(math.hypot(mean[0] - truth.x, mean[1] - truth.y))
    return np.asarray(errors)


def _rmse(errors: np.ndarray) -> float:
    return float(math.sqrt(float(np.mean(np.square(errors)))))


# --- track -------------------------------------------------------------------------


TRACK_COLUMNS = ["t", "x_r", "y_r", "theta_r", "x_c", "y_c", "theta_c",
                 "x_e", "y_e", "theta_e", "v1", "v2", "V"]


def run_track(scenario: Scenario, out_dir: Path) -> RunSummary:
    steps = int(round(scenario.duration_s / scenario.control_period_s))
    if scenario.feedback == "truth":
        rows = _track_truth_loop(scenario, steps)
    else:
        rows = _track_estimator_loop(scenario, steps)
    planar = [math.hypot(r[7], r[8]) for r in rows]
    summary = RunSummary(scenario, {
        "steps": len(rows),
        "tracking_rmse_mm": _rmse(np.asarray(planar)),
        "terminal_error_mm": planar[-1],
        "terminal_heading_error_rad": abs(rows[-1][9]),
        "final_V": rows[-1][12],
    })
    summary.files.append(write_csv(out_dir / "track.csv", TRACK_COLUMNS, rows))
    return summary


def _track_truth_loop(scenario: Scenario, steps: int):
    """Noiseless kinematic closed loop: the controller sees the true pose."""
    traj, gains, geometry = scenario.trajectory, scenario.gains, scenario.geometry
    period_s = scenario.control_period_s
    pose = scenario.start
    rows = []
    for i in range(steps):
        t = i * period_s
        ref, v_r, w_r = traj.reference_at(t)
        wheels = tracking_control(ref, pose, v_r, w_r, gains, geometry)
        err = error_posture(ref, pose)
        rows.append((t, ref.x, ref.y, ref.theta, pose.x, pose.y, pose.theta,
                     err.x, err.y, err.theta, wheels.right, wheels.left,
                     lyapunov_value(err)))
        pose = integrate_unicycle(pose, wheels_to_twist(wheels, geometry),
                                  period_s)
    return rows


def _track_estimator_loop(scenario: Scenario, steps: int):
    """Full plant with the filter in the loop; commands use the estimate."""
    traj, gains, geometry = scenario.trajectory, scenario.gains, scenario.geometry
    period_s = scenario.control_period_s
    sim = RobotSim(geometry, scenario.noise, PiConfig(), scenario.start,
                   scenario.seed, slip_schedule=scenario.slip,
                   rates=scenario.rates)
    channel = StarChannel(scenario.channel,
                          stream_rng(scenario.seed, 0, STREAM_CHANNEL))
    est = StreamingEstimator(scenario.start, geometry, scenario.ekf,
                             adaptive=scenario.adaptive,
                             fixed_dt_s=scenario.fixed_dt_s)
    period_us = round(period_s * 1e6)
    rows = []
    for i in range(steps):
        t_us = i * period_us
        for packet in sim.advance_to(t_us):
            channel.send(encode_frame(packet), float(packet.t_sent),
                         packet.robot_id)
        for packet in channel.receive(t_us / 1e3):
            est.push(packet)
        t = i * period_s
        ref, v_r, w_r = traj.reference_at(t)
        wheels = tracking_control(ref, est.belief.pose, v_r, w_r, gains,
                                  geometry)
        sim.set_command(wheels)
        truth = sim.pose
        err = error_posture(ref, truth)
        rows.append((t, ref.x, ref.y, ref.theta, truth.x, truth.y, truth.theta,
                     err.x, err.y, err.theta, wheels.right, wheels.left,
                     lyapunov_value(err)))
    return rows


# --- localize and compare ------------------------------------------------------------


ESTIMATE_COLUMNS = ["t", "x_t", "y_t", "theta_t", "x_h", "y_h", "theta_h",
                    "err_mm", "slip"]


def _run_variant(name: str, run: SensorRun, scenario: Scenario):
    args = (run.delivered, scenario.start, scenario.geometry)
    if name == "adaptive":
        return run_estimator(*args, scenario.ekf)
    if name == "nonadaptive":
        return run_estimator(*args, scenario.ekf, adaptive=False)
    if name == "fixed_dt":
        return run_estimator(*args, scenario.ekf,
                             fixed_dt_s=scenario.rates.report_period_ms / 1e3)
    if name == "wheels" or name == "flow":
        return dead_reckon(*args, name)
    raise ScenarioError(f"unknown estimator variant {name!r}; "
                        f"choose from {', '.join(COMPARE_VARIANTS)}")


def run_localize(scenario: Scenario, out_dir: Path) -> RunSummary:
    run = simulate_reports(scenario, scenario.seed)
    estimate = run_estimator(run.delivered, scenario.start, scenario.geometry,
                             scenario.ekf, adaptive=scenario.adaptive,
                             fixed_dt_s=scenario.fixed_dt_s)
    errors = position_errors(estimate.times_ms, estimate.means,
                             run.truth_at_send)
    rows = []
    for t, mean, slip, err in zip(estimate.times_ms, estimate.means,
                                  estimate.slip_flags, errors):
        truth = run.truth_at_send[int(t)]
        rows.append((t / 1e3, truth.x, truth.y, truth.theta,
                     mean[0], mean[1], wrap_angle(mean[2]), float(err),
                     int(slip)))
    summary = RunSummary(scenario, {
        "reports_sent": run.sent,
        "reports_processed": len(rows),
        "frames_lost": run.dropped,
        "frames_undecodable": run.undecodable,
        "stale_skipped": estimate.stale_skipped,
        "slip_flagged_reports": int(sum(estimate.slip_flags)),
        "position_rmse_mm": _rmse(errors),
        "terminal_error_mm": float(errors[-1]),
        "noise_digest": run.noise_digest[:12],
    })
    summary.files.append(write_csv(out_dir / "estimates.csv",
                                   ESTIMATE_COLUMNS, rows))
    return summary


def run_compare(scenario: Scenario, out_dir: Path,
                variants: tuple[str, ...] = DEFAULT_COMPARE_VARIANTS) -> RunSummary:
    """Simulate the report stream once and run every variant on it."""
    run = simulate_reports(scenario, scenario.seed)
    rows = []
    for name in variants:
        estimate = _run_variant(name, run, scenario)
        errors = position_errors(estimate.times_ms, estimate.means,
                                 run.truth_at_send)
        rows.append((name, _rmse(errors), float(errors[-1]),
                     estimate.stale_skipped))
    summary = RunSummary(scenario)
    for name, rmse, terminal, stale in rows:
        summary.metrics[f"{name}_rmse_mm"] = rmse
        summary.metrics[f"{name}_terminal_mm"] = terminal
    summary.metrics["noise_digest"] = run.noise_digest[:12]
    summary.files.append(write_csv(
        out_dir / "compare.csv",
        ["variant", "rmse_mm", "terminal_mm", "stale_skipped"], rows))
    return summary


# --- consensus -----------------------------------------------------------------------


def run_consensus(scenario: Scenario, out_dir: Path) -> RunSummary:
    headings, cfg = scenario.headings, scenario.consensus
    if cfg.mode == "synchronous":
        result = run_synchronous_consensus(headings, cfg)
    else:
        result = run_networked_consensus(
            headings, cfg,
            channel_model=scenario.channel,
            geometry=scenario.geometry,
            gyro_sigma=scenario.noise.gyro_sigma,
            seed=scenario.seed,
        )
    n = len(headings)
    header = ["t", "round", "mean", "spread"] + [f"h{i}" for i in range(n)]
    rows = [(rec.t_s, i, rec.mean, rec.spread, *rec.headings)
            for i, rec in enumerate(result.trace)]
    summary = RunSummary(scenario, {
        "robots": n,
        "converged": result.converged,
        "rounds": result.rounds,
        "time_s": result.time_s,
        "final_spread_rad": result.trace[-1].spread if result.trace else 0.0,
        "staleness_warnings": result.staleness_warnings,
    })
    summary.files.append(write_csv(out_dir / "consensus.csv", header, rows))
    return summary


# --- plan ----------------------------------------------------------------------------


def run_plan(scenario: Scenario, out_dir: Path) -> RunSummary:
    geometry, world = scenario.geometry, scenario.world
    grid = scenario.grid.clone_empty()
    ir_rng = stream_rng(scenario.seed, 0, STREAM_IR)
    n = scenario.survey_headings
    poses = [Posture(x, y, wrap_angle(2.0 * math.pi * k / n))
             for x, y in scenario.survey_points for k in range(n)]
    readings = sample_ir(world, poses, geometry, scenario.noise, ir_rng)
    ingest_ir_scan(grid, poses, readings, geometry)
    filtered = median_filter(grid, scenario.median_window)
    margin = scenario.margin_mm
    planner_grid = inflate(filtered, margin)
    path = astar(planner_grid, scenario.start_cell, scenario.goal_cell)
    clear = min(world.clearance(*planner_grid.cell_center(c)) for c in path.cells)
    summary = RunSummary(scenario, {
        "scans": len(poses),
        "skipped_readings": grid.skipped_readings,
        "occupied_cells": int(np.count_nonzero(filtered.occupancy())),
        "unknown_cells": int(np.count_nonzero(~filtered.observed)),
        "inflation_margin_mm": margin,
        "path_cells": len(path.cells),
        "path_cost": path.cost,
        "path_length_mm": path.cost * planner_grid.resolution,
        "cells_expanded": len(path.expanded),
        "min_true_clearance_mm": clear,
    })
    pgm, txt = save_grid(filtered, out_dir / "map")
    rows = [(ix, iy, *planner_grid.cell_center((ix, iy)))
            for ix, iy in path.cells]
    summary.files += [
        pgm, txt,
        write_csv(out_dir / "path.csv", ["ix", "iy", "x_mm", "y_mm"], rows),
    ]
    return summary


RUNNERS = {
    "track": run_track,
    "localize": run_localize,
    "consensus": run_consensus,
    "plan": run_plan,
}


def run_scenario(scenario: Scenario, out_dir: Path) -> RunSummary:
    """Dispatch a scenario to the runner its kind names."""
    return RUNNERS[scenario.kind](scenario, out_dir)
