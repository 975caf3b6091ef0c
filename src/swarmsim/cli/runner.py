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
from operator import itemgetter, sub
from pathlib import Path

import numpy as np

from swarmsim.comms import SensorPacket, StarChannel, encode_frame, encode_frames
from swarmsim.control import lyapunov_value, tracking_control
from swarmsim.core import (Posture, error_posture, integrate_unicycle,
                           wheels_to_twist, wrap_angle)
from swarmsim.estimation import (ConvertedReports, ReportConverter, convert_reports,
                                 dead_reckon, filter_step, initial_belief,
                                 run_estimator, run_estimators)
from swarmsim.planning import astar, inflate, ingest_ir_scan, median_filter, save_grid
from swarmsim.sim import (STREAM_CHANNEL, STREAM_IR, RobotSim, RuntimeFault,
                          sample_ir, stream_rng)
from swarmsim.swarm import run_networked_consensus, run_synchronous_consensus
from swarmsim.cli.scenario import Scenario


COMPARE_VARIANTS = ("adaptive", "nonadaptive", "fixed_dt", "wheels", "flow")
DEFAULT_COMPARE_VARIANTS = ("adaptive", "nonadaptive", "fixed_dt", "wheels")


# --- CSV and summary formatting ---------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


# The % conversion of each exact cell type; "%.6g" % x is f"{x:.6g}".
_CELL_FORMATS = {float: "%.6g", int: "%d", str: "%s"}


def _row_template(types: tuple[type, ...]) -> str | None:
    """One % template for a row of these exact cell types, or None when a
    cell (a bool, a numpy scalar) needs _fmt."""
    formats = [_CELL_FORMATS.get(t) for t in types]
    if None in formats:
        return None
    return ",".join(formats) + "\n"


def write_csv(path: Path, header: list[str], rows) -> Path:
    """Write the rows, each formatted as _fmt formats its values, through
    one template per row shape."""
    templates: dict[tuple[type, ...], str | None] = {}
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            types = tuple(map(type, row))
            try:
                template = templates[types]
            except KeyError:
                template = templates[types] = _row_template(types)
            if template is None:
                f.write(",".join(_fmt(v) for v in row) + "\n")
            else:
                f.write(template % tuple(row))
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


@dataclass
class SensorRun:
    """Delivered reports, truth at each send, and the channel that carried them."""

    delivered: list[SensorPacket]
    truth_at_send: dict[int, Posture]
    noise_digest: str
    channel: StarChannel


def simulate_reports(scenario: Scenario) -> SensorRun:
    """Open-loop run under the scenario's constant wheel command, reports
    via the channel.

    Raises RuntimeFault when no report reaches the server, since no
    estimate can then be made.
    """
    sim = RobotSim(scenario.geometry, scenario.noise, scenario.start, scenario.seed,
                   slip_schedule=scenario.slip, rates=scenario.rates,
                   world=scenario.world)
    duration_us = round(scenario.duration_s * 1e6)
    sim.set_command(scenario.command)
    channel = StarChannel(scenario.channel,
                          stream_rng(scenario.seed, 0, STREAM_CHANNEL))
    packets = sim.advance_to(duration_us)
    frames = encode_frames(packets)
    channel.send_many(frames, [packet.t_sent for packet in packets],
                      [packet.robot_id for packet in packets])
    delivered = channel.receive(duration_us / 1e3)
    if not delivered:
        raise _no_report_fault(channel)
    return SensorRun(delivered, sim.truth_at_send, hashlib.sha256(frames).hexdigest(),
                     channel)


def _no_report_fault(channel: StarChannel) -> RuntimeFault:
    return RuntimeFault(
        f"no report reached the server: {channel.sent} sent, "
        f"{channel.dropped} lost, {channel.undecodable} undecodable, "
        f"{channel.pending} still in flight")


def report_truths(reports: ConvertedReports,
                  truth_at: dict[int, Posture]) -> tuple[list[float], ...]:
    """The x, y and theta of the truth at each converted report's send, as
    three columns."""
    truths = [truth_at[int(meas.t_ms)] for meas in reports.measurements]
    return tuple(map(list, zip(*truths))) if truths else ([], [], [])


def planar_errors(means, truths: tuple[list[float], ...]) -> np.ndarray:
    """Planar error of each mean against the truth in the same entry of the
    report_truths columns, by math.hypot (np.hypot need not round the same)."""
    if not means:
        # Only reports stamped 0 ms arrived: none postdates the start.
        raise RuntimeFault("no delivered report postdates the start time, "
                           "so none could be processed")
    mean_x, mean_y = map(itemgetter(0), means), map(itemgetter(1), means)
    return np.fromiter(map(math.hypot, map(sub, mean_x, truths[0]),
                           map(sub, mean_y, truths[1])), float, len(means))


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
    """Full plant with the filter in the loop; commands use the estimate.
    A run that folds no report, and so steers on its start belief, faults."""
    traj, gains, geometry = scenario.trajectory, scenario.gains, scenario.geometry
    period_s = scenario.control_period_s
    sim = RobotSim(geometry, scenario.noise, scenario.start, scenario.seed,
                   slip_schedule=scenario.slip, rates=scenario.rates)
    channel = StarChannel(scenario.channel,
                          stream_rng(scenario.seed, 0, STREAM_CHANNEL))
    converter = ReportConverter(geometry, scenario.ekf)
    start = belief = initial_belief(scenario.start)
    period_us = round(period_s * 1e6)
    rows = []
    for i in range(steps):
        t_us = i * period_us
        for packet in sim.advance_to(t_us):
            channel.send(encode_frame(packet), float(packet.t_sent),
                         packet.robot_id)
        for packet in channel.receive(t_us / 1e3):
            meas = converter.convert(packet)
            if meas is not None:
                belief = filter_step(belief, meas, converter.slip, scenario.ekf,
                                     scenario.adaptive, scenario.fixed_dt_s)
        t = i * period_s
        ref, v_r, w_r = traj.reference_at(t)
        wheels = tracking_control(ref, belief.pose, v_r, w_r, gains, geometry)
        sim.set_command(wheels)
        truth = sim.pose
        err = error_posture(ref, truth)
        rows.append((t, ref.x, ref.y, ref.theta, truth.x, truth.y, truth.theta,
                     err.x, err.y, err.theta, wheels.right, wheels.left,
                     lyapunov_value(err)))
    if belief is start:
        raise _no_report_fault(channel)
    return rows


# --- localize and compare ------------------------------------------------------------


ESTIMATE_COLUMNS = ["t", "x_t", "y_t", "theta_t", "x_h", "y_h", "theta_h",
                    "err_mm", "slip"]


def _variant_estimates(variants: tuple[str, ...], reports: ConvertedReports,
                       scenario: Scenario) -> dict[str, list[tuple[float, ...]]]:
    """The states each named variant estimates; the filter variants fold
    in one lockstep run_estimators call."""
    settings = {"adaptive": (True, None), "nonadaptive": (False, None),
                "fixed_dt": (True, scenario.rates.report_period_ms / 1e3)}
    filters = [name for name in variants if name in settings]
    estimates = dict(zip(filters, run_estimators(
        reports, scenario.start, scenario.ekf, [settings[name] for name in filters])))
    for name in variants:
        if name not in estimates:
            # "wheels" or "flow": the --variants choices admit no other name.
            estimates[name] = dead_reckon(reports, scenario.start, name)
    return estimates


def run_localize(scenario: Scenario, out_dir: Path) -> RunSummary:
    run = simulate_reports(scenario)
    reports = convert_reports(run.delivered, scenario.geometry, scenario.ekf)
    means = run_estimator(reports, scenario.start, scenario.ekf,
                          adaptive=scenario.adaptive,
                          fixed_dt_s=scenario.fixed_dt_s)
    truths = report_truths(reports, run.truth_at_send)
    errors = planar_errors(means, truths)
    rows = [(meas.t_ms / 1e3, *truth, mean[0], mean[1], wrap_angle(mean[2]), err,
             int(slip))
            for meas, truth, mean, slip, err in zip(
                reports.measurements, zip(*truths), means, reports.slip_flags,
                errors.tolist())]
    summary = RunSummary(scenario, {
        "reports_sent": run.channel.sent,
        "reports_processed": len(rows),
        "frames_lost": run.channel.dropped,
        "frames_undecodable": run.channel.undecodable,
        "stale_skipped": reports.stale_skipped,
        "slip_flagged_reports": int(sum(reports.slip_flags)),
        "position_rmse_mm": _rmse(errors),
        "terminal_error_mm": float(errors[-1]),
        "noise_digest": run.noise_digest[:12],
    })
    summary.files.append(write_csv(out_dir / "estimates.csv",
                                   ESTIMATE_COLUMNS, rows))
    return summary


def run_compare(scenario: Scenario, out_dir: Path,
                variants: tuple[str, ...] = DEFAULT_COMPARE_VARIANTS) -> RunSummary:
    """Simulate and convert the report stream once and run every variant
    on it, the filter variants in lockstep."""
    run = simulate_reports(scenario)
    reports = convert_reports(run.delivered, scenario.geometry, scenario.ekf)
    estimates = _variant_estimates(variants, reports, scenario)
    truths = report_truths(reports, run.truth_at_send)
    rows = []
    for name in variants:
        errors = planar_errors(estimates[name], truths)
        rows.append((name, _rmse(errors), float(errors[-1]),
                     reports.stale_skipped))
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
    if not result.trace:
        raise RuntimeFault(
            f"no consensus round ran: not every one of the {n} robots reached "
            f"the server within max_rounds={cfg.max_rounds} rounds")
    header = ["t", "round", "mean", "spread"] + [f"h{i}" for i in range(n)]
    rows = [(rec.t_s, i, rec.mean, rec.spread, *rec.headings)
            for i, rec in enumerate(result.trace)]
    summary = RunSummary(scenario, {
        "robots": n,
        "converged": result.converged,
        "rounds": result.rounds,
        "time_s": result.time_s,
        "final_spread_rad": result.trace[-1].spread,
        "staleness_warnings": result.staleness_warnings,
    })
    summary.files.append(write_csv(out_dir / "consensus.csv", header, rows))
    return summary


# --- plan ----------------------------------------------------------------------------


def run_plan(scenario: Scenario, out_dir: Path) -> RunSummary:
    geometry, world = scenario.geometry, scenario.world
    grid = scenario.grid.clone_empty()
    ir_rng = stream_rng(scenario.seed, 0, STREAM_IR)
    # Each survey point is scanned at every heading, point-major.
    n = scenario.survey_headings
    headings = [wrap_angle(2.0 * math.pi * k / n) for k in range(n)]
    x, y = np.repeat(np.array(scenario.survey_points, dtype=float), n, axis=0).T
    theta = np.tile(headings, len(scenario.survey_points))
    readings = sample_ir(world, x, y, theta, geometry, scenario.noise, ir_rng)
    ingest_ir_scan(grid, readings, geometry)
    filtered = median_filter(grid, scenario.median_window)
    margin = scenario.margin_mm
    planner_grid = inflate(filtered, margin)
    path = astar(planner_grid, scenario.start_cell, scenario.goal_cell)
    clear = min(world.clearance(*planner_grid.cell_center(c)) for c in path.cells)
    summary = RunSummary(scenario, {
        "scans": len(theta),
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
