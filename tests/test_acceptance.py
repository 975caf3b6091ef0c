"""End-to-end acceptance checks.

Each test exercises one headline capability at its stated tolerance and
prints a single PASS/FAIL verdict line (visible even under capture) so a
full run reads as a checklist.  Heavy experiments reuse one simulated
sensor stream per seed across every estimator variant.
"""

from __future__ import annotations

import csv
import dataclasses
import filecmp
import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from swarmsim.cli import runner
from swarmsim.cli.main import main
from swarmsim.cli.scenario import load_scenario
from swarmsim.comms import FRAME_SIZE, FrameError, SensorPacket, crc16, \
    decode_frame, encode_frame
from swarmsim.estimation import convert_reports, dead_reckon, run_estimator
from swarmsim.planning import FREE, NoPath, astar
from swarmsim.swarm import ConsensusConfig, run_networked_consensus, \
    run_synchronous_consensus

from test_planning import dijkstra_field, random_grid

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "swarmsim" / "scenarios"


def _verdict(capsys, label: str, ok: bool, detail: str) -> bool:
    with capsys.disabled():
        print(f"\nacceptance[{label}]: {'PASS' if ok else 'FAIL'} | {detail}")
    return ok


def _load(name: str, overrides: tuple[str, ...] = ()):
    return load_scenario(SCENARIOS / name, overrides)


# --- 1. circle tracking converges and stays converged --------------------------------


def test_tracking_converges_on_circle(tmp_path, capsys):
    scenario = _load("circle_track.yaml")
    t0 = time.perf_counter()
    runner.run_track(scenario, tmp_path)
    elapsed = time.perf_counter() - t0

    with open(tmp_path / "track.csv", newline="") as fh:
        rows = [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]
    late = [r for r in rows if r["t"] > 20.0]
    max_planar = max(math.hypot(r["x_e"], r["y_e"]) for r in late)
    max_heading = max(abs(r["theta_e"]) for r in late)
    settled = [r["V"] for r in rows if r["t"] >= 10.0]
    max_dv = max(b - a for a, b in zip(settled, settled[1:]))

    ok = (max_planar < 10.0 and max_heading < 0.05
          and max_dv < 1e-6 and elapsed < 5.0)
    assert _verdict(
        capsys, "tracking", ok,
        f"planar {max_planar:.3g} mm (<10), heading {max_heading:.3g} rad "
        f"(<0.05), dV {max_dv:.3g} (<1e-6), runtime {elapsed:.2f} s (<5)")


# --- 2. adaptive filter under a stuck-slip event --------------------------------------


def _terminal_error(reports, means, truth_at):
    t = reports.measurements[-1].t_ms
    m = means[-1]
    truth = truth_at[int(t)]
    return math.hypot(m[0] - truth.x, m[1] - truth.y)


def _rmse_against_truth(reports, means, truth_at):
    errs = [math.hypot(m[0] - truth_at[int(z.t_ms)].x, m[1] - truth_at[int(z.t_ms)].y)
            for z, m in zip(reports.measurements, means)]
    return math.sqrt(sum(e * e for e in errs) / len(errs))


def test_adaptive_filter_beats_alternatives_under_slip(capsys):
    base = _load("localize_slip.yaml")
    t0 = time.perf_counter()
    adaptive, nonadaptive, wheels = [], [], []
    for seed in range(1, 21):
        stream = runner.simulate_reports(dataclasses.replace(base, seed=seed))
        reports = convert_reports(stream.delivered, base.geometry, base.ekf)
        args = (reports, base.start, base.ekf)
        adaptive.append(_terminal_error(
            reports, run_estimator(*args, adaptive=True), stream.truth_at_send))
        nonadaptive.append(_terminal_error(
            reports, run_estimator(*args, adaptive=False), stream.truth_at_send))
        wheels.append(_terminal_error(
            reports, dead_reckon(reports, base.start, source="wheels"),
            stream.truth_at_send))
    elapsed = time.perf_counter() - t0
    med_adaptive = statistics.median(adaptive)
    med_nonadaptive = statistics.median(nonadaptive)
    med_wheels = statistics.median(wheels)

    ok = (med_adaptive < 0.25 * med_wheels
          and med_adaptive < 0.25 * med_nonadaptive
          and elapsed < 10.0)
    assert _verdict(
        capsys, "slip-rejection", ok,
        f"median terminal mm: adaptive {med_adaptive:.1f} vs dead-reckoning "
        f"{med_wheels:.1f} and non-adaptive {med_nonadaptive:.1f} "
        f"(<25% of both), runtime {elapsed:.2f} s (<10)")


# --- 3. timestamp-driven filter step vs hardwired 70 ms -------------------------------


def test_timestamp_driven_filter_beats_fixed_step(capsys):
    base = _load("localize_jitter.yaml")
    timestamped, hardwired = [], []
    for seed in range(1, 21):
        stream = runner.simulate_reports(dataclasses.replace(base, seed=seed))
        reports = convert_reports(stream.delivered, base.geometry, base.ekf)
        args = (reports, base.start, base.ekf)
        timestamped.append(_rmse_against_truth(
            reports, run_estimator(*args), stream.truth_at_send))
        hardwired.append(_rmse_against_truth(
            reports, run_estimator(*args, fixed_dt_s=0.07), stream.truth_at_send))
    med_ts = statistics.median(timestamped)
    med_fixed = statistics.median(hardwired)

    ok = med_ts <= 0.5 * med_fixed
    assert _verdict(
        capsys, "variable-dt", ok,
        f"median RMSE mm: timestamped {med_ts:.2f} vs fixed-70ms "
        f"{med_fixed:.2f} (ratio {med_ts / med_fixed:.3f}, need <=0.5)")


# --- 4. heading consensus: networked convergence and synchronous algebra --------------


def test_heading_consensus_converges(capsys):
    headings = (-1.2, -0.7, -0.2, 0.3, 0.8, 1.3)

    networked = run_networked_consensus(
        headings, ConsensusConfig(k=0.2, epsilon=0.01, mode="networked"))
    reached = [rec.t_s for rec in networked.trace if rec.spread < 0.01]
    time_to_spread = reached[0] if reached else math.inf

    # Force exactly 50 algebraic rounds: epsilon no run can reach.
    cfg = ConsensusConfig(k=0.2, epsilon=1e-30, mode="synchronous",
                          max_rounds=50)
    sync = run_synchronous_consensus(headings, cfg)
    first, last = sync.trace[0], sync.trace[-1]
    mean_drift = abs(last.mean - first.mean) / abs(first.mean)
    expected = abs(1.0 - 0.2) ** 50 * first.spread
    contraction_err = abs(last.spread - expected) / expected

    ok = (networked.converged and time_to_spread <= 10.0
          and sync.rounds == 50
          and mean_drift <= 1e-12 and contraction_err <= 1e-12)
    assert _verdict(
        capsys, "consensus", ok,
        f"networked spread<0.01 at {time_to_spread:.2f} s (<=10); synchronous "
        f"mean drift {mean_drift:.2e}, contraction error {contraction_err:.2e} "
        f"(both <=1e-12 over 50 rounds)")


# --- 5. planner optimality, inflation failure mode, pipeline clearance ----------------


def test_planner_is_optimal_and_safe(tmp_path, capsys):
    rng = np.random.default_rng(20250819)
    matched = 0
    solved = 0
    attempts = 0
    while solved < 100 and attempts < 600:
        attempts += 1
        grid = random_grid(rng, density=0.2, size=20)
        states = grid.states()
        free_cells = [(ix, iy) for iy in range(20) for ix in range(20)
                      if states[iy, ix] == FREE]
        i, j = rng.choice(len(free_cells), size=2, replace=False)
        start, goal = free_cells[i], free_cells[j]
        oracle = dijkstra_field(grid, start)
        if goal not in oracle:
            continue
        solved += 1
        path = astar(grid, start, goal)
        if math.isclose(path.cost, oracle[goal], abs_tol=1e-9):
            matched += 1

    over_inflated = _load("plan_arena.yaml", ("plan.margin_mm=220.0",))
    try:
        runner.run_plan(over_inflated, tmp_path / "blocked")
        no_path = False
    except NoPath:
        no_path = True

    (tmp_path / "arena").mkdir()
    summary = runner.run_plan(_load("plan_arena.yaml"), tmp_path / "arena")
    clearance = summary.metrics["min_true_clearance_mm"]
    body_radius = _load("plan_arena.yaml").geometry.body_radius

    ok = (matched == solved == 100 and no_path
          and clearance >= body_radius)
    assert _verdict(
        capsys, "planning", ok,
        f"optimal on {matched}/{solved} random grids (need 100/100); "
        f"over-inflation raises NoPath: {no_path}; arena path clearance "
        f"{clearance:.0f} mm >= body radius {body_radius:.0f} mm")


# --- 6. frame integrity --------------------------------------------------------------


def _crc16_reference(data: bytes) -> int:
    # Independent bitwise model: poly 0x1021, init 0xFFFF, unreflected.
    crc = 0xFFFF
    for byte in data:
        for bit in range(7, -1, -1):
            fed = ((byte >> bit) & 1) ^ (crc >> 15)
            crc = ((crc << 1) & 0xFFFF) ^ (0x1021 if fed else 0)
    return crc


def test_frame_integrity_detection(capsys):
    check_ok = (crc16(b"123456789") == 0x29B1
                and _crc16_reference(b"123456789") == 0x29B1)
    rng = np.random.default_rng(6)
    agree = all(
        crc16(bytes(block)) == _crc16_reference(bytes(block))
        for block in (rng.integers(0, 256, size=rng.integers(0, 64))
                      for _ in range(200)))

    frame = bytearray(encode_frame(SensorPacket(
        robot_id=3, t_sent=123456, ticks_left=-1921, ticks_right=2044,
        flow_dx_left=-96.1, flow_dx_right=102.4, gyro_heading=0.731,
        ir=(250.0, None, 804.0, None, 1499.0))))
    flips = 0
    caught = 0
    for pos in range(len(frame)):
        for bit in range(8):
            flips += 1
            corrupted = bytes(
                b ^ (1 << bit) if i == pos else b
                for i, b in enumerate(frame))
            try:
                decode_frame(corrupted)
            except FrameError:
                caught += 1

    trials = 100_000
    rejected = 0
    positions = rng.integers(0, len(frame), size=trials)
    masks = rng.integers(1, 256, size=trials)
    for pos, mask in zip(positions, masks):
        corrupted = bytes(frame[:pos]) + bytes([frame[pos] ^ mask]) \
            + bytes(frame[pos + 1:])
        try:
            decode_frame(corrupted)
        except FrameError:
            rejected += 1
    rejection = rejected / trials

    ok = (check_ok and agree and caught == flips and rejection >= 0.9999)
    assert _verdict(
        capsys, "framing", ok,
        f"check value 0x29B1: {check_ok}; reference agreement on 200 random "
        f"payloads: {agree}; single-bit detection {caught}/{flips} on a "
        f"{len(frame)}-byte frame; random-corruption rejection "
        f"{rejection:.6f} (>=0.9999 over {trials} trials)")


# --- 7. bundled scenarios are bit-reproducible -----------------------------------------


def test_bundled_scenarios_are_deterministic(tmp_path, capsys):
    outcomes = []
    for path in sorted(SCENARIOS.glob("*.yaml")):
        kind = load_scenario(path).kind
        dirs = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{path.stem}-{attempt}"
            assert main([kind, str(path), "--out", str(out)]) == 0
            dirs.append(out)
        files = sorted(p.name for p in dirs[0].iterdir())
        assert files, f"{path.stem} produced no outputs"
        match, mismatch, errors = filecmp.cmpfiles(
            dirs[0], dirs[1], files, shallow=False)
        outcomes.append((path.stem, len(match), len(files),
                         not mismatch and not errors))

    ok = all(good for _, _, _, good in outcomes)
    detail = "; ".join(f"{name} {n}/{total} files identical"
                       for name, n, total, good in outcomes)
    assert _verdict(capsys, "determinism", ok, detail)
