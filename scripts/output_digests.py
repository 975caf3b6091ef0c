"""Print one sha256 per fixed CLI invocation, to compare two trees' outputs.

    python3 scripts/output_digests.py > digests.txt
    python3 scripts/output_digests.py --against digests.txt

Each invocation runs `python -m swarmsim` from this tree's `src/` in a fresh
process with its own `--out` directory. The digest covers the exit code,
stdout without the `wall_clock_s:` and `wrote:` lines, stderr with the tree
path masked, and the name and bytes of every file written under `--out`.
Run it in two checkouts and `diff` the two listings: a line that matches
means that invocation's outputs are byte-identical. With `--against FILE`
the listing is also compared with one saved earlier: each label whose
digest differs is printed after the listing, and the exit status is 1 if
any does. Labels the saved listing lacks are named but do not count.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "src" / "swarmsim" / "scenarios"

LOSSY_TRACK = ("channel.loss_prob=0.3", "channel.latency_max_ms=300",
               "channel.bit_flip_prob=0.001")
LOSSY_LOCALIZE = ("channel.loss_prob=0.2", "channel.bit_flip_prob=0.001",
                  "channel.latency_max_ms=400")
# The benchmark's closed_loop consensus: 24 noiseless robots, whose first
# turns saturate the wheels, on a lossy channel.
_RNG = random.Random(24)
BENCH_SWARM = (
    "consensus.headings=[" + ", ".join(f"{_RNG.uniform(-1.4, 1.4):.4f}"
                                       for _ in range(24)) + "]",
    "channel.loss_prob=0.1", "channel.latency_min_ms=50", "channel.latency_max_ms=100")
# The same swarm with noisy gyros: every report draws through sample_gyro.
NOISY_BENCH_SWARM = (*BENCH_SWARM, "robot.noiseless=false")
# The same swarm on a channel that flips bits and, with a jitter span wider
# than the 70 ms round, reorders frames: pins the order of the channel's
# loss, corruption and latency draws.
CORRUPTING_SWARM = (*BENCH_SWARM[:3], "channel.latency_max_ms=200",
                    "channel.bit_flip_prob=0.001")
# The same swarm with noisy gyros on a channel that flips bits: gyro noise
# and corrupted frames in one run.
NOISY_CORRUPTING_SWARM = (*NOISY_BENCH_SWARM, "channel.bit_flip_prob=0.002")
# Headings beyond +-pi, wrapped on the robots, and a turn gain whose first
# turns saturate the wheels.
WRAPPED_SWARM = ("consensus.headings=[4.0, -4.0, 9.5, -7.25, 3.1416, -3.1416, 0.0, 12.0]",
                 "consensus.turn_gain=400", "channel.loss_prob=0.1")
NOISY_SWARM = ("consensus.headings=[-1.2, -0.85, -0.5, -0.15, 0.2, 0.55, 0.9, 1.25]",
               "robot.noiseless=false", "channel.loss_prob=0.1",
               "channel.latency_min_ms=50", "channel.latency_max_ms=100",
               "channel.bit_flip_prob=0.001", "consensus.round_period_ms=70.5")

# (label, command, scenario file, extra arguments)
INVOCATIONS = (
    ("track bundled", "track", "circle_track.yaml", ()),
    ("track estimator", "track", "circle_track.yaml",
     ("--override", "control.feedback=estimator")),
    ("track estimator lossy", "track", "circle_track.yaml",
     ("--override", "control.feedback=estimator",
      *[a for spec in LOSSY_TRACK for a in ("--override", spec)])),
    # A control period that is no multiple of the 2.5 ms plant tick: each
    # command latches at the tick boundary after it is set.
    ("track estimator 33 ms control period", "track", "circle_track.yaml",
     ("--override", "control.feedback=estimator",
      "--override", "control.period_ms=33")),
    ("localize slip", "localize", "localize_slip.yaml", ()),
    ("localize jitter", "localize", "localize_jitter.yaml", ()),
    ("localize slip lossy", "localize", "localize_slip.yaml",
     tuple(a for spec in LOSSY_LOCALIZE for a in ("--override", spec))),
    # The filter settings the bundled scenarios leave at their defaults.
    ("localize jitter non-adaptive filter", "localize", "localize_jitter.yaml",
     ("--override", "estimator.adaptive=false")),
    ("localize slip fixed 70 ms filter step", "localize", "localize_slip.yaml",
     ("--override", "estimator.fixed_dt_ms=70")),
    ("track estimator non-adaptive fixed step", "track", "circle_track.yaml",
     ("--override", "control.feedback=estimator",
      "--override", "estimator.adaptive=false",
      "--override", "estimator.fixed_dt_ms=70")),
    ("compare slip", "compare", "localize_slip.yaml", ()),
    ("compare jitter", "compare", "localize_jitter.yaml", ()),
    ("compare slip seed 7 all variants", "compare", "localize_slip.yaml",
     ("--seed", "7", "--variants", "adaptive", "nonadaptive", "fixed_dt",
      "wheels", "flow")),
    ("compare jitter lossy flow wheels adaptive", "compare", "localize_jitter.yaml",
     ("--variants", "flow", "wheels", "adaptive",
      *[a for spec in LOSSY_LOCALIZE for a in ("--override", spec)])),
    # Filter variants in reverse order, one repeated, on a jittered stream
    # whose wheels slip: the variants that share steps split mid-run.
    ("compare jitter slipping reverse variants", "compare", "localize_jitter.yaml",
     ("--override", "robot.slip=[{start_ms: 8000, end_ms: 11000, mode: stuck}]",
      "--variants", "fixed_dt", "nonadaptive", "adaptive", "adaptive")),
    # No frame lost: the fixed 70 ms step matches every report interval.
    ("compare slip lossless", "compare", "localize_slip.yaml",
     ("--override", "channel.loss_prob=0", "--variants", "adaptive", "nonadaptive",
      "fixed_dt", "wheels", "flow")),
    ("consensus bundled", "consensus", "consensus_demo.yaml", ()),
    ("consensus 8 robots noisy lossy", "consensus", "consensus_demo.yaml",
     tuple(a for spec in NOISY_SWARM for a in ("--override", spec))),
    # The synchronous rounds: to convergence, stopped unconverged at
    # max_rounds, and settled from the first record.
    ("consensus bundled synchronous", "consensus", "consensus_demo.yaml",
     ("--override", "consensus.mode=synchronous")),
    ("consensus synchronous stopped at max_rounds", "consensus", "consensus_demo.yaml",
     ("--override", "consensus.mode=synchronous",
      "--override", "consensus.max_rounds=12")),
    ("consensus synchronous equal headings", "consensus", "consensus_demo.yaml",
     ("--override", "consensus.mode=synchronous",
      "--override", "consensus.headings=[0.4, 0.4, 0.4]")),
    ("plan bundled", "plan", "plan_arena.yaml", ()),
    ("plan noisy 25 mm", "plan", "plan_arena.yaml",
     ("--override", "robot.noiseless=false",
      "--override", "robot.noise.ir_sigma=25")),
    # Engine branches the bundled scenarios do not reach.
    ("localize scale slip", "localize", "localize_slip.yaml",
     ("--override",
      "robot.slip=[{start_ms: 4000, end_ms: 9000, mode: scale, factor: 0.4}]")),
    ("localize saturating command", "localize", "localize_slip.yaml",
     ("--override", "robot.command=[400, -250]")),
    ("compare noiseless", "compare", "localize_slip.yaml",
     ("--override", "robot.noiseless=true")),
    ("localize slip nothing delivered", "localize", "localize_slip.yaml",
     ("--override", "channel.loss_prob=1.0")),
    ("consensus nothing delivered", "consensus", "consensus_demo.yaml",
     ("--override", "channel.loss_prob=1.0")),
    ("localize slip out of world", "localize", "localize_slip.yaml",
     ("--override", "world={bounds: [-300,-300,300,300]}")),
    # Validation: non-finite numbers and cross-field rules exit 2.
    ("localize infinite command", "localize", "localize_slip.yaml",
     ("--override", "robot.command=[.inf,0]")),
    ("localize infinite latency", "localize", "localize_slip.yaml",
     ("--override", "channel.latency_max_ms=.inf")),
    ("localize nan duration", "localize", "localize_slip.yaml",
     ("--override", "duration_s=.nan")),
    ("localize slip ending before it starts", "localize", "localize_slip.yaml",
     ("--override", "robot.slip=[{start_ms: 5000, end_ms: 1000}]")),
    ("localize latency min above max", "localize", "localize_slip.yaml",
     ("--override", "channel.latency_min_ms=200")),
    ("consensus gain out of range", "consensus", "consensus_demo.yaml",
     ("--override", "consensus.k=3")),
    ("plan inverted rect", "plan", "plan_arena.yaml",
     ("--override", "world.rects=[[800,0,700,500]]")),
    ("localize integer beyond the float range", "localize", "localize_slip.yaml",
     ("--override", "duration_s=1" + "0" * 400)),
    ("consensus with one heading", "consensus", "consensus_demo.yaml",
     ("--override", "consensus.headings=[0.5]")),
    # The sensor sample rates are fixed; the old key is an unknown key.
    ("localize setting the removed encoder rate", "localize", "localize_slip.yaml",
     ("--override", "rates.encoder_hz=333")),
    # Values that passed validation and then failed the run.
    ("localize slip window beyond a C size", "localize", "localize_slip.yaml",
     ("--override", "estimator.slip_window=1" + "0" * 30)),
    ("plan width beyond a C size", "plan", "plan_arena.yaml",
     ("--override", "plan.width_cells=1" + "0" * 23)),
    ("track shorter than one control period", "track", "circle_track.yaml",
     ("--override", "duration_s=0.01")),
    ("track control period turning over pi/2", "track", "circle_track.yaml",
     ("--override", "control.period_ms=100000")),
    ("plan start outside the grid", "plan", "plan_arena.yaml",
     ("--override", "plan.start=[-5000,0]")),
    ("plan even median window", "plan", "plan_arena.yaml",
     ("--override", "plan.median_window=4")),
    ("localize start outside the world", "localize", "localize_slip.yaml",
     ("--override", "world={bounds: [100,100,200,200]}")),
    ("plan survey with no clear point", "plan", "plan_arena.yaml",
     ("--override", "plan.survey.min_clearance_mm=5000")),
    ("plan margin wider than the grid", "plan", "plan_arena.yaml",
     ("--override", "plan.margin_mm=1600")),
    ("plan median window wider than the grid", "plan", "plan_arena.yaml",
     ("--override", "plan.median_window=99")),
    ("consensus rounds past the u32 ms clock", "consensus", "consensus_demo.yaml",
     ("--override", "consensus.round_period_ms=3600000")),
    ("consensus 257 networked robots", "consensus", "consensus_demo.yaml",
     ("--override", "consensus.headings=[" + ", ".join(["0.1"] * 257) + "]")),
    ("consensus headings near the float maximum", "consensus", "consensus_demo.yaml",
     ("--override", "consensus.headings=[1.7e+308, 1.7e+308]",
      "--override", "consensus.mode=synchronous")),
    # A seed of any size still runs.
    ("localize 42-digit seed", "localize", "localize_slip.yaml",
     ("--override", "seed=1" + "0" * 41)),
    # The benchmark's two plan surveys, and IR scans inside the sensor engine.
    ("plan noisy seed 11", "plan", "plan_arena.yaml",
     ("--seed", "11", "--override", "robot.noiseless=false")),
    ("plan noisy 25 mm grid of 81x61 seed 12", "plan", "plan_arena.yaml",
     ("--seed", "12", "--override", "robot.noiseless=false",
      "--override", "plan.resolution_mm=25", "--override", "plan.width_cells=81",
      "--override", "plan.height_cells=61")),
    # A fine grid: the survey ingest counts each walk's cells over many steps.
    ("plan noisy 10 mm grid of 200x150", "plan", "plan_arena.yaml",
     ("--override", "robot.noiseless=false",
      "--override", "plan.resolution_mm=10", "--override", "plan.width_cells=200",
      "--override", "plan.height_cells=150")),
    ("localize slip among obstacles", "localize", "localize_slip.yaml",
     ("--override", "world={bounds: [-2000, -2000, 2000, 2000], "
      "rects: [[300, -900, 500, -500]], segments: [[-800, 600, -300, 900]]}")),
    # In-type numbers near the float maximum that overflowed the run.
    ("track gain near the float maximum", "track", "circle_track.yaml",
     ("--override", "control.gains.k_x=1.7e+308")),
    ("track start near the float maximum", "track", "circle_track.yaml",
     ("--override", "robot.start=[1.7e+308, 1.7e+308, 1.7e+308]")),
    ("localize flow scale near the float maximum", "localize", "localize_slip.yaml",
     ("--override", "robot.noise.flow_scale=1.7e+308")),
    ("localize wall near the float maximum", "localize", "localize_slip.yaml",
     ("--override", "duration_s=0.5",
      "--override", "world={bounds: [-1000, -1000, 1000, 1000]}",
      "--override", "world.segments=[[1.7e+308, 0.0, -1.7e+308, 0.0]]")),
    ("compare report period of 1e30 ms", "compare", "localize_jitter.yaml",
     ("--override", "rates.report_period_ms=1.0e+30")),
    ("track half a second on a line near the float maximum speed", "track",
     "circle_track.yaml",
     ("--override", "duration_s=0.5",
      "--override", "control.reference={shape: line, speed: 1.7e+308}")),
    ("track half a second on a circle of radius 1e300 mm", "track",
     "circle_track.yaml",
     ("--override", "duration_s=0.5", "--override",
      "control={reference: {radius: 1.0e+300, shape: circle, speed: 1.0}}")),
    # IR readings past the u16 wire field saturate instead of failing.
    ("localize IR range of 100 m", "localize", "localize_slip.yaml",
     ("--override", "duration_s=2",
      "--override", "world={bounds: [-100000, -100000, 100000, 100000]}",
      "--override", "robot.geometry.ir_range_max=100000")),
    ("localize IR noise of 1e9 mm", "localize", "localize_slip.yaml",
     ("--override", "duration_s=2",
      "--override", "world={bounds: [-1000, -1000, 1000, 1000]}",
      "--override", "robot.noise.ir_sigma=1.0e+9")),
    # IR noise past 1e9 mm is rejected: its noise draws overflowed.
    ("localize IR noise near the float maximum", "localize", "localize_slip.yaml",
     ("--override", "duration_s=0.5",
      "--override", "world={bounds: [-1000, -1000, 1000, 1000]}",
      "--override", "robot.noise.ir_sigma=1.7e+308")),
    ("plan IR noise near the float maximum", "plan", "plan_arena.yaml",
     ("--override", "robot.noise.ir_sigma=1.7e+308")),
    ("consensus 24 robots lossy seed 5", "consensus", "consensus_demo.yaml",
     ("--seed", "5", *[a for spec in BENCH_SWARM for a in ("--override", spec)])),
    ("consensus 24 robots corrupting reordering seed 5", "consensus",
     "consensus_demo.yaml",
     ("--seed", "5", *[a for spec in CORRUPTING_SWARM for a in ("--override", spec)])),
    ("consensus 24 robots noisy seed 5", "consensus", "consensus_demo.yaml",
     ("--seed", "5", *[a for spec in NOISY_BENCH_SWARM for a in ("--override", spec)])),
    ("consensus 24 robots noisy corrupting seed 5", "consensus", "consensus_demo.yaml",
     ("--seed", "5",
      *[a for spec in NOISY_CORRUPTING_SWARM for a in ("--override", spec)])),
    ("consensus headings beyond pi saturating turns", "consensus", "consensus_demo.yaml",
     tuple(a for spec in WRAPPED_SWARM for a in ("--override", spec))),
    # A held command's ticks run in blocks: many blocks and heading wraps,
    # reports inside ticks on a near-zero latency, and slip edges on tick
    # starts, back to back.
    ("localize 200 s spinning in place", "localize", "localize_slip.yaml",
     ("--override", "duration_s=200", "--override", "robot.command=[60.0, -60.0]")),
    ("compare jitter 70.3 ms period near-zero latency", "compare",
     "localize_jitter.yaml",
     ("--override", "rates.report_period_ms=70.3",
      "--override", "rates.report_jitter_ms=20",
      "--override", "channel.latency_min_ms=0",
      "--override", "channel.latency_max_ms=0.5")),
    ("localize slip edges on whole-ms tick starts", "localize", "localize_slip.yaml",
     ("--override", "robot.slip=[{start_ms: 4000, end_ms: 6500, mode: scale, "
      "factor: 0.4}, {start_ms: 6500, end_ms: 9000, mode: stuck}]")),
    # An advance_to call of at least 256 ticks runs them in blocks: one
    # run a tick short of that, one that reaches it, and an estimator-fed
    # track whose 700 ms control calls run 280 ticks each.
    ("localize slip 255 ticks", "localize", "localize_slip.yaml",
     ("--override", "duration_s=0.6375")),
    ("localize slip 256 ticks", "localize", "localize_slip.yaml",
     ("--override", "duration_s=0.64")),
    ("track estimator 700 ms control period", "track", "circle_track.yaml",
     ("--override", "control.feedback=estimator",
      "--override", "control.period_ms=700")),
    ("track estimator 700 ms control period scale slip", "track", "circle_track.yaml",
     ("--override", "control.feedback=estimator",
      "--override", "control.period_ms=700",
      "--override",
      "robot.slip=[{start_ms: 7350, end_ms: 12950, mode: scale, factor: 0.5}]")),
)


def digest(command: str, scenario: str, extra: tuple[str, ...]) -> tuple[str, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "swarmsim", command, str(SCENARIOS / scenario),
             "--out", str(out), *extra],
            env=env, capture_output=True, text=True, check=False)
        h = hashlib.sha256()
        h.update(f"exit {proc.returncode}\n".encode())
        for line in proc.stdout.splitlines():
            if not line.startswith(("wall_clock_s:", "wrote:")):
                h.update(f"stdout {line}\n".encode())
        h.update(proc.stderr.replace(str(ROOT), "<tree>").encode())
        files = sorted(out.rglob("*")) if out.is_dir() else []
        for path in files:
            if path.is_file():
                h.update(f"\nfile {path.relative_to(out).as_posix()}\n".encode())
                h.update(path.read_bytes())
    return h.hexdigest(), proc.returncode


def read_listing(path: Path) -> dict[str, str]:
    """Label -> digest of a listing this script printed."""
    listing = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        sha, _, label = line.split("  ", 2)
        listing[label] = sha
    return listing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Digest fixed CLI invocations.")
    parser.add_argument("--against", type=Path, metavar="FILE",
                        help="a saved listing; exit 1 if any digest differs")
    args = parser.parse_args(argv)
    saved = read_listing(args.against) if args.against else None
    differs, new = [], []
    for label, command, scenario, extra in INVOCATIONS:
        sha, code = digest(command, scenario, extra)
        print(f"{sha}  exit={code}  {label}", flush=True)
        if saved is not None and label not in saved:
            new.append(label)
        elif saved is not None and saved[label] != sha:
            differs.append(label)
    for label in new:
        print(f"not in {args.against}: {label}")
    for label in differs:
        print(f"differs from {args.against}: {label}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
