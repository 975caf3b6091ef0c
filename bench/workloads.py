"""The benchmark's workloads: seeded CLI argument lists and their checks.

A workload seed yields a fixed list of runs. A run is a short sequence of
CLI invocations, one of each variant the workload alternates between, so
every run does the same kind of work and run times are not bimodal. The
program sees only the generated CLI arguments.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SCENARIOS = Path("src") / "swarmsim" / "scenarios"

# Files each command writes into --out, and summary keys the checks read.
OUTPUT_FILES = {
    "compare": ("compare.csv",),
    "track": ("track.csv",),
    "consensus": ("consensus.csv",),
    "plan": ("map.pgm", "map.txt", "path.csv"),
}
SUMMARY_KEYS = {
    "compare": ("adaptive_rmse_mm", "adaptive_terminal_mm", "nonadaptive_terminal_mm",
                "fixed_dt_rmse_mm", "wheels_terminal_mm"),
    "track": ("terminal_error_mm",),
    "consensus": ("converged", "time_s"),
    "plan": ("path_length_mm", "min_true_clearance_mm"),
}

# Acceptance thresholds, as tests/test_acceptance.py states them.
SLIP_REJECTION_MAX = 0.25      # strictly below
JITTER_RATIO_MAX = 0.5         # at most
BODY_RADIUS_MM = 60.0          # RobotGeometry default; no workload overrides it


@dataclass(frozen=True)
class Invocation:
    """One CLI call: `swarmsim <command> <scenario> --seed N --override ...`."""

    command: str
    scenario: str                 # file name under SCENARIOS
    seed: int
    overrides: tuple[str, ...] = ()

    def argv(self, root: Path) -> list[str]:
        argv = [self.command, str(root / SCENARIOS / self.scenario),
                "--seed", str(self.seed)]
        for spec in self.overrides:
            argv += ["--override", spec]
        return argv

    def scenario_overrides(self) -> tuple[str, ...]:
        """The overrides load_scenario sees, with the seed as main() adds it."""
        return (*self.overrides, f"seed={self.seed}")

    @property
    def variant(self) -> str:
        keys = [spec.partition("=")[0] for spec in self.overrides]
        return " ".join([self.command, Path(self.scenario).stem, *keys])


Run = tuple[Invocation, ...]
Check = tuple[str, bool, str]                     # (name, ok, detail)
Figure = tuple[str, float, str]                   # (name, value, unit)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    runs_per_pass: int
    make_run: Callable[[random.Random], Run]
    # (invocation, parsed summary) pairs of one pass -> accuracy figures, checks
    assess: Callable[[list[tuple[Invocation, dict]]], tuple[list[Figure], list[Check]]]


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def make_runs(workload: Workload, seed: int) -> list[Run]:
    """The workload's runs for one workload seed; same seed, same runs."""
    rng = random.Random(f"{workload.name}/{seed}")
    return [workload.make_run(rng) for _ in range(workload.runs_per_pass)]


def _values(pairs, command: str, scenario: str, key: str) -> list[float]:
    return [float(summary[key]) for inv, summary in pairs
            if inv.command == command and inv.scenario == scenario]


# --- localize_compare ------------------------------------------------------------


def _localize_run(rng: random.Random) -> Run:
    return (Invocation("compare", "localize_slip.yaml", _seed(rng)),
            Invocation("compare", "localize_jitter.yaml", _seed(rng)))


def _localize_assess(pairs):
    slip = {key: _values(pairs, "compare", "localize_slip.yaml", key)
            for key in ("adaptive_terminal_mm", "wheels_terminal_mm",
                        "nonadaptive_terminal_mm")}
    jitter = {key: _values(pairs, "compare", "localize_jitter.yaml", key)
              for key in ("adaptive_rmse_mm", "fixed_dt_rmse_mm")}
    figures, checks = [], []
    if all(slip.values()):
        adaptive = statistics.median(slip["adaptive_terminal_mm"])
        baseline = min(statistics.median(slip["wheels_terminal_mm"]),
                       statistics.median(slip["nonadaptive_terminal_mm"]))
        ratio = adaptive / baseline
        figures += [("slip_terminal_mm_p50", adaptive, "mm"),
                    ("slip_rejection_ratio", ratio, "ratio")]
        checks.append(("slip_rejection", ratio < SLIP_REJECTION_MAX,
                       f"{ratio:.4f} < {SLIP_REJECTION_MAX} over "
                       f"{len(slip['adaptive_terminal_mm'])} seeds"))
    else:
        checks.append(("slip_rejection", False, "no slip run succeeded"))
    if all(jitter.values()):
        ratio = (statistics.median(jitter["adaptive_rmse_mm"])
                 / statistics.median(jitter["fixed_dt_rmse_mm"]))
        figures.append(("jitter_dt_ratio", ratio, "ratio"))
        checks.append(("jitter_dt", ratio <= JITTER_RATIO_MAX,
                       f"{ratio:.4f} <= {JITTER_RATIO_MAX} over "
                       f"{len(jitter['adaptive_rmse_mm'])} seeds"))
    else:
        checks.append(("jitter_dt", False, "no jitter run succeeded"))
    return figures, checks


# --- closed_loop -----------------------------------------------------------------

CONSENSUS_ROBOTS = 24


def _closed_loop_run(rng: random.Random) -> Run:
    track = Invocation("track", "circle_track.yaml", _seed(rng),
                       ("control.feedback=estimator",))
    headings = ", ".join(f"{rng.uniform(-1.4, 1.4):.4f}"
                         for _ in range(CONSENSUS_ROBOTS))
    consensus = Invocation("consensus", "consensus_demo.yaml", _seed(rng), (
        f"consensus.headings=[{headings}]",
        "channel.loss_prob=0.1",
        "channel.latency_min_ms=50",
        "channel.latency_max_ms=100",
    ))
    return track, consensus


def _closed_loop_assess(pairs):
    figures, checks = [], []
    track = _values(pairs, "track", "circle_track.yaml", "terminal_error_mm")
    if track:
        figures.append(("track_terminal_mm_p50", statistics.median(track), "mm"))
    else:
        checks.append(("track", False, "no track run succeeded"))
    times = []
    for inv, summary in pairs:
        if inv.command == "consensus":
            converged = summary["converged"] == "true"
            checks.append(("consensus_converged", converged,
                           f"seed {inv.seed}: converged={summary['converged']}"))
            if converged:
                times.append(float(summary["time_s"]))
    if times:
        figures.append(("consensus_time_s_p50", statistics.median(times), "s"))
    else:
        checks.append(("consensus", False, "no consensus run converged"))
    return figures, checks


# --- plan_survey -----------------------------------------------------------------

FINE_GRID = ("plan.resolution_mm=25", "plan.width_cells=81", "plan.height_cells=61")


def _plan_run(rng: random.Random) -> Run:
    noisy = ("robot.noiseless=false",)
    return (Invocation("plan", "plan_arena.yaml", _seed(rng), noisy),
            Invocation("plan", "plan_arena.yaml", _seed(rng), noisy + FINE_GRID))


def _plan_assess(pairs):
    figures, checks = [], []
    lengths = []
    for inv, summary in pairs:
        clearance = float(summary["min_true_clearance_mm"])
        checks.append(("path_clearance", clearance >= BODY_RADIUS_MM,
                       f"seed {inv.seed}: {clearance:g} mm >= {BODY_RADIUS_MM:g} mm"))
        lengths.append(float(summary["path_length_mm"]))
    if lengths:
        figures.append(("path_length_mm_p50", statistics.median(lengths), "mm"))
    else:
        checks.append(("plan", False, "no plan run succeeded"))
    return figures, checks


WORKLOADS = {w.name: w for w in (
    Workload(
        "localize_compare",
        "The paper's headline experiment and heaviest command: compare on slip then "
        "jitter; sim ~90%, estimation ~7%; moves with the sensor engine and EKF",
        4, _localize_run, _localize_assess),
    Workload(
        "closed_loop",
        "Estimator-fed circle tracking plus 24-robot lossy consensus (noiseless robots, "
        "which converge); short sim windows, comms-heavy, one simulation per run",
        6, _closed_loop_run, _closed_loop_assess),
    Workload(
        "plan_survey",
        "Noisy IR survey, median filter, inflation and A* on 50 mm and 25 mm grids; no "
        "channel or filter, so the bypass workload for comms and estimation changes",
        12, _plan_run, _plan_assess),
)}
