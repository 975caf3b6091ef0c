#!/usr/bin/env python3
"""swarmsim benchmark: one workload, one workload seed, one client.

    python3 bench/run.py --workload localize_compare --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
./src. The workload's seeded CLI invocations run in-process through
swarmsim.cli.main.main, one at a time (a closed loop with one client, no
threads), for --seconds seconds. Every output is checked. Each metric is
printed by name and unit, and the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced passes over the same runs and reports the per-layer metrics,
the tracing overhead and the share of wall time the layers account for.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hostclock import REFERENCE_MS, HostClock
from tracing import Tracer
from workloads import OUTPUT_FILES, SUMMARY_KEYS, WORKLOADS, Run, make_runs

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench_out"
SETUP_REPEATS = 7

# A fresh interpreter imports the CLI and loads and validates the scenarios.
SETUP_PROBE = """\
import json, sys
from swarmsim.cli.main import main
from swarmsim.cli.scenario import load_scenario
for path, overrides in json.loads(sys.argv[1]):
    load_scenario(path, tuple(overrides))
"""


class Ledger:
    """Counts operations attempted and failed; keeps the failure details."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")
        return ok


@dataclass
class RunResult:
    ms: float = 0.0             # summed time of the main() calls
    start: float = 0.0
    end: float = 0.0
    wall_s: float = 0.0         # end - start, less time spent calibrating
    summaries: list = field(default_factory=list)
    digest: str = ""
    errors: list = field(default_factory=list)


def parse_summary(text: str) -> dict:
    summary = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            summary[key.strip()] = value.strip()
    return summary


def _summary_errors(command: str, summary: dict) -> list[str]:
    errors = []
    for key in SUMMARY_KEYS[command]:
        if key not in summary:
            errors.append(f"summary lacks {key}")
        elif key == "converged":
            if summary[key] not in ("true", "false"):
                errors.append(f"summary converged={summary[key]!r} is not a boolean")
        else:
            try:
                float(summary[key])
            except ValueError:
                errors.append(f"summary {key}={summary[key]!r} is not a number")
    return errors


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(file.relative_to(path)).encode())
        h.update(file.read_bytes())
    return h.hexdigest()


def execute(cli_main, run: Run, out_dir: Path, tracer: Tracer | None = None,
            clock: HostClock | None = None) -> RunResult:
    """Run every invocation of one run; time only the main() calls, and
    let the host clock calibrate between invocations."""
    result = RunResult()
    digests = []
    for k, inv in enumerate(run):
        inv_dir = out_dir / str(k)
        shutil.rmtree(inv_dir, ignore_errors=True)
        argv = inv.argv(ROOT) + ["--out", str(inv_dir)]
        stdout, stderr = io.StringIO(), io.StringIO()
        rc = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                with tracer.run() if tracer else contextlib.nullcontext():
                    rc = cli_main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                # A crash is a failed run; the benchmark goes on.
                stderr.write(traceback.format_exc())
            ms = (time.perf_counter() - t0) * 1e3
        result.ms += ms
        if clock is not None:
            clock.tick()
        errors = []
        if rc != 0:
            tail = stderr.getvalue().strip().splitlines()[-1:] or [""]
            errors.append(f"exit code {rc}: {tail[0]}")
        for name in OUTPUT_FILES[inv.command]:
            if not (inv_dir / name).is_file():
                errors.append(f"missing output {name}")
        summary = parse_summary(stdout.getvalue())
        errors += _summary_errors(inv.command, summary)
        result.errors += [f"{inv.variant} seed {inv.seed}: {e}" for e in errors]
        result.summaries.append(summary)
        digests.append(digest_dir(inv_dir) if inv_dir.is_dir() else "")
    result.digest = hashlib.sha256("".join(digests).encode()).hexdigest()
    return result


def measure_setup(run: Run, ledger: Ledger, clock: HostClock) -> list[RunResult]:
    """Time a fresh interpreter importing the CLI and loading and validating
    the scenarios of one run, SETUP_REPEATS times."""
    specs = [(str(ROOT / "src" / "swarmsim" / "scenarios" / inv.scenario),
              list(inv.scenario_overrides())) for inv in run]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probes = []
    for _ in range(SETUP_REPEATS):
        probe = RunResult(start=time.perf_counter())
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, json.dumps(specs)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        probe.end = time.perf_counter()
        probe.ms = (probe.end - probe.start) * 1e3
        if ledger.record("setup", proc.returncode == 0, proc.stderr.strip()[-200:]):
            probes.append(probe)
        clock.calibrate()
    return probes


def environment(args) -> dict:
    sha, dirty = "unknown", None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                 capture_output=True, text=True, timeout=30).stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=ROOT, env=env, capture_output=True, text=True,
                                    timeout=30).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": sha, "git_dirty": dirty, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
    }


class Session:
    """Runs one workload's runs and checks each against its first result."""

    def __init__(self, cli_main, workload, runs: list[Run], ledger: Ledger):
        self.cli_main = cli_main
        self.workload = workload
        self.runs = runs
        self.ledger = ledger
        self.first: dict[int, RunResult] = {}
        self.out = OUT / "runs" / f"{workload.name}-{os.getpid()}"

    def run(self, index: int, tracer: Tracer | None = None,
            clock: HostClock | None = None) -> RunResult:
        spent = clock.spent_s if clock else 0.0
        start = time.perf_counter()
        result = execute(self.cli_main, self.runs[index], self.out, tracer, clock)
        result.start, result.end = start, time.perf_counter()
        result.wall_s = result.end - start - ((clock.spent_s if clock else 0.0) - spent)
        ok = self.ledger.record("run", not result.errors, "; ".join(result.errors))
        if ok and index in self.first:
            what = "traced output" if tracer else "repeat"
            self.ledger.record("determinism", result.digest == self.first[index].digest,
                               f"run {index} {what} differs from its first output")
        elif ok:
            self.first[index] = result
        return result

    def assess(self):
        """Accuracy figures and threshold checks over one pass of first results."""
        pairs = [(inv, summary)
                 for index in sorted(self.first)
                 for inv, summary in zip(self.runs[index], self.first[index].summaries)]
        figures, checks = self.workload.assess(pairs)
        for name, ok, detail in checks:
            self.ledger.record(name, ok, detail)
        return figures


def timed_loop(session: Session, clock: HostClock, seconds: float) -> list[RunResult]:
    """Cycle through the runs until `seconds` of runs passed and each ran
    once; returns the runs that succeeded."""
    results = []
    elapsed = 0.0
    i = 0
    while i < len(session.runs) or elapsed < seconds:
        result = session.run(i % len(session.runs), clock=clock)
        elapsed += result.wall_s
        if not result.errors:
            results.append(result)
        i += 1
    return results


def end_to_end(session: Session, args) -> dict:
    clock = HostClock()
    setup = measure_setup(session.runs[0], session.ledger, clock)
    session.run(0)   # warm-up, and the reference the timed repeat of run 0 must match
    results = timed_loop(session, clock, args.seconds)
    if not results or not setup:
        return {}
    scales = [clock.scale(r.start, r.end) for r in results]
    times = [r.ms for r in results]
    wall = sum(r.wall_s for r in results)
    kernel = statistics.fmean(ms for _, ms in clock.samples)
    print(f"runs: {len(times)} in {wall:.2f} s; reference kernel {kernel:.4g} ms "
          f"(mean of {len(clock.samples)}), normalized to {REFERENCE_MS:g} ms")
    print(f"setup_s_raw: {statistics.median(p.ms for p in setup) / 1e3:.6g} s (n={len(setup)})")
    print(f"runs_per_s: {len(times) / wall:.6g} 1/s")
    print(f"run_ms_p50: {statistics.median(times):.6g} ms (n={len(times)})")
    if len(times) >= 100:
        print(f"run_ms_p90: {statistics.quantiles(times, n=10)[-1]:.6g} ms (n={len(times)})")
    setup_s = statistics.median(p.ms * clock.scale(p.start, p.end) for p in setup) / 1e3
    norm_wall = sum(r.wall_s * k for r, k in zip(results, scales))
    return {
        "setup_s": (setup_s, "s"),
        "runs_per_s_norm": (len(times) / norm_wall, "1/s"),
        "run_ms_p50_norm": (statistics.median(t * k for t, k in zip(times, scales)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(session: Session, args) -> dict:
    """Alternate untraced and traced passes over the same runs. Per-layer
    times are normalized to reference host speed like the end-to-end ones."""
    tracer = Tracer()
    clock = HostClock()
    results: dict[bool, list[RunResult]] = {False: [], True: []}
    elapsed = 0.0
    while not results[True] or elapsed < args.seconds:
        for use in (False, True):
            if use:
                tracer.install()
            try:
                for index in range(len(session.runs)):
                    result = session.run(index, tracer if use else None, clock)
                    results[use].append(result)
                    elapsed += result.wall_s
            finally:
                if use:
                    wrapped = tracer.installed
                    try:
                        tracer.restore()
                        session.ledger.record("restore", True)
                    except RuntimeError as exc:
                        session.ledger.record("restore", False, str(exc))
    walls = {use: sum(r.wall_s for r in rs) for use, rs in results.items()}
    norm = {use: sum(r.wall_s * clock.scale(r.start, r.end) for r in rs)
            for use, rs in results.items()}
    runs = len(results[True])
    if tracer.missing:
        print("targets not found: " + ", ".join(tracer.missing))
    print(f"wrapped bindings: {wrapped}; traced runs: {runs} in {walls[True]:.2f} s; "
          f"untraced runs: {len(results[False])} in {walls[False]:.2f} s")
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{session.workload.name}-{args.seed}.csv.gz"
    tracer.write_spans(spans_file)
    print(f"spans: {len(tracer.spans)} written to {spans_file.relative_to(ROOT)}")
    overhead = (norm[True] / runs) / (norm[False] / len(results[False])) - 1.0
    scale = norm[True] / walls[True]
    metrics = layer_metrics(tracer, runs, walls[True], overhead * 100.0)
    return {name: (value * scale if unit in ("ms", "us") else value, unit)
            for name, (value, unit) in metrics.items()}


def layer_metrics(tracer: Tracer, runs: int, traced_wall: float,
                  overhead_pct: float) -> dict:
    """Per-layer metrics per run. `.us` is mean microseconds per call,
    `.ms` and `.self_ms` are milliseconds per run, counts are per run."""
    stats, counts = tracer.stats, tracer.counts
    span_self = tracer.span_self()
    zero = [0, 0.0, 0.0, 0]

    def calls(name):
        return stats.get(name, zero)[0] / runs

    def us(name):
        s = stats.get(name, zero)
        return s[1] / s[0] * 1e6 if s[0] else 0.0

    def ms(name):
        return stats.get(name, zero)[1] * 1e3 / runs

    def self_ms(*names):
        return sum(span_self.get(name, 0.0) for name in names) * 1e3 / runs

    def ratio(num, den):
        return num / den if den else 0.0

    def per_run(name):
        return counts[name] / runs

    decode = stats.get("comms.decode", zero)
    measure = stats.get("est.measure", zero)
    rounds = counts["swarm.rounds"]
    layers = tracer.layer_self()
    m = {
        "sim.simulate_reports.calls": (calls("sim.simulate_reports"), "count"),
        "sim.simulate_reports.ms": (ms("sim.simulate_reports"), "ms"),
        "sim.advance_to.calls": (calls("sim.advance_to"), "count"),
        "sim.advance_to.self_ms": (self_ms("sim.advance_to"), "ms"),
        "sim.plant_events": (calls("sim.plant"), "count"),
        "sim.plant_us": (us("sim.plant"), "us"),
        "sim.sensor_samples": (calls("sim.sample"), "count"),
        "sim.sample_us": (us("sim.sample"), "us"),
        "sim.ir_scans": (calls("sim.ir"), "count"),
        "sim.ir_us": (us("sim.ir"), "us"),
        "comms.encode.calls": (calls("comms.encode"), "count"),
        "comms.encode.us": (us("comms.encode"), "us"),
        "comms.decode.calls": (calls("comms.decode"), "count"),
        "comms.decode.us": (us("comms.decode"), "us"),
        "comms.decode.failed": (decode[3] / runs, "count"),
        "comms.crc16.calls": (calls("comms.crc16"), "count"),
        "comms.crc16.us": (us("comms.crc16"), "us"),
        "comms.channel.sent": (per_run("comms.channel.sent"), "count"),
        "comms.channel.dropped": (per_run("comms.channel.dropped"), "count"),
        "comms.channel.pending_end": (per_run("comms.channel.pending_end"), "count"),
        "comms.channel.us": (us("comms.channel"), "us"),
        "comms.delivery_ratio": (ratio(decode[0] - decode[3],
                                       counts["comms.channel.sent"]), "ratio"),
        "comms.superseded": (per_run("comms.superseded"), "count"),
        "est.measure.calls": (calls("est.measure"), "count"),
        "est.stale_skipped": (measure[3] / runs, "count"),
        "est.useful_ratio": (ratio(measure[0] - measure[3], measure[0]), "ratio"),
        "est.predict.calls": (calls("est.predict"), "count"),
        "est.predict.us": (us("est.predict"), "us"),
        "est.update.calls": (calls("est.update"), "count"),
        "est.update.us": (us("est.update"), "us"),
        "est.loop.self_ms": (self_ms("est.run_estimator", "est.dead_reckon"), "ms"),
        "est.slip_flagged": (per_run("est.slip_flagged"), "count"),
        "control.tracking.calls": (calls("control.tracking"), "count"),
        "control.tracking.us": (us("control.tracking"), "us"),
        "control.reference.us": (us("control.reference"), "us"),
        "swarm.rounds": (rounds / runs, "count"),
        "swarm.round_ms": (ratio(stats.get("swarm.consensus", zero)[1] * 1e3, rounds), "ms"),
        "swarm.self_ms": (self_ms("swarm.consensus"), "ms"),
        "plan.ingest.calls": (calls("plan.ingest"), "count"),
        "plan.ingest.us": (us("plan.ingest"), "us"),
        "plan.ray_cells": (per_run("plan.ray_cells"), "count"),
        "plan.median.ms": (ms("plan.median"), "ms"),
        "plan.inflate.ms": (ms("plan.inflate"), "ms"),
        "plan.astar.ms": (ms("plan.astar"), "ms"),
        "plan.astar.expanded": (per_run("plan.astar.expanded"), "count"),
        "plan.astar.useful_ratio": (ratio(counts["plan.astar.path_cells"],
                                          counts["plan.astar.expanded"]), "ratio"),
        "cli.load_scenario.ms": (ms("cli.load_scenario"), "ms"),
        "cli.write.ms": (ms("cli.write"), "ms"),
        "cli.runner.self_ms": (self_ms("cli.runner"), "ms"),
    }
    for layer in ("sim", "comms", "est", "control", "plan", "cli"):
        m[f"{layer}.self_ms"] = (layers.get(layer, 0.0) * 1e3 / runs, "ms")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    m["trace.accounted_pct"] = (sum(layers.values()) / traced_wall * 100.0, "%")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "swarmsim" / "cli" / "main.py").is_file():
        print(f"error: no swarmsim sources under {ROOT / 'src'}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from swarmsim.cli.main import main as cli_main

    workload = WORKLOADS[args.workload]
    ledger = Ledger()
    session = Session(cli_main, workload, make_runs(workload, args.seed), ledger)
    print(f"workload: {workload.name}: {workload.why}")
    print("env: " + json.dumps(environment(args), sort_keys=True))
    try:
        metrics = traced(session, args) if args.trace else end_to_end(session, args)
        figures = session.assess()
    finally:
        shutil.rmtree(session.out, ignore_errors=True)
    if not metrics:
        for failure in ledger.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        print("error: no run completed, nothing to report", file=sys.stderr)
        return 1

    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    for name, value, unit in figures:
        print(f"{name}: {value:.6g} {unit}")
    print(f"error_rate: {ledger.failed / ledger.attempted:.6g} ratio "
          f"({ledger.failed} failed of {ledger.attempted} runs and checks)")
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
