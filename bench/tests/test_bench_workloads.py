"""Seeded argument lists, and the metric names BENCHMARK.json declares."""

import json
from pathlib import Path

import pytest

from run import layer_metrics
from tracing import Tracer
from workloads import WORKLOADS, make_runs

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_argument_lists(name):
    workload = WORKLOADS[name]
    first = [[inv.argv(ROOT) for inv in run] for run in make_runs(workload, 7)]
    again = [[inv.argv(ROOT) for inv in run] for run in make_runs(workload, 7)]
    other = [[inv.argv(ROOT) for inv in run] for run in make_runs(workload, 8)]
    assert first == again
    assert first != other
    assert len(first) == workload.runs_per_pass


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_invocations_validate(name):
    from swarmsim.cli.scenario import load_scenario

    for run in make_runs(WORKLOADS[name], 1):
        for inv in run:
            scenario = load_scenario(ROOT / "src" / "swarmsim" / "scenarios" / inv.scenario,
                                     inv.scenario_overrides())
            assert scenario.seed == inv.seed


def test_benchmark_json_declares_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    declared = [m["name"] for m in spec["per_layer"]]
    assert declared == list(layer_metrics(Tracer(), 1, 1.0, 0.0))


def test_host_clock_scales_by_the_mean_kernel_time_near_a_timing():
    from hostclock import REFERENCE_MS, WINDOW_S, HostClock

    clock = HostClock()
    clock.samples = [(0.0, 20.0), (1.0, 10.0), (100.0, 5.0)]
    assert clock.scale(0.5, 1.0) == pytest.approx(REFERENCE_MS / 15.0)
    assert clock.scale(100.0 - WINDOW_S, 100.0) == pytest.approx(REFERENCE_MS / 5.0)
    # No calibration near it: fall back to every sample.
    assert clock.scale(50.0, 51.0) == pytest.approx(REFERENCE_MS / (35.0 / 3))
