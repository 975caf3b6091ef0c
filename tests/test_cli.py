from __future__ import annotations

import contextlib
import csv
import importlib
import io
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmsim import planning, sim
from swarmsim.cli import runner
from swarmsim.cli.main import main
from swarmsim.cli.scenario import (
    SCHEMA,
    YAML_LOADER,
    Bool,
    Int,
    Map,
    Num,
    NumSeq,
    SeqOf,
    Str,
    load_scenario,
    parse_scenario,
    with_core_floats,
)
from swarmsim.estimation import (ConvertedReports, convert_reports, dead_reckon,
                                 run_estimator)

# The module, which swarmsim.cli's main function shadows as an attribute.
cli_main = importlib.import_module("swarmsim.cli.main")

SCENARIOS = Path(__file__).resolve().parents[1] / "src" / "swarmsim" / "scenarios"
CIRCLE = str(SCENARIOS / "circle_track.yaml")
SLIP = str(SCENARIOS / "localize_slip.yaml")
ARENA = str(SCENARIOS / "plan_arena.yaml")


def assert_rejected(capsys, args: list[str], key_path: str) -> None:
    """Exit 2 with one `error:` line on stderr that names key_path."""
    assert main(args) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {key_path}: ")


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_validate_reports_digest(capsys):
    assert main(["validate", CIRCLE]) == 0
    out = capsys.readouterr().out
    assert "valid: true" in out
    assert "config_digest:" in out
    assert "kind: track" in out


def test_unknown_key_is_named(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        "name: bad\nkind: track\nseed: 1\n"
        "robot:\n  geometry:\n    wheel_bsae: 100.0\n"
        "control:\n  reference: {shape: circle, radius: 500.0, speed: 80.0}\n"
    )
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "wheel_bsae" in err


def test_missing_required_key_rejected(tmp_path, capsys):
    bad = tmp_path / "nameless.yaml"
    bad.write_text("kind: track\nseed: 1\n")
    assert main(["validate", str(bad)]) == 2
    assert "name" in capsys.readouterr().err


def test_kind_mismatch_rejected(tmp_path, capsys):
    assert main(["track", SLIP, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "kind" in err and "localize" in err


def test_bad_override_format(tmp_path, capsys):
    assert main(["validate", CIRCLE, "--override", "seed"]) == 2
    assert "override" in capsys.readouterr().err


def test_unparseable_yaml_names_its_key_path_and_mark(tmp_path, capsys):
    assert main(["validate", CIRCLE, "--override", "robot.start=[1, 2"]) == 2
    err = capsys.readouterr().err
    assert "'robot.start=[1, 2'" in err and "line 1, column" in err
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: bad\nkind: track\nseed: [1\n")
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "not valid YAML" in err and "line 3, column" in err


def test_a_second_main_call_sees_none_of_the_first_calls_options(tmp_path, monkeypatch):
    # The parser is built once per process; its append and nargs defaults
    # must come out fresh on every call.
    overrides, variants = [], []
    load = cli_main.load_scenario
    monkeypatch.setattr(cli_main, "load_scenario",
                        lambda path, specs: overrides.append(specs) or load(path, specs))
    monkeypatch.setattr(cli_main, "run_compare", lambda scenario, out_dir, names:
                        variants.append(names) or runner.RunSummary(scenario))
    assert main(["compare", SLIP, "--out", str(tmp_path), "--override", "duration_s=1",
                 "--variants", "wheels"]) == 0
    assert main(["compare", SLIP, "--out", str(tmp_path)]) == 0
    assert overrides == [("duration_s=1",), ()]
    assert variants == [("wheels",), runner.DEFAULT_COMPARE_VARIANTS]
    assert cli_main.build_parser() is cli_main.build_parser()


def test_unknown_variant_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["compare", SLIP, "--out", str(tmp_path), "--variants", "psychic"])
    assert exc.value.code == 2


def test_track_csv_column_order(tmp_path, capsys):
    assert main(["track", CIRCLE, "--out", str(tmp_path),
                 "--override", "duration_s=3.0"]) == 0
    header = (tmp_path / "track.csv").read_text().splitlines()[0]
    assert header == "t,x_r,y_r,theta_r,x_c,y_c,theta_c,x_e,y_e,theta_e,v1,v2,V"


def test_summary_ends_with_wall_clock(tmp_path, capsys):
    assert main(["track", CIRCLE, "--out", str(tmp_path),
                 "--override", "duration_s=3.0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "scenario: circle_track"
    assert lines[-1].startswith("wall_clock_s:")


def test_rerun_is_byte_identical(tmp_path, capsys):
    for sub in ("a", "b"):
        assert main(["localize", SLIP, "--out", str(tmp_path / sub),
                     "--override", "duration_s=5.0"]) == 0
    capsys.readouterr()
    first = (tmp_path / "a" / "estimates.csv").read_bytes()
    second = (tmp_path / "b" / "estimates.csv").read_bytes()
    assert first == second


def test_seed_flag_equals_seed_override(tmp_path, capsys):
    assert main(["localize", SLIP, "--out", str(tmp_path / "flag"),
                 "--seed", "42", "--override", "duration_s=5.0"]) == 0
    assert main(["localize", SLIP, "--out", str(tmp_path / "override"),
                 "--override", "seed=42", "--override", "duration_s=5.0"]) == 0
    capsys.readouterr()
    assert ((tmp_path / "flag" / "estimates.csv").read_bytes()
            == (tmp_path / "override" / "estimates.csv").read_bytes())


def test_seed_of_any_size_runs(tmp_path, capsys):
    assert main(["localize", SLIP, "--out", str(tmp_path), "--seed", "1" + "0" * 41,
                 "--override", "duration_s=1.0"]) == 0


def test_seed_changes_the_noise(tmp_path, capsys):
    for seed in ("1", "2"):
        assert main(["localize", SLIP, "--out", str(tmp_path / seed),
                     "--seed", seed, "--override", "duration_s=5.0"]) == 0
    capsys.readouterr()
    assert ((tmp_path / "1" / "estimates.csv").read_bytes()
            != (tmp_path / "2" / "estimates.csv").read_bytes())


def test_compare_adaptive_has_minimum_rmse_and_slip_blind_terminal_error(
        tmp_path, capsys):
    assert main(["compare", SLIP, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = read_rows(tmp_path / "compare.csv")
    assert [row["variant"] for row in rows] == [
        "adaptive", "nonadaptive", "fixed_dt", "wheels"]
    rmse = {row["variant"]: float(row["rmse_mm"]) for row in rows}
    assert rmse["adaptive"] == min(rmse.values())
    # At the last report the adaptive filter beats the slip-blind variants.
    # Not fixed_dt: its terminal error is one sample of a random walk, and
    # on this seed it lands below the adaptive one (18.3 mm against 20.1).
    terminal = {row["variant"]: float(row["terminal_mm"]) for row in rows}
    assert terminal["adaptive"] < min(terminal["nonadaptive"], terminal["wheels"])


def test_compare_single_variant(tmp_path, capsys):
    assert main(["compare", SLIP, "--out", str(tmp_path),
                 "--variants", "adaptive"]) == 0
    capsys.readouterr()
    rows = read_rows(tmp_path / "compare.csv")
    assert len(rows) == 1 and rows[0]["variant"] == "adaptive"


def test_compare_converts_each_report_once(tmp_path, capsys, monkeypatch):
    # Every variant reads one conversion: each delivered report is
    # differenced once and each measurement casts one slip vote.
    estimation = importlib.import_module("swarmsim.estimation")
    calls = {"measure": 0, "vote": 0}
    measure = estimation.measurement_from_packets
    vote = estimation.SlipDetector.update

    def counting_measure(*args):
        calls["measure"] += 1
        return measure(*args)

    def counting_vote(self, meas):
        calls["vote"] += 1
        return vote(self, meas)

    simulate = runner.simulate_reports
    runs = []

    def keeping(scenario):
        runs.append(simulate(scenario))
        return runs[-1]

    monkeypatch.setattr(estimation, "measurement_from_packets", counting_measure)
    monkeypatch.setattr(estimation.SlipDetector, "update", counting_vote)
    monkeypatch.setattr(runner, "simulate_reports", keeping)
    assert main(["compare", SLIP, "--out", str(tmp_path),
                 "--override", "duration_s=5.0",
                 "--override", "channel.latency_max_ms=400",
                 "--variants", *runner.COMPARE_VARIANTS]) == 0
    capsys.readouterr()
    stale = sum(int(row["stale_skipped"]) for row in read_rows(tmp_path / "compare.csv"))
    assert stale > 0
    assert calls["measure"] == len(runs[0].delivered)
    assert calls["vote"] == len(runs[0].delivered) - stale // len(runner.COMPARE_VARIANTS)


def test_compare_simulates_once_and_matches_direct_runs(tmp_path, capsys,
                                                       monkeypatch):
    calls = []
    simulate = runner.simulate_reports

    def counting(scenario):
        calls.append(scenario.seed)
        return simulate(scenario)

    monkeypatch.setattr(runner, "simulate_reports", counting)
    variants = ["adaptive", "nonadaptive", "fixed_dt", "wheels", "flow"]
    assert main(["compare", SLIP, "--out", str(tmp_path),
                 "--override", "duration_s=10.0",
                 "--override", "channel.loss_prob=0.2",
                 "--override", "channel.latency_max_ms=400",
                 "--variants", *variants]) == 0
    capsys.readouterr()
    assert len(calls) == 1

    scenario = load_scenario(SLIP, ("duration_s=10.0", "channel.loss_prob=0.2",
                                    "channel.latency_max_ms=400"))
    cfg = scenario.ekf
    stream = simulate(scenario)
    # Each variant from a conversion of its own.
    def reports():
        return convert_reports(stream.delivered, scenario.geometry, cfg)

    def variant(run, *args, **kwargs):
        converted = reports()
        return converted, run(converted, scenario.start, *args, **kwargs)

    direct = {
        "adaptive": variant(run_estimator, cfg),
        "nonadaptive": variant(run_estimator, cfg, adaptive=False),
        "fixed_dt": variant(run_estimator, cfg,
                            fixed_dt_s=scenario.rates.report_period_ms / 1e3),
        "wheels": variant(dead_reckon, "wheels"),
        "flow": variant(dead_reckon, "flow"),
    }
    rows = read_rows(tmp_path / "compare.csv")
    assert [row["variant"] for row in rows] == variants
    assert any(int(row["stale_skipped"]) > 0 for row in rows)
    for row in rows:
        converted, means = direct[row["variant"]]
        errors = runner.position_errors(converted, means, stream.truth_at_send)
        assert row["rmse_mm"] == f"{runner._rmse(errors):.6g}"
        assert row["terminal_mm"] == f"{float(errors[-1]):.6g}"
        assert row["stale_skipped"] == str(converted.stale_skipped)


def test_sensor_run_channel_tallies_every_frame():
    # Lossy, bit-flipping and slow enough that frames are still in flight
    # at the end: every frame sent is lost, delivered, undecodable or
    # pending, and the run's channel counts each kind.
    scenario = load_scenario(SLIP, ("duration_s=5.0", "channel.loss_prob=0.2",
                                    "channel.bit_flip_prob=0.001",
                                    "channel.latency_max_ms=400"))
    run = runner.simulate_reports(scenario)
    ch = run.channel
    assert ch.sent == ch.dropped + len(run.delivered) + ch.undecodable + ch.pending
    assert min(ch.dropped, len(run.delivered), ch.undecodable, ch.pending) > 0


def test_compare_variants_agree_without_noise_or_slip(tmp_path, capsys):
    # Nothing to disambiguate: quantization-limited errors, same for all.
    assert main(["compare", SLIP, "--out", str(tmp_path),
                 "--override", "robot.noiseless=true",
                 "--override", "robot.slip=[]",
                 "--override", "channel.loss_prob=0.0"]) == 0
    capsys.readouterr()
    rows = read_rows(tmp_path / "compare.csv")
    terminal = {row["variant"]: float(row["terminal_mm"]) for row in rows
                if row["variant"] in ("adaptive", "nonadaptive", "fixed_dt")}
    spread = max(terminal.values()) - min(terminal.values())
    assert spread < 1.0


def test_plan_endpoint_inside_wall_faults(tmp_path, capsys):
    assert main(["plan", ARENA, "--out", str(tmp_path),
                 "--override", "plan.start=[750.0, 300.0]"]) == 3
    assert "fault:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["localize", "compare", "consensus"])
@pytest.mark.parametrize("override", ["channel.loss_prob=1.0",
                                      "channel.bit_flip_prob=1.0"])
def test_run_without_delivered_reports_faults(tmp_path, capsys, command,
                                              override):
    if command == "consensus":
        args = [CONSENSUS_DEMO, "--override", "consensus.max_rounds=50"]
        named = ("6 robots", "max_rounds=50")
    else:
        args = [SLIP, "--override", "duration_s=3.0"]
        named = ("sent", "undecodable")
    assert main([command, *args, "--out", str(tmp_path),
                 "--override", override]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("fault: ")
    assert all(word in lines[0] for word in named)
    assert not (tmp_path / "consensus.csv").exists()


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_out_that_cannot_be_a_directory_is_rejected(tmp_path, capsys, out):
    (tmp_path / "file").write_text("kept\n")
    target = tmp_path / out
    assert main(["compare", SLIP, "--out", str(target),
                 "--override", "duration_s=1.0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: --out {target}: ")
    assert (tmp_path / "file").read_text() == "kept\n"


def test_unwritable_output_file_faults(tmp_path, capsys):
    (tmp_path / "compare.csv").mkdir()
    assert main(["compare", SLIP, "--out", str(tmp_path),
                 "--override", "duration_s=1.0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("fault: ")
    assert str(tmp_path / "compare.csv") in lines[0]


def test_run_without_processable_reports_faults(tmp_path, capsys):
    # A sub-millisecond report period would stamp every report 0 ms, so
    # each would be stale against the start; validation rejects it.
    assert_rejected(capsys, ["localize", SLIP, "--out", str(tmp_path),
                             "--override", "duration_s=0.0005",
                             "--override", "rates.report_period_ms=0.5",
                             "--override", "channel.latency_min_ms=0",
                             "--override", "channel.latency_max_ms=0"],
                    "rates.report_period_ms")
    # The runner keeps its guard for a run that processed no report.
    with pytest.raises(runner.RuntimeFault, match="none could be processed"):
        runner.position_errors(ConvertedReports(), [], {})


def test_robot_leaving_the_world_faults(tmp_path, capsys):
    assert main(["localize", SLIP, "--out", str(tmp_path),
                 "--override", "world={bounds: [-300,-300,300,300]}"]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("fault: ")
    assert "world" in lines[0]


# The module whose run budgets these tests read.
cli_scenario = importlib.import_module("swarmsim.cli.scenario")


def test_plan_grid_cell_budget(monkeypatch, capsys):
    # The bundled 41 x 31 grid at the cap, then one cell past it; the cap
    # is lowered so that no test grid is large.
    monkeypatch.setattr(cli_scenario, "_MAX_GRID_CELLS", 41 * 31)
    assert main(["validate", ARENA]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli_scenario, "_MAX_GRID_CELLS", 41 * 31 - 1)
    assert_rejected(capsys, ["validate", ARENA], "plan")


@pytest.mark.parametrize("width, height", [
    (100_000, 100_000),       # 37.3 GiB of hit counts
    (10 ** 7 + 1, 1),         # one cell past the cap
    (2 ** 62, 2),             # past what numpy can size
])
def test_plan_grid_over_the_cell_budget_is_rejected(capsys, width, height):
    # Rejected before the grid is built, so nothing is allocated.
    assert cli_scenario._MAX_GRID_CELLS == 10 ** 7
    args = ["validate", ARENA, "--override", f"plan.width_cells={width}",
            "--override", f"plan.height_cells={height}"]
    assert_rejected(capsys, args, "plan")
    assert_rejected(capsys, ["plan", *args[1:]], "plan")


def test_plan_survey_ray_budget(monkeypatch, capsys):
    # The bundled survey's 4 x 6 points x 24 headings x 5 rays at the cap,
    # then one ray past it.
    monkeypatch.setattr(cli_scenario, "_MAX_SURVEY_RAYS", 2880)
    assert main(["validate", ARENA]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli_scenario, "_MAX_SURVEY_RAYS", 2879)
    assert_rejected(capsys, ["validate", ARENA], "plan.survey")


@pytest.mark.parametrize("headings, valid", [
    (41_666, True),          # 4,999,920 rays
    (41_667, False),         # 5,000,040 rays
    (100_000_000, False),
])
def test_plan_survey_over_the_ray_budget_is_rejected(capsys, headings, valid):
    # Validated only: the survey is never cast, so nothing large is built.
    assert cli_scenario._MAX_SURVEY_RAYS == 5 * 10 ** 6
    args = ["validate", ARENA, "--override", f"plan.survey.headings={headings}"]
    if valid:
        assert main(args) == 0
    else:
        assert_rejected(capsys, args, "plan.survey")


CONSENSUS_DEMO = str(SCENARIOS / "consensus_demo.yaml")


def test_consensus_robot_round_budget(monkeypatch, capsys):
    # The bundled six robots x 2000 rounds at the cap, then one past it.
    monkeypatch.setattr(cli_scenario, "_MAX_ROBOT_ROUNDS", 6 * 2000)
    assert main(["validate", CONSENSUS_DEMO]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli_scenario, "_MAX_ROBOT_ROUNDS", 6 * 2000 - 1)
    assert_rejected(capsys, ["validate", CONSENSUS_DEMO], "consensus.max_rounds")


@pytest.mark.parametrize("mode", ["networked", "synchronous"])
@pytest.mark.parametrize("rounds, valid", [
    (3_333_333, True),       # 19,999,998 robot rounds
    (3_333_334, False),      # 20,000,004 robot rounds
])
def test_consensus_over_the_robot_round_budget_is_rejected(capsys, mode, rounds, valid):
    assert cli_scenario._MAX_ROBOT_ROUNDS == 2 * 10 ** 7
    args = ["validate", CONSENSUS_DEMO, "--override", f"consensus.mode={mode}",
            "--override", f"consensus.max_rounds={rounds}"]
    if valid:
        assert main(args) == 0
    else:
        assert_rejected(capsys, args, "consensus.max_rounds")


def test_plan_casts_and_ingests_its_survey_in_one_call_each(tmp_path, capsys, monkeypatch):
    # One call each per survey, so the time of the whole survey shows under
    # the sim.ir and plan.ingest layers of a traced run. Every swarmsim
    # module that binds either function is patched, as the tracer does.
    counted = {}
    for module, name in ((sim, "sample_ir"), (planning, "ingest_ir_scan")):
        original = getattr(module, name)
        counted[name] = mock.Mock(wraps=original)
        for key, loaded in list(sys.modules.items()):
            if key.startswith("swarmsim") and vars(loaded).get(name) is original:
                monkeypatch.setattr(loaded, name, counted[name])
    assert main(["plan", ARENA, "--out", str(tmp_path),
                 "--override", "robot.noiseless=false"]) == 0
    capsys.readouterr()
    assert counted["sample_ir"].call_count == 1
    assert counted["ingest_ir_scan"].call_count == 1


@pytest.mark.parametrize("period_ms", [70.0, 75.0, 1000.0])
def test_localize_report_budget(capsys, period_ms):
    budget_s = cli_scenario._MAX_REPORTS * period_ms / 1e3
    rate = f"rates.report_period_ms={period_ms}"
    assert main(["validate", SLIP, "--override", rate,
                 "--override", f"duration_s={budget_s}"]) == 0
    capsys.readouterr()
    for command in ("validate", "localize", "compare"):
        assert_rejected(capsys, [command, SLIP, "--override", rate,
                                 "--override", f"duration_s={budget_s * 1.000001}"],
                        "duration_s")


def test_every_bundled_run_is_within_its_budgets():
    for path in sorted(SCENARIOS.glob("*.yaml")):
        scenario = load_scenario(path)
        if scenario.kind == "localize":
            assert (scenario.duration_s * 1e3 / scenario.rates.report_period_ms
                    <= cli_scenario._MAX_REPORTS)
        if scenario.kind == "plan":
            grid = scenario.grid
            assert grid.width * grid.height <= cli_scenario._MAX_GRID_CELLS
            assert (len(scenario.survey_points) * scenario.survey_headings
                    * len(scenario.geometry.ir_ray_angles) <= cli_scenario._MAX_SURVEY_RAYS)
        if scenario.kind == "consensus":
            assert (len(scenario.headings) * scenario.consensus.max_rounds
                    <= cli_scenario._MAX_ROBOT_ROUNDS)


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 37.3 GiB for an array"),
     "fault: out of memory (Unable to allocate 37.3 GiB for an array)"),
    (MemoryError(), "fault: out of memory"),
])
def test_running_out_of_memory_faults(tmp_path, capsys, monkeypatch, error, line):
    def exhausted(*args):
        raise error

    monkeypatch.setattr(cli_main, "run_scenario", exhausted)
    assert main(["plan", ARENA, "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [line]


@pytest.mark.parametrize("overrides, key_path", [
    # Jitter at or above the period allows a report interval of 0 or less.
    (("rates.report_jitter_ms=80",), "rates.report_jitter_ms"),
])
def test_rates_the_sensor_model_cannot_run_are_rejected(tmp_path, capsys,
                                                        overrides, key_path):
    args = [a for spec in overrides for a in ("--override", spec)]
    assert_rejected(capsys, ["localize", SLIP, "--out", str(tmp_path), *args],
                    key_path)
    assert_rejected(capsys, ["validate", SLIP, *args], key_path)


@pytest.mark.parametrize("override", ["rates.encoder_hz=400",
                                      "rates.flow_hz=1000"])
def test_sensor_rates_are_not_settable(tmp_path, capsys, override):
    # The sensor sample rates are fixed; a scenario that sets one is
    # rejected like any other unknown key, even at its fixed value.
    key = override.partition("=")[0]
    for args in (["localize", SLIP, "--out", str(tmp_path)], ["validate", SLIP]):
        assert main([*args, "--override", override]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == [f"error: unknown key {key!r}"]


@pytest.mark.parametrize("command, scenario, override, key_path", [
    # Non-finite numbers.
    ("localize", "localize_slip.yaml", "robot.command=[.inf,0]",
     "robot.command[0]"),
    ("localize", "localize_slip.yaml", "channel.latency_max_ms=.inf",
     "channel.latency_max_ms"),
    ("localize", "localize_slip.yaml", "duration_s=.nan", "duration_s"),
    ("localize", "localize_slip.yaml", "rates.report_jitter_ms=.nan",
     "rates.report_jitter_ms"),
    # An integer beyond the float range.
    pytest.param("localize", "localize_slip.yaml", "duration_s=1" + "0" * 400,
                 "duration_s", id="localize-duration_s-huge-integer"),
    # Rules that relate several keys.
    ("localize", "localize_slip.yaml",
     "robot.slip=[{start_ms: 5000, end_ms: 1000}]", "robot.slip[0]"),
    ("localize", "localize_slip.yaml", "channel.latency_min_ms=200", "channel"),
    ("localize", "localize_slip.yaml", "robot.geometry.ir_range_min=2000",
     "robot.geometry"),
    ("consensus", "consensus_demo.yaml", "consensus.k=3", "consensus"),
    ("consensus", "consensus_demo.yaml", "consensus.headings=[0.5]",
     "consensus.headings"),
    ("plan", "plan_arena.yaml", "world.rects=[[800,0,700,500]]",
     "world.rects[0]"),
    ("plan", "plan_arena.yaml", "world.bounds=[10,0,0,100]", "world.bounds"),
    ("plan", "plan_arena.yaml", "world.segments=[[1,1,1,1]]",
     "world.segments[0]"),
    ("track", "circle_track.yaml", "control.reference={shape: circle, speed: 80}",
     "control.reference.radius"),
    # Integers beyond a C size, and a subnormal divisor.
    ("localize", "localize_slip.yaml", "estimator.slip_window=1" + "0" * 30,
     "estimator.slip_window"),
    ("plan", "plan_arena.yaml", "plan.width_cells=1" + "0" * 23, "plan.width_cells"),
    ("localize", "localize_slip.yaml", "robot.geometry.mm_per_tick=5.0e-324",
     "robot.geometry.mm_per_tick"),
    # Values whose arithmetic overflows while the objects are built.
    ("localize", "localize_slip.yaml", "robot.geometry.wheel_base=1.0e-200", "robot"),
    # Rules the built objects own.
    ("track", "circle_track.yaml", "duration_s=0.01", "duration_s"),
    ("track", "circle_track.yaml", "duration_s=1.0e+30", "duration_s"),
    ("track", "circle_track.yaml", "control.period_ms=100000", "control.reference"),
    ("plan", "plan_arena.yaml", "plan.start=[-5000,0]", "plan.start"),
    ("plan", "plan_arena.yaml", "plan.median_window=4", "plan.median_window"),
    ("plan", "plan_arena.yaml", "plan.survey.min_clearance_mm=5000", "plan.survey"),
    ("localize", "localize_slip.yaml", "world={bounds: [100,100,200,200]}",
     "robot.start"),
    ("consensus", "consensus_demo.yaml", "consensus.round_period_ms=3600000",
     "consensus"),
    # In-type numbers near the float maximum that overflowed the run.
    ("track", "circle_track.yaml", "control.gains.k_x=1.7e+308", "control.gains.k_x"),
    ("track", "circle_track.yaml", "robot.start=[1.7e+308, 1.7e+308, 1.7e+308]",
     "robot.start[0]"),
    ("localize", "localize_slip.yaml", "robot.noise.flow_scale=1.7e+308",
     "robot.noise.flow_scale"),
    ("localize", "localize_slip.yaml", "robot.noise.ir_sigma=1.7e+308",
     "robot.noise.ir_sigma"),
    ("plan", "plan_arena.yaml", "robot.noise.ir_sigma=1.7e+308",
     "robot.noise.ir_sigma"),
    ("compare", "localize_jitter.yaml", "rates.report_period_ms=1.0e+30",
     "rates.report_period_ms"),
    ("track", "circle_track.yaml", "control.reference={shape: line, speed: 1.7e+308}",
     "control.reference.speed"),
    ("track", "circle_track.yaml",
     "control={reference: {radius: 1.0e+300, shape: circle, speed: 1.0}}",
     "control.reference.radius"),
    # World coordinates whose ray casts overflowed, so every ray missed.
    ("localize", "localize_slip.yaml",
     "world={bounds: [-1000, -1000, 1000, 1000], "
     "segments: [[1.7e+308, 0.0, -1.7e+308, 0.0]]}", "world.segments[0][0]"),
    ("localize", "localize_slip.yaml",
     "world={bounds: [-1000, -1000, 1000, 1000], "
     "rects: [[-1.7e+308, 100.0, 1.7e+308, 200.0]]}", "world.rects[0][0]"),
    # Headings whose swarm mean overflowed.
    ("consensus", "consensus_demo.yaml",
     "consensus={headings: [1.7e+308, 1.7e+308], mode: synchronous}",
     "consensus.headings[0]"),
    # More networked robots than the u8 robot ids on the wire can name.
    pytest.param("consensus", "consensus_demo.yaml",
                 "consensus.headings=[" + ", ".join(["0.1"] * 257) + "]",
                 "consensus.headings", id="consensus-257-networked-headings"),
])
def test_invalid_values_are_rejected_before_running(tmp_path, capsys, command,
                                                    scenario, override,
                                                    key_path):
    scenario = str(SCENARIOS / scenario)
    assert_rejected(capsys, [command, scenario, "--out", str(tmp_path),
                             "--override", override], key_path)
    assert_rejected(capsys, ["validate", scenario, "--override", override],
                    key_path)


@pytest.mark.parametrize("key, accepted", [
    ("wheel_base", "at least"),
    ("mm_per_tick", "at least"),
    ("flow_separation", "at least"),
    ("body_radius", "at least"),
    ("ir_range_max", "at least"),
    # A key that accepts 0 names it beside the normal sizes.
    ("ir_range_min", "0 or of size at least"),
])
def test_subnormal_value_is_told_only_the_values_its_key_accepts(capsys, key,
                                                                 accepted):
    override = f"robot.geometry.{key}=1.0e-310"
    assert main(["validate", SLIP, "--override", override]) == 2
    assert capsys.readouterr().err == (
        f"error: robot.geometry.{key}: must be {accepted} 2.22507e-308, "
        f"got 1e-310\n")


def test_outputs_carry_no_wall_clock(tmp_path, capsys):
    assert main(["localize", SLIP, "--out", str(tmp_path),
                 "--override", "duration_s=5.0"]) == 0
    capsys.readouterr()
    for path in tmp_path.iterdir():
        assert b"wall_clock" not in path.read_bytes()


# --- CSV rows -----------------------------------------------------------------------


_FLOAT_EDGES = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                1e-310, sys.float_info.max, -sys.float_info.max,
                math.nextafter(sys.float_info.max, 0.0), 999999.5)
_INT_EDGES = (1_000_001, 2**53 + 1, 10**30 + 7, -1, -2**63 - 1)
# Cell strategies by the template conversion they take; the last takes the
# per-value fallback.
_CELLS = (
    st.one_of(st.sampled_from(_FLOAT_EDGES), st.floats()),
    st.one_of(st.sampled_from(_INT_EDGES), st.integers(min_value=10**6 + 1),
              st.integers(max_value=-1), st.integers()),
    st.text(st.characters(min_codepoint=32, max_codepoint=126)),
    st.one_of(st.booleans(), st.floats().map(np.float64),
              st.integers(-2**63, 2**63 - 1).map(np.int64)),
)


@st.composite
def _csv_rows(draw):
    """Rows of a few shapes, each shape drawn more than once, interleaved."""
    shapes = draw(st.lists(st.lists(st.sampled_from(_CELLS), max_size=6),
                           min_size=1, max_size=3))
    picks = draw(st.lists(st.sampled_from(shapes), max_size=8))
    return [tuple(draw(cell) for cell in shape) for shape in picks]


@settings(max_examples=300, deadline=None)
@given(rows=_csv_rows())
def test_csv_rows_read_as_each_value_formatted_alone(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    runner.write_csv(path, ["a", "b"], rows)
    expected = "a,b\n" + "".join(
        ",".join(runner._fmt(v) for v in row) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode("ascii")


# --- a reader that closes stdout early ------------------------------------------------


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("args", [
    ["validate", str(SCENARIOS / "consensus_demo.yaml")],
    ["consensus", str(SCENARIOS / "consensus_demo.yaml"),
     "--override", "consensus.max_rounds=20"],
], ids=["validate", "consensus"])
def test_closed_stdout_keeps_the_exit_code_and_prints_no_traceback(
        tmp_path, args, unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(SCENARIOS.parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "swarmsim", *args, "--out", str(tmp_path)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            timeout=120, check=False)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr


# --- the exit-code contract under fuzzed overrides -------------------------------------


# (command, scenario, overrides that keep the run short). The caps come
# before the drawn override, so a draw of the same key or of its whole
# section replaces them; a drawn duration_s stays within the cap.
DURATION_CAP_S = 0.5
SHORT = (f"duration_s={DURATION_CAP_S}",)
TRACK = ("track", "circle_track.yaml", SHORT)
TRACK_EKF = ("track", "circle_track.yaml", SHORT + ("control.feedback=estimator",))
LOCALIZE = ("localize", "localize_slip.yaml", SHORT)
COMPARE = ("compare", "localize_jitter.yaml", SHORT)
CONSENSUS = ("consensus", "consensus_demo.yaml", ("consensus.max_rounds=100",))
PLAN = ("plan", "plan_arena.yaml", ("plan.survey.headings=4",))
# A world makes the sensor engine sample IR at every report; walls within
# the default 1500 mm IR range keep every ray in range, so drawn IR noise
# reaches the wire.
LOCALIZE_WORLD = ("localize", "localize_slip.yaml",
                  SHORT + ("world={bounds: [-1000, -1000, 1000, 1000]}",))
RUNS = (TRACK, TRACK_EKF, LOCALIZE, LOCALIZE_WORLD, COMPARE, CONSENSUS, PLAN)
# The runs that read a top-level section; a key of any other section is
# drawn against every run.
READERS = {
    "control": (TRACK, TRACK_EKF),
    "estimator": (TRACK_EKF, LOCALIZE, COMPARE),
    "rates": (TRACK_EKF, LOCALIZE, COMPARE),
    "consensus": (CONSENSUS,),
    "plan": (PLAN,),
    "world": (LOCALIZE, LOCALIZE_WORLD, PLAN),
}
# Keys whose value sizes the work of a run (rounds, scan headings, grid
# cells) are only validated, and so is a draw of a section holding one: a
# valid draw may take minutes to run. The report rates size no work: the
# plant steps on a fixed tick and each report samples its window once.
SIZES_WORK = ("consensus.max_rounds", "plan.survey.headings", "plan.width_cells",
              "plan.height_cells")
WRONG_TYPES = ("text", [1, 2], {"a": 1}, True, None)
NEAR_MAX = (1e30, 1e300, 1.7e308)


def _paths(spec: Map, prefix: str = ""):
    """(dotted path, spec) of every key the schema knows, sections included."""
    for key, (field, _) in spec.fields.items():
        path = f"{prefix}.{key}" if prefix else key
        yield path, field
        if isinstance(field, Map):
            yield from _paths(field, path)


PATHS = tuple(_paths(SCHEMA))


def _in_type(spec):
    """A value of the right type, inside the key's range; an unbounded side
    reaches 1e6 past the other, and a number with no upper bound may also
    take a magnitude near the float maximum."""
    if isinstance(spec, Num):
        lo = -1e6 if spec.lo is None else spec.lo
        hi = lo + 1e6 if spec.hi is None else spec.hi
        values = st.floats(lo, hi, exclude_min=spec.exclusive_lo)
        if spec.hi is None:
            near_max = [v for m in NEAR_MAX for v in (m, -m)
                        if spec.lo is None or v > spec.lo]
            values = st.one_of(values, st.sampled_from(near_max))
        return values
    if isinstance(spec, Int):
        lo = 0 if spec.lo is None else spec.lo
        return st.integers(lo, lo + 20)
    if isinstance(spec, Bool):
        return st.booleans()
    if isinstance(spec, Str):
        return st.sampled_from(spec.choices) if spec.choices else st.text(max_size=8)
    if isinstance(spec, NumSeq):
        size = {} if spec.length is None else {"min_size": spec.length}
        return st.lists(_in_type(spec.item), max_size=spec.length or 4, **size)
    if isinstance(spec, SeqOf):
        return st.lists(_in_type(spec.item), max_size=3)
    return st.fixed_dictionaries(
        {key: _in_type(f) for key, (f, required) in spec.fields.items() if required},
        optional={key: _in_type(f) for key, (f, required) in spec.fields.items()
                  if not required})


def _out_of_range(spec):
    """A value of the right type outside the key's range, where it has one."""
    if isinstance(spec, Num) and spec.lo is not None:
        return st.floats(spec.lo - 1e6, spec.lo, exclude_max=not spec.exclusive_lo)
    if isinstance(spec, Num) and spec.hi is not None:
        return st.floats(spec.hi, spec.hi + 1e6, exclude_min=True)
    if isinstance(spec, Int) and spec.lo is not None:
        return st.integers(spec.lo - 20, spec.lo - 1)
    if isinstance(spec, Str) and spec.choices:
        return st.just("bogus")
    return _in_type(spec)


@st.composite
def _case(draw):
    """A run, and one `path=value` override drawn from the schema."""
    path, spec = draw(st.sampled_from(PATHS))
    run = draw(st.sampled_from(READERS.get(path.split(".")[0], RUNS)))
    if path == "duration_s":
        spec = Num(lo=0.0, hi=DURATION_CAP_S, exclusive_lo=True)
    huge = (st.integers(309, 400) if isinstance(spec, Num)
            else st.integers(19, 60)).map(lambda k: 10 ** k)
    value = draw(st.one_of(
        _in_type(spec), _out_of_range(spec),
        st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        huge, st.sampled_from(WRONG_TYPES)))
    text = yaml.safe_dump(value, default_flow_style=True, width=sys.maxsize)
    return run, path, text.removesuffix("\n...\n").strip()


@settings(max_examples=300, deadline=None)
@given(_case())
def test_fuzzed_overrides_keep_the_exit_code_contract(tmp_path_factory, case):
    (command, scenario, caps), path, text = case
    if any(key == path or key.startswith(path + ".") for key in SIZES_WORK):
        command = "validate"
    args = [a for spec in (*caps, f"{path}={text}") for a in ("--override", spec)]
    out = tmp_path_factory.getbasetemp() / "fuzz"
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([command, str(SCENARIOS / scenario), "--out", str(out), *args])
    assert code in (0, 2, 3)


# --- every numeric key at its extremes -----------------------------------------------


# The smallest normal float is the smallest magnitude validation accepts.
EXTREME_NUMS = (0.0, -1.0, 5e-324, sys.float_info.min, -sys.float_info.min,
                1e30, -1e30, 1e300, -1e300, 1.7e308, -1.7e308,
                float("nan"), float("inf"), float("-inf"))
EXTREME_INTS = (10 ** 19, 10 ** 400, -1, 0, 1)


def _extremes(spec):
    """Fixed values for a numeric key: its schema bounds and the extremes of
    its type. A list repeats one value to its length, or twice."""
    if isinstance(spec, Int):
        return EXTREME_INTS
    if isinstance(spec, NumSeq):
        return tuple([v] * (spec.length or 2) for v in _extremes(spec.item))
    bounds = tuple(b for b in (spec.lo, spec.hi) if b is not None)
    return tuple(dict.fromkeys(bounds + EXTREME_NUMS))


# A list key is swept as a one-entry list: one field of the entry at a
# time at its extremes, the others as in the entry here. The boxes lie
# inside the bounds of both worlds the sweep runs in; the slip scales from
# 100 ms to past the end of any run.
ENTRIES = {
    "robot.slip": {"start_ms": 100.0, "end_ms": 1.7e308, "mode": "scale",
                   "factor": 0.5},
    "world.rects": [300.0, 300.0, 400.0, 400.0],
    "world.segments": [300.0, 300.0, 400.0, 500.0],
}


def _one_entry_lists(path, spec):
    base = ENTRIES[path]
    if isinstance(spec.item, Map):
        fields = [(key, field) for key, (field, _) in spec.item.fields.items()
                  if isinstance(field, (Num, Int, NumSeq))]
    else:
        fields = [(i, spec.item.item) for i in range(spec.item.length)]
    values = []
    for key, field in fields:
        for value in _extremes(field):
            entry = base.copy()
            entry[key] = value
            values.append([entry])
    return tuple(values)


# (run, path, value): every Num, Int, NumSeq and list key, against every run
# that reads its section, at each of its extremes.
SWEEP = tuple((run, path, value) for path, spec in PATHS
              if isinstance(spec, (Num, Int, NumSeq, SeqOf))
              for run in READERS.get(path.split(".")[0], RUNS)
              for value in (_one_entry_lists(path, spec) if isinstance(spec, SeqOf)
                            else _extremes(spec)))


def _yaml_text(value) -> str:
    """value as one line of flow-style YAML."""
    text = yaml.safe_dump(value, default_flow_style=True, width=sys.maxsize)
    return text.removesuffix("\n...\n").strip()


def _quiet_main(args: list[str]) -> tuple[int, str]:
    """main(args) with warnings raised as errors; (exit code, stdout)."""
    stdout = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        code = main(args)
    return code, stdout.getvalue()


def test_every_numeric_key_at_its_extremes_keeps_the_exit_code_contract(tmp_path):
    # The deterministic counterpart of the fuzz test above: a defect that
    # one key reaches only at one magnitude cannot hide between draws.
    failures = []
    for (command, scenario, caps), path, value in SWEEP:
        override = f"{path}={_yaml_text(value)}"
        if path in SIZES_WORK or (path == "duration_s" and value > DURATION_CAP_S):
            command = "validate"
        case = f"{command} {scenario} {override}"
        file = str(SCENARIOS / scenario)
        overrides = [a for spec in (*caps, override) for a in ("--override", spec)]
        try:
            code, out = _quiet_main([command, file, "--out", str(tmp_path), *overrides])
            if code not in (0, 2, 3):
                failures.append(f"{case}: exit {code}")
            elif code == 0 and any(line.partition(": ")[2] in ("inf", "-inf", "nan")
                                   for line in out.splitlines()):
                failures.append(f"{case}: non-finite metric")
            # A run exits 2 only when building the scenario fails, which
            # validate does too; so only an accepted run needs the check.
            elif code != 2 and _quiet_main(["validate", file, *overrides])[0] != 0:
                failures.append(f"{case}: exit {code}, but validate rejects it")
        except Exception as exc:     # a warning or a traceback
            failures.append(f"{case}: {exc!r}")
    assert not failures, "\n".join(failures)


# YAML 1.2 core-schema floats that YAML 1.1 reads as strings, and near
# misses that stay strings.
EXPONENT_FORMS = ["1e6", "1.0e300", "-2.5e3", "+1E-3", ".5e1", "-.5", "1.e5",
                  "-1e400", "[1e6, {a: 2E+3}]", "1_0e3", "1e", "e5", "0128"]


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_libyaml_reads_every_scenario_and_sweep_value_as_python_yaml_does():
    assert issubclass(YAML_LOADER, yaml.CSafeLoader)
    python_loader = with_core_floats(yaml.SafeLoader)
    texts = [path.read_text() for path in sorted(SCENARIOS.glob("*.yaml"))]
    texts += sorted({_yaml_text(value) for _, _, value in SWEEP})
    texts += EXPONENT_FORMS
    for text in texts:
        # repr, because nan != nan.
        assert (repr(yaml.load(text, Loader=YAML_LOADER))
                == repr(yaml.load(text, Loader=python_loader))), text


def test_exponent_forms_read_as_numbers(capsys):
    values = [yaml.load(text, Loader=YAML_LOADER) for text in EXPONENT_FORMS]
    assert values == [1e6, 1e300, -2500.0, 1e-3, 5.0, -0.5, 1e5, -math.inf,
                      [1e6, {"a": 2000.0}], "1_0e3", "1e", "e5", "0128"]
    # Files and overrides share the loader.
    text = Path(CONSENSUS_DEMO).read_text().replace("epsilon: 0.01", "epsilon: 1e-2")
    assert "epsilon: 1e-2" in text
    assert parse_scenario(text).consensus.epsilon == 0.01
    assert load_scenario(CONSENSUS_DEMO, ("consensus.turn_gain=1e6",)
                         ).consensus.turn_gain == 1e6
    assert_rejected(capsys, ["validate", CONSENSUS_DEMO, "--override", "name=1e5"],
                    "name")
