from __future__ import annotations

import csv
from pathlib import Path

import pytest

from swarmsim.cli import runner
from swarmsim.cli.main import main
from swarmsim.cli.scenario import load_scenario
from swarmsim.estimation import dead_reckon, run_estimator

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


def test_seed_changes_the_noise(tmp_path, capsys):
    for seed in ("1", "2"):
        assert main(["localize", SLIP, "--out", str(tmp_path / seed),
                     "--seed", seed, "--override", "duration_s=5.0"]) == 0
    capsys.readouterr()
    assert ((tmp_path / "1" / "estimates.csv").read_bytes()
            != (tmp_path / "2" / "estimates.csv").read_bytes())


def test_compare_adaptive_has_minimum_terminal_error(tmp_path, capsys):
    assert main(["compare", SLIP, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = read_rows(tmp_path / "compare.csv")
    assert [row["variant"] for row in rows] == [
        "adaptive", "nonadaptive", "fixed_dt", "wheels"]
    terminal = {row["variant"]: float(row["terminal_mm"]) for row in rows}
    assert terminal["adaptive"] == min(terminal.values())


def test_compare_single_variant(tmp_path, capsys):
    assert main(["compare", SLIP, "--out", str(tmp_path),
                 "--variants", "adaptive"]) == 0
    capsys.readouterr()
    rows = read_rows(tmp_path / "compare.csv")
    assert len(rows) == 1 and rows[0]["variant"] == "adaptive"


def test_compare_simulates_once_and_matches_direct_runs(tmp_path, capsys,
                                                       monkeypatch):
    calls = []
    simulate = runner.simulate_reports

    def counting(data, seed):
        calls.append(seed)
        return simulate(data, seed)

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
    data = scenario.data
    geometry = runner.build_geometry(data)
    rates = runner.build_rates(data)
    start = runner.build_start(data)
    cfg, _, _ = runner.build_ekf_config(data, runner.build_noise(data),
                                        geometry, rates)
    stream = simulate(data, scenario.seed)
    args = (stream.delivered, start, geometry)
    direct = {
        "adaptive": run_estimator(*args, cfg),
        "nonadaptive": run_estimator(*args, cfg, adaptive=False),
        "fixed_dt": run_estimator(*args, cfg,
                                  fixed_dt_s=rates.report_period_ms / 1e3),
        "wheels": dead_reckon(*args, "wheels"),
        "flow": dead_reckon(*args, "flow"),
    }
    rows = read_rows(tmp_path / "compare.csv")
    assert [row["variant"] for row in rows] == variants
    assert any(int(row["stale_skipped"]) > 0 for row in rows)
    for row in rows:
        estimate = direct[row["variant"]]
        errors = runner.position_errors(estimate.times_ms, estimate.means,
                                        stream.truth_at_send)
        assert row["rmse_mm"] == f"{runner._rmse(errors):.6g}"
        assert row["terminal_mm"] == f"{float(errors[-1]):.6g}"
        assert row["stale_skipped"] == str(estimate.stale_skipped)


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


@pytest.mark.parametrize("command", ["localize", "compare"])
@pytest.mark.parametrize("override", ["channel.loss_prob=1.0",
                                      "channel.bit_flip_prob=1.0"])
def test_run_without_delivered_reports_faults(tmp_path, capsys, command,
                                              override):
    assert main([command, SLIP, "--out", str(tmp_path),
                 "--override", "duration_s=3.0", "--override", override]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("fault: ")
    assert "sent" in lines[0] and "undecodable" in lines[0]


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
        runner.position_errors([], [], {})


def test_robot_leaving_the_world_faults(tmp_path, capsys):
    assert main(["localize", SLIP, "--out", str(tmp_path),
                 "--override", "world={bounds: [-300,-300,300,300]}"]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("fault: ")
    assert "world" in lines[0]


@pytest.mark.parametrize("overrides, key_path", [
    # A 0 us encoder period would make a plant step of 0 s.
    (("rates.encoder_hz=3000000",), "rates.encoder_hz"),
    # Clocks that all tick slower than 5 Hz allow a plant step over 0.2 s.
    (("rates.encoder_hz=2", "rates.flow_hz=2", "rates.report_period_ms=1000"),
     "rates"),
    # Jitter at or above the period allows a report interval of 0 or less.
    (("rates.report_jitter_ms=80",), "rates.report_jitter_ms"),
])
def test_rates_giving_an_invalid_plant_step_are_rejected(tmp_path, capsys,
                                                         overrides, key_path):
    args = [a for spec in overrides for a in ("--override", spec)]
    assert_rejected(capsys, ["localize", SLIP, "--out", str(tmp_path), *args],
                    key_path)
    assert_rejected(capsys, ["validate", SLIP, *args], key_path)


@pytest.mark.parametrize("command, scenario, override, key_path", [
    # Non-finite numbers.
    ("localize", "localize_slip.yaml", "robot.command=[.inf,0]",
     "robot.command[0]"),
    ("localize", "localize_slip.yaml", "channel.latency_max_ms=.inf",
     "channel.latency_max_ms"),
    ("localize", "localize_slip.yaml", "duration_s=.nan", "duration_s"),
    ("localize", "localize_slip.yaml", "rates.flow_hz=.nan", "rates.flow_hz"),
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
])
def test_invalid_values_are_rejected_before_running(tmp_path, capsys, command,
                                                    scenario, override,
                                                    key_path):
    scenario = str(SCENARIOS / scenario)
    assert_rejected(capsys, [command, scenario, "--out", str(tmp_path),
                             "--override", override], key_path)
    assert_rejected(capsys, ["validate", scenario, "--override", override],
                    key_path)


def test_outputs_carry_no_wall_clock(tmp_path, capsys):
    assert main(["localize", SLIP, "--out", str(tmp_path),
                 "--override", "duration_s=5.0"]) == 0
    capsys.readouterr()
    for path in tmp_path.iterdir():
        assert b"wall_clock" not in path.read_bytes()
