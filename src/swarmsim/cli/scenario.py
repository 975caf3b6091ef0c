"""Scenario files: strict schema validation, overrides, built domain objects.

A scenario is a YAML mapping. Validation is strict: any key the schema
does not know is an error naming the full dotted path, so typos never
silently fall back to defaults. Numbers must be finite and are range-checked
as far as the file format goes. `parse_scenario` then builds every domain
object a run needs, once; a value the objects reject names its key path,
so a scenario that validates is a scenario the runners can build.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import yaml

from swarmsim.comms import MAX_ROBOTS, ChannelModel
from swarmsim.control import (Gains, ReferenceTrajectory, circle_trajectory,
                              line_trajectory)
from swarmsim.core import Posture, RobotGeometry, WheelSpeeds, wrap_angle
from swarmsim.estimation import EkfConfig
from swarmsim.planning import OccupancyGrid
from swarmsim.sim import Rates, Rect, Segment, SensorNoise, SlipEvent, World
from swarmsim.swarm import ConsensusConfig, swarm_headings

KINDS = ("track", "localize", "consensus", "plan")

# A YAML 1.2 core-schema float with a dot or an exponent. YAML 1.1 reads
# the forms with an exponent but no dot (1e6) or no exponent sign (1.0e300)
# as strings.
_CORE_FLOAT = re.compile(
    r"^[-+]?(?:(?:\.[0-9]+|[0-9]+\.[0-9]*)(?:[eE][-+]?[0-9]+)?|[0-9]+[eE][-+]?[0-9]+)$")


def with_core_floats(loader: type) -> type:
    """A subclass of loader that also reads YAML 1.2 core-schema floats."""
    cls = type(loader.__name__, (loader,), {})
    cls.add_implicit_resolver("tag:yaml.org,2002:float", _CORE_FLOAT,
                              list("-+.0123456789"))
    return cls


# libyaml's parser, ten times faster, where PyYAML was built with it.
YAML_LOADER = with_core_floats(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


class ScenarioError(Exception):
    """Scenario text, schema, or override rejected."""


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else str(key)


class Num:
    """A real number, optionally bounded."""

    def __init__(self, lo: float | None = None, hi: float | None = None,
                 exclusive_lo: bool = False):
        self.lo, self.hi, self.exclusive_lo = lo, hi, exclusive_lo

    def check(self, value: Any, path: str) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError(f"{path}: expected a number, got {value!r}")
        try:
            v = float(value)
        except OverflowError:
            raise ScenarioError(f"{path}: integer beyond the float range") from None
        if not math.isfinite(v):
            raise ScenarioError(f"{path}: must be finite, got {v!r}")
        error = self._bound_error(v)
        if error is None and 0 < abs(v) < sys.float_info.min:
            # A subnormal divisor overflows to infinity.
            size = "0 or of size at least" if self._bound_error(0.0) is None else "at least"
            error = f"must be {size} {sys.float_info.min:g}"
        if error is not None:
            raise ScenarioError(f"{path}: {error}, got {v:g}")
        return v

    def _bound_error(self, v: float) -> str | None:
        if self.lo is not None and (v < self.lo or (self.exclusive_lo and v == self.lo)):
            bound = "greater than" if self.exclusive_lo else "at least"
            return f"must be {bound} {self.lo:g}"
        if self.hi is not None and v > self.hi:
            return f"must be at most {self.hi:g}"
        return None


class Int:
    """An integer, bounded above by the largest C size unless hi is None."""

    def __init__(self, lo: int | None = None, hi: int | None = sys.maxsize):
        self.lo, self.hi = lo, hi

    def check(self, value: Any, path: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"{path}: expected an integer, got {value!r}")
        if self.lo is not None and value < self.lo:
            raise ScenarioError(f"{path}: must be at least {self.lo}, got {value}")
        if self.hi is not None and value > self.hi:
            raise ScenarioError(f"{path}: must be at most {self.hi}, got {value}")
        return value


class Bool:
    def check(self, value: Any, path: str) -> bool:
        if not isinstance(value, bool):
            raise ScenarioError(f"{path}: expected true or false, got {value!r}")
        return value


class Str:
    def __init__(self, *choices: str):
        self.choices = choices

    def check(self, value: Any, path: str) -> str:
        if not isinstance(value, str):
            raise ScenarioError(f"{path}: expected a string, got {value!r}")
        if self.choices and value not in self.choices:
            options = ", ".join(self.choices)
            raise ScenarioError(f"{path}: must be one of ({options}), got {value!r}")
        return value


class NumSeq:
    """A list of numbers, optionally of fixed length."""

    def __init__(self, length: int | None = None, item: Num | None = None):
        self.length = length
        self.item = item or Num()

    def check(self, value: Any, path: str) -> list[float]:
        if not isinstance(value, list):
            raise ScenarioError(f"{path}: expected a list of numbers")
        if self.length is not None and len(value) != self.length:
            raise ScenarioError(
                f"{path}: expected {self.length} numbers, got {len(value)}")
        return [self.item.check(v, f"{path}[{i}]") for i, v in enumerate(value)]


class SeqOf:
    def __init__(self, item):
        self.item = item

    def check(self, value: Any, path: str) -> list:
        if not isinstance(value, list):
            raise ScenarioError(f"{path}: expected a list")
        return [self.item.check(v, f"{path}[{i}]") for i, v in enumerate(value)]


class Map:
    """A mapping with a fixed key set; fields are (spec, required)."""

    def __init__(self, fields: dict[str, tuple[Any, bool]]):
        self.fields = fields

    def check(self, value: Any, path: str) -> dict:
        if not isinstance(value, dict):
            raise ScenarioError(f"{path or 'scenario'}: expected a mapping")
        for key in value:
            if not isinstance(key, str) or key not in self.fields:
                raise ScenarioError(f"unknown key {_join(path, key)!r}")
        out = {}
        for key, (spec, required) in self.fields.items():
            if key in value:
                out[key] = spec.check(value[key], _join(path, key))
            elif required:
                raise ScenarioError(f"missing required key {_join(path, key)!r}")
        return out


_POSITIVE = Num(lo=0.0, exclusive_lo=True)
_NONNEG = Num(lo=0.0)
_PROB = Num(lo=0.0, hi=1.0)
# Upper bounds for values whose physics overflows mid-run near the float
# maximum. A gain, scale factor or reference speed past 1e6 only saturates
# the wheels (or the flow counters) sooner; a start posture, or a circle
# radius, within 1e9 mm leaves the motion room to stay finite and keeps a
# circle's far centre from cancelling the points around it. IR noise within
# 1e9 mm keeps its draws finite, and already saturates every wire reading.
# World coordinates within 1e9 mm keep the ray casts' differences and
# products finite. Consensus headings within 1e9 rad keep the swarm mean's
# sum finite.
_GAIN = Num(lo=0.0, exclusive_lo=True, hi=1e6)
_COORD = Num(lo=-1e9, hi=1e9)
_START = NumSeq(3, _COORD)    # x mm, y mm, theta rad
_BOX = NumSeq(4, _COORD)      # x0, y0, x1, y1 mm

_GEOMETRY = Map({
    "wheel_base": (_POSITIVE, False),
    "flow_separation": (_POSITIVE, False),
    "mm_per_tick": (_POSITIVE, False),
    "body_radius": (_POSITIVE, False),
    "ir_range_min": (_NONNEG, False),
    "ir_range_max": (_POSITIVE, False),
})

_NOISE = Map({
    "encoder_sigma": (_NONNEG, False),
    "flow_sigma": (_NONNEG, False),
    "flow_scale": (_GAIN, False),
    "gyro_sigma": (_NONNEG, False),
    "ir_sigma": (Num(lo=0.0, hi=1e9), False),   # mm
})

_SLIP_EVENT = Map({
    "start_ms": (_NONNEG, True),
    "end_ms": (_POSITIVE, True),
    "mode": (Str("stuck", "scale"), False),
    "factor": (_PROB, False),
})

_ROBOT = Map({
    "geometry": (_GEOMETRY, False),
    "noise": (_NOISE, False),
    "noiseless": (Bool(), False),
    "start": (_START, False),
    "command": (NumSeq(2), False),      # constant wheel command (right, left), mm/s
    "slip": (SeqOf(_SLIP_EVENT), False),
})

_CHANNEL = Map({
    "latency_min_ms": (_NONNEG, False),
    "latency_max_ms": (_NONNEG, False),
    "loss_prob": (_PROB, False),
    "bit_flip_prob": (_PROB, False),
})

_GAINS = Map({
    "k_x": (_GAIN, False),
    "k_y": (_GAIN, False),
    "k_theta": (_GAIN, False),
})

_REFERENCE = Map({
    "shape": (Str("circle", "line"), True),
    "radius": (Num(lo=0.0, exclusive_lo=True, hi=1e9), False),   # mm
    "speed": (Num(lo=0.0, exclusive_lo=True, hi=1e6), True),   # mm/s
    "ccw": (Bool(), False),
    "start": (_START, False),           # reference's own start; defaults to robot.start
})

_CONTROL = Map({
    "gains": (_GAINS, False),
    "period_ms": (Num(lo=1.0), False),   # one reference sample per period
    "reference": (_REFERENCE, True),
    "feedback": (Str("truth", "estimator"), False),
})

_ESTIMATOR = Map({
    "adaptive": (Bool(), False),
    "slip_inflation": (Num(lo=1.0), False),
    "slip_threshold": (_POSITIVE, False),
    "slip_window": (Int(lo=1), False),
    "fixed_dt_ms": (_POSITIVE, False),
})

_CONSENSUS = Map({
    "headings": (NumSeq(item=_COORD), True),   # rad
    "k": (_POSITIVE, False),
    "epsilon": (_POSITIVE, False),
    "max_rounds": (Int(lo=1), False),
    "mode": (Str("networked", "synchronous"), False),
    "round_period_ms": (_POSITIVE, False),
    "settle_rounds": (Int(lo=1), False),
    "staleness_horizon_ms": (_POSITIVE, False),
    "turn_gain": (_GAIN, False),
})

_SURVEY = Map({
    "x_lines": (NumSeq(), True),
    "y_lines": (NumSeq(), True),
    "headings": (Int(lo=1), False),
    "min_clearance_mm": (_NONNEG, False),
})

_PLAN = Map({
    "resolution_mm": (_POSITIVE, True),
    "origin_mm": (NumSeq(2), False),
    "width_cells": (Int(lo=1), True),
    "height_cells": (Int(lo=1), True),
    "margin_mm": (_NONNEG, False),
    "median_window": (Int(lo=3), False),
    "start": (NumSeq(2), True),
    "goal": (NumSeq(2), True),
    "survey": (_SURVEY, True),
})

_WORLD = Map({
    "bounds": (_BOX, True),
    "rects": (SeqOf(_BOX), False),
    "segments": (SeqOf(_BOX), False),
})

_RATES = Map({
    # t_sent counts whole ms on a u32 clock
    "report_period_ms": (Num(lo=1.0, hi=float(0xFFFFFFFF)), False),
    "report_jitter_ms": (_NONNEG, False),   # robot loop turbulence around the period
})

SCHEMA = Map({
    "name": (Str(), True),
    "kind": (Str(*KINDS), True),
    "seed": (Int(lo=0, hi=None), True),     # numpy seeds take any size
    "duration_s": (_POSITIVE, False),
    "world": (_WORLD, False),
    "robot": (_ROBOT, False),
    "channel": (_CHANNEL, False),
    "control": (_CONTROL, False),
    "estimator": (_ESTIMATOR, False),
    "consensus": (_CONSENSUS, False),
    "plan": (_PLAN, False),
    "rates": (_RATES, False),
})

# Sections each kind cannot run without.
_KIND_NEEDS = {
    "track": ("duration_s", "control"),
    "localize": ("duration_s", "robot"),
    "consensus": ("consensus",),
    "plan": ("world", "plan"),
}


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: its canonical digest and every object a run
    builds from it. Fields after `fixed_dt_s` are None unless the kind runs
    them; the consensus pair is built for any `consensus` section."""

    name: str
    kind: str
    seed: int
    digest: str
    duration_s: float | None
    rates: Rates
    geometry: RobotGeometry
    noise: SensorNoise
    channel: ChannelModel
    world: World | None
    slip: tuple[SlipEvent, ...]
    start: Posture
    command: WheelSpeeds | None     # constant wheel command of a localize run
    ekf: EkfConfig
    adaptive: bool
    fixed_dt_s: float | None
    # track
    trajectory: ReferenceTrajectory | None = None
    gains: Gains | None = None
    control_period_s: float | None = None
    feedback: str | None = None
    # consensus
    consensus: ConsensusConfig | None = None
    headings: tuple[float, ...] | None = None
    # plan; the grid is an empty template each run clones, and each survey
    # point is scanned at survey_headings evenly spaced headings
    grid: OccupancyGrid | None = None
    survey_points: tuple[tuple[float, float], ...] | None = None
    survey_headings: int | None = None
    median_window: int | None = None
    margin_mm: float | None = None
    start_cell: tuple[int, int] | None = None
    goal_cell: tuple[int, int] | None = None


def config_digest(validated: dict) -> str:
    """Stable short fingerprint of the effective configuration."""
    canon = json.dumps(validated, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("ascii")).hexdigest()[:12]


def apply_override(raw: dict, spec: str) -> None:
    """Apply one `dotted.key.path=value` override onto the raw mapping."""
    key_path, sep, text = spec.partition("=")
    if not sep or not key_path:
        raise ScenarioError(f"override {spec!r} is not of the form key=value")
    try:
        value = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"override {spec!r}: unparseable value: {exc}") from exc
    node = raw
    keys = key_path.split(".")
    for key in keys[:-1]:
        child = node.setdefault(key, {})
        if not isinstance(child, dict):
            raise ScenarioError(
                f"override {spec!r}: {key!r} is not a mapping in the scenario")
        node = child
    node[keys[-1]] = value


def _check_rates(r: Rates) -> None:
    """Reject a jittered report interval under 1 ms: reports are stamped in
    whole ms, so it could repeat a stamp and have its report skipped as
    stale.
    """
    if r.report_period_us - r.report_jitter_us < 1000:
        raise ScenarioError(
            f"rates.report_jitter_ms: must be at most rates.report_period_ms "
            f"- 1 ms ({(r.report_period_us - 1000) / 1e3:g}), "
            f"got {r.report_jitter_ms:g}")


def _build(path: str, make, *args, **kwargs):
    """make(*args, **kwargs); a value it rejects is reported at its key path."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    except ArithmeticError as exc:
        raise ScenarioError(f"{path}: a value overflows the float arithmetic "
                            f"({exc})") from exc


def _posture(xyt: list[float]) -> Posture:
    x, y, theta = xyt
    return Posture(x, y, wrap_angle(theta))


def _world(section: dict) -> World:
    return World(
        bounds=_build("world.bounds", Rect, *section["bounds"]),
        rects=tuple(_build(f"world.rects[{i}]", Rect, *coords)
                    for i, coords in enumerate(section.get("rects", ()))),
        segments=tuple(_build(f"world.segments[{i}]", Segment, *coords)
                       for i, coords in enumerate(section.get("segments", ()))),
    )


# Run budgets, each checked before anything of its size is built.  A track
# run samples its reference, and records its rows, once per control
# period, all in memory: a million periods (19 h at 70 ms) take about
# 0.8 GB.  A localize or compare run keeps every delivered report, its
# truth and each variant's estimate, about 2 KB per report: half a million
# reports (9.7 h at 70 ms) take about 1 GB.  A plan run's grid arrays take
# about 30 bytes per cell at their peak: ten million cells take about
# 0.3 GB.  Its survey takes about 220 bytes per sensor ray at its peak:
# five million rays take about 1.1 GB.  A consensus run keeps each round's
# headings and rows, about 55 bytes per robot and round: twenty million
# (a networked run's frames) take about 1.1 GB.
_MAX_CONTROL_PERIODS = 10 ** 6
_MAX_REPORTS = 500_000
_MAX_GRID_CELLS = 10 ** 7
_MAX_SURVEY_RAYS = 5 * 10 ** 6
_MAX_ROBOT_ROUNDS = 2 * 10 ** 7


def _track(data: dict, start: Posture) -> dict:
    control = data["control"]
    ref = control["reference"]
    duration = data["duration_s"]
    period_s = control.get("period_ms", 70.0) / 1e3
    if duration > _MAX_CONTROL_PERIODS * period_s:
        raise ScenarioError(
            f"duration_s: must span at most {_MAX_CONTROL_PERIODS:g} control "
            f"periods ({_MAX_CONTROL_PERIODS * period_s:g} s), got {duration:g} s")
    ref_start = _posture(ref["start"]) if "start" in ref else start
    if ref["shape"] == "circle":
        trajectory = _build("control.reference", circle_trajectory, ref["radius"],
                            ref["speed"], duration, period_s,
                            ref.get("ccw", True), ref_start)
    else:
        trajectory = _build("control.reference", line_trajectory, ref["speed"],
                            duration, period_s, ref_start)
    if duration < period_s:
        raise ScenarioError(
            f"duration_s: must cover at least one control.period_ms "
            f"({period_s * 1e3:g} ms), got {duration:g} s")
    return {
        "trajectory": trajectory,
        "gains": _build("control.gains", Gains, **control.get("gains", {})),
        "control_period_s": period_s,
        "feedback": control.get("feedback", "truth"),
    }


def _plan(data: dict, geometry: RobotGeometry, world: World) -> dict:
    plan = data["plan"]
    width, height = plan["width_cells"], plan["height_cells"]
    if width * height > _MAX_GRID_CELLS:
        raise ScenarioError(
            f"plan: width_cells x height_cells must be at most "
            f"{_MAX_GRID_CELLS} cells, got {width} x {height}")
    grid = _build("plan", OccupancyGrid, plan["resolution_mm"],
                  tuple(plan.get("origin_mm", (0.0, 0.0))),
                  plan["width_cells"], plan["height_cells"])
    window = plan.get("median_window", 3)
    if window % 2 == 0:
        raise ScenarioError(f"plan.median_window: must be odd, got {window}")
    cells = {}
    for key in ("start", "goal"):
        cells[key] = grid.cell_of(*plan[key])
        if cells[key] is None:
            raise ScenarioError(f"plan.{key}: lies outside the grid")
    survey = plan["survey"]
    headings = survey.get("headings", 12)
    rays = (len(survey["x_lines"]), len(survey["y_lines"]), headings,
            len(geometry.ir_ray_angles))
    if math.prod(rays) > _MAX_SURVEY_RAYS:
        raise ScenarioError(
            f"plan.survey: x_lines x y_lines x headings x sensor rays must be at "
            f"most {_MAX_SURVEY_RAYS} rays, got {' x '.join(map(str, rays))}")
    min_clearance = survey.get("min_clearance_mm", 250.0)
    points = tuple((x, y) for x in survey["x_lines"] for y in survey["y_lines"]
                   if world.clearance(x, y) >= min_clearance)
    if not points:
        raise ScenarioError(f"plan.survey: no point keeps min_clearance_mm "
                            f"({min_clearance:g}) from every obstacle")
    return {
        "grid": grid,
        "survey_points": points,
        "survey_headings": headings,
        "median_window": window,
        "margin_mm": plan.get("margin_mm", geometry.body_radius + 20.0),
        "start_cell": cells["start"],
        "goal_cell": cells["goal"],
    }


def parse_scenario(text: str, overrides: tuple[str, ...] = ()) -> Scenario:
    """Parse, override, and validate scenario text, and build its objects."""
    try:
        raw = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        # PyYAML marks carry line/column positions already.
        raise ScenarioError(f"scenario is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a mapping at the top level")
    for spec in overrides:
        apply_override(raw, spec)
    data = SCHEMA.check(raw, "")
    kind = data["kind"]
    for section in _KIND_NEEDS[kind]:
        if section not in data:
            raise ScenarioError(
                f"kind {kind!r} requires the {section!r} section")
    robot = data.get("robot", {})
    if kind == "localize" and "command" not in robot:
        raise ScenarioError("kind 'localize' requires robot.command")
    rates = Rates(**data.get("rates", {}))
    _build("rates", _check_rates, rates)
    channel = _build("channel", ChannelModel, **data.get("channel", {}))
    geometry = _build("robot.geometry", RobotGeometry, **robot.get("geometry", {}))
    slip = tuple(_build(f"robot.slip[{i}]", SlipEvent, **event)
                 for i, event in enumerate(robot.get("slip", ())))
    world = _world(data["world"]) if "world" in data else None
    kind_fields: dict[str, Any] = {}
    if "consensus" in data:
        section = dict(data["consensus"])
        headings = _build("consensus.headings", swarm_headings, section.pop("headings"))
        consensus = _build("consensus", ConsensusConfig, **section)
        if len(headings) * consensus.max_rounds > _MAX_ROBOT_ROUNDS:
            raise ScenarioError(
                f"consensus.max_rounds: robots x max_rounds must be at most "
                f"{_MAX_ROBOT_ROUNDS}, got {len(headings)} x {consensus.max_rounds}")
        # Networked robots report under the ids 0 to n - 1.
        if consensus.mode == "networked" and len(headings) > MAX_ROBOTS:
            raise ScenarioError(
                f"consensus.headings: networked mode carries at most "
                f"{MAX_ROBOTS} robots (u8 ids on the wire), got {len(headings)}")
        kind_fields.update(headings=headings, consensus=consensus)
    reference = data.get("control", {}).get("reference", {})
    if reference.get("shape") == "circle" and "radius" not in reference:
        raise ScenarioError("control.reference.radius: required for shape 'circle'")
    noise = SensorNoise.noiseless() if robot.get("noiseless") else SensorNoise()
    noise = replace(noise, **robot.get("noise", {}))
    start = _posture(robot.get("start", (0.0, 0.0, 0.0)))
    estimator = data.get("estimator", {})
    # Only robot.noise and robot.geometry can overflow the filter's variances.
    ekf = _build(
        "robot", EkfConfig.from_noise, noise, geometry, rates,
        **{key: estimator[key] for key in
           ("slip_inflation", "slip_threshold", "slip_window") if key in estimator})
    if kind == "track":
        kind_fields.update(_track(data, start))
    elif kind == "plan":
        kind_fields.update(_plan(data, geometry, world))
    elif kind == "localize":
        max_s = _MAX_REPORTS * rates.report_period_ms / 1e3
        if data["duration_s"] > max_s:
            raise ScenarioError(
                f"duration_s: must span at most {_MAX_REPORTS} report periods "
                f"({max_s:.12g} s), got {data['duration_s']:.12g} s")
        if world is not None and not world.bounds.contains(start.x, start.y):
            raise ScenarioError("robot.start: lies outside world.bounds")
    fixed_dt_ms = estimator.get("fixed_dt_ms")
    return Scenario(
        name=data["name"],
        kind=kind,
        seed=data["seed"],
        digest=config_digest(data),
        duration_s=data.get("duration_s"),
        rates=rates,
        geometry=geometry,
        noise=noise,
        channel=channel,
        world=world,
        slip=slip,
        start=start,
        command=WheelSpeeds(*robot["command"]) if "command" in robot else None,
        ekf=ekf,
        adaptive=estimator.get("adaptive", True),
        fixed_dt_s=None if fixed_dt_ms is None else fixed_dt_ms / 1e3,
        **kind_fields,
    )


def load_scenario(path: str | Path, overrides: tuple[str, ...] = ()) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    return parse_scenario(text, overrides)
