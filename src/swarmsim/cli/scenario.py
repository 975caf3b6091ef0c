"""Scenario files: strict schema validation, overrides, canonical digest.

A scenario is a YAML mapping. Validation is strict: any key the schema
does not know is an error naming the full dotted path, so typos never
silently fall back to defaults. Numbers must be finite and are range-checked
as far as the file format goes; rules that relate several keys are checked
by constructing the domain objects that own them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import yaml

from swarmsim.comms import ChannelModel
from swarmsim.core import RobotGeometry
from swarmsim.sim import MAX_STEP_S, Rates, Rect, Segment, SlipEvent
from swarmsim.swarm import ConsensusConfig, SwarmState

KINDS = ("track", "localize", "consensus", "plan")


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
        if self.lo is not None and (v < self.lo or (self.exclusive_lo and v == self.lo)):
            bound = "greater than" if self.exclusive_lo else "at least"
            raise ScenarioError(f"{path}: must be {bound} {self.lo:g}, got {v:g}")
        if self.hi is not None and v > self.hi:
            raise ScenarioError(f"{path}: must be at most {self.hi:g}, got {v:g}")
        return v


class Int:
    def __init__(self, lo: int | None = None, hi: int | None = None):
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
    "flow_scale": (_POSITIVE, False),
    "gyro_sigma": (_NONNEG, False),
    "ir_sigma": (_NONNEG, False),
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
    "start": (NumSeq(3), False),
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
    "k_x": (_POSITIVE, False),
    "k_y": (_POSITIVE, False),
    "k_theta": (_POSITIVE, False),
})

_REFERENCE = Map({
    "shape": (Str("circle", "line"), True),
    "radius": (_POSITIVE, False),
    "speed": (_POSITIVE, True),
    "ccw": (Bool(), False),
    "start": (NumSeq(3), False),        # reference's own start; defaults to robot.start
})

_CONTROL = Map({
    "gains": (_GAINS, False),
    "period_ms": (_POSITIVE, False),
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
    "headings": (NumSeq(), True),
    "k": (_POSITIVE, False),
    "epsilon": (_POSITIVE, False),
    "max_rounds": (Int(lo=1), False),
    "mode": (Str("networked", "synchronous"), False),
    "round_period_ms": (_POSITIVE, False),
    "settle_rounds": (Int(lo=1), False),
    "staleness_horizon_ms": (_POSITIVE, False),
    "turn_gain": (_POSITIVE, False),
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
    "bounds": (NumSeq(4), True),
    "rects": (SeqOf(NumSeq(4)), False),
    "segments": (SeqOf(NumSeq(4)), False),
})

_RATES = Map({
    "encoder_hz": (_POSITIVE, False),
    "flow_hz": (_POSITIVE, False),
    "report_period_ms": (Num(lo=1.0), False),   # t_sent counts whole ms
    "report_jitter_ms": (_NONNEG, False),   # robot loop turbulence around the period
})

SCHEMA = Map({
    "name": (Str(), True),
    "kind": (Str(*KINDS), True),
    "seed": (Int(lo=0), True),
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
    """A validated scenario: plain data plus its canonical digest."""

    name: str
    kind: str
    seed: int
    data: dict
    digest: str


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
        value = yaml.safe_load(text)
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


def _check_rates(rates: dict) -> None:
    """Reject rates whose microsecond clocks give an invalid plant step.

    The engine steps the plant from one sensor or report event to the next
    on an integer microsecond grid, so each sensor period must round to at
    least 1 us and some clock must fire at least every MAX_STEP_S seconds.
    Reports are stamped in whole ms, so a jittered report interval under
    1 ms could repeat a stamp and have its report skipped as stale.
    """
    r = Rates(**rates)
    for key, period_us in (("encoder_hz", r.encoder_period_us),
                           ("flow_hz", r.flow_period_us)):
        if period_us < 1:
            raise ScenarioError(f"rates.{key}: the period rounds to 0 us, "
                                f"got {getattr(r, key):g}")
    if r.report_period_us - r.report_jitter_us < 1000:
        raise ScenarioError(
            f"rates.report_jitter_ms: must be at most rates.report_period_ms "
            f"- 1 ms ({(r.report_period_us - 1000) / 1e3:g}), "
            f"got {r.report_jitter_ms:g}")
    longest_us = min(r.encoder_period_us, r.flow_period_us,
                     r.report_period_us + r.report_jitter_us)
    if longest_us * 1e-6 > MAX_STEP_S:
        raise ScenarioError(
            f"rates: a plant step can last {longest_us / 1e6:g} s, "
            f"above {MAX_STEP_S:g} s; raise rates.encoder_hz or rates.flow_hz, "
            f"or lower rates.report_period_ms")


def _construct(path: str, cls, *args, **kwargs) -> None:
    try:
        cls(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _check_models(data: dict) -> None:
    """Check the rules that relate several keys, mostly by constructing the
    objects that own them, so a violation names its key path before a run."""
    robot, world = data.get("robot", {}), data.get("world", {})
    _construct("channel", ChannelModel, **data.get("channel", {}))
    _construct("robot.geometry", RobotGeometry, **robot.get("geometry", {}))
    for i, event in enumerate(robot.get("slip", ())):
        _construct(f"robot.slip[{i}]", SlipEvent, **event)
    if world:
        _construct("world.bounds", Rect, *world["bounds"])
    for key, cls in (("rects", Rect), ("segments", Segment)):
        for i, coords in enumerate(world.get(key, ())):
            _construct(f"world.{key}[{i}]", cls, *coords)
    if "consensus" in data:
        section = dict(data["consensus"])
        _construct("consensus.headings", SwarmState, section.pop("headings"))
        _construct("consensus", ConsensusConfig, **section)
    reference = data.get("control", {}).get("reference", {})
    if reference.get("shape") == "circle" and "radius" not in reference:
        raise ScenarioError("control.reference.radius: required for shape 'circle'")


def parse_scenario(text: str, overrides: tuple[str, ...] = ()) -> Scenario:
    """Parse, override, and validate scenario text."""
    try:
        raw = yaml.safe_load(text)
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
    if kind == "localize" and "command" not in data["robot"]:
        raise ScenarioError("kind 'localize' requires robot.command")
    _check_rates(data.get("rates", {}))
    _check_models(data)
    return Scenario(
        name=data["name"],
        kind=kind,
        seed=data["seed"],
        data=data,
        digest=config_digest(data),
    )


def load_scenario(path: str | Path, overrides: tuple[str, ...] = ()) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    return parse_scenario(text, overrides)
