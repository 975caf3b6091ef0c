"""Tracing of swarmsim's public functions from outside the package.

`Tracer.install` wraps each target wherever it is bound (every swarmsim
module attribute that is the same function object, or the method on its
class) and `Tracer.restore` puts every original object back.

Two kinds of boundary:

* spans, for coarse boundaries (a CLI run, simulate_reports, a channel
  call, a plan stage): name, start, end, parent span and run id, kept in
  memory and written out at the end;
* hot boundaries (a plant event, a sensor sample, a CRC): a call counter,
  the summed time, the summed exclusive time and a count of calls that
  raised.

Self time of a span is its duration minus the time its child spans cover
and minus the time of the hot calls made directly inside it, so the self
times of all spans and the exclusive times of all hot boundaries add up to
the duration of the root spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SPAN = "span"
HOT = "hot"
ROOT_SPAN = "cli.main"

# Span record fields.
NAME, RUN, PARENT, START, END, HOT_S = range(6)


@dataclass(frozen=True)
class Target:
    """One public name to wrap, and the stat it feeds."""

    module: str                   # defining module
    attr: str                     # "function" or "Class.method"
    stat: str                     # metric prefix; the layer is its first word
    kind: str                     # SPAN or HOT
    observe: Callable | None = None   # observe(tracer, args, result) on return


def _observe_send(tracer, args, result):
    tracer.counts["comms.channel.sent"] += 1
    tracer.channels[id(args[0])] = args[0]


def _observe_freshness(tracer, args, result):
    if result is False:
        tracer.counts["comms.superseded"] += 1


def _observe_slip(tracer, args, result):
    if result:
        tracer.counts["est.slip_flagged"] += 1


def _observe_ray(tracer, args, result):
    tracer.counts["plan.ray_cells"] += len(result)


def _observe_astar(tracer, args, result):
    tracer.counts["plan.astar.expanded"] += len(result.expanded)
    tracer.counts["plan.astar.path_cells"] += len(result.cells)


def _observe_consensus(tracer, args, result):
    tracer.counts["swarm.rounds"] += result.rounds


TARGETS = (
    Target("swarmsim.cli.scenario", "load_scenario", "cli.load_scenario", SPAN),
    Target("swarmsim.cli.runner", "run_scenario", "cli.runner", SPAN),
    Target("swarmsim.cli.runner", "run_compare", "cli.runner", SPAN),
    Target("swarmsim.cli.runner", "write_csv", "cli.write", SPAN),
    Target("swarmsim.planning", "save_grid", "cli.write", SPAN),
    Target("swarmsim.cli.runner", "simulate_reports", "sim.simulate_reports", SPAN),
    Target("swarmsim.cli.runner", "RobotSim.advance_to", "sim.advance_to", SPAN),
    Target("swarmsim.sim", "PlantLoop.advance", "sim.plant", HOT),
    Target("swarmsim.sim", "EncoderModel.sample_speeds", "sim.sample", HOT),
    Target("swarmsim.sim", "FlowModel.sample_vw", "sim.sample", HOT),
    Target("swarmsim.sim", "sample_gyro", "sim.sample", HOT),
    Target("swarmsim.sim", "sample_ir", "sim.ir", HOT),
    Target("swarmsim.comms", "encode_frame", "comms.encode", HOT),
    Target("swarmsim.comms", "decode_frame", "comms.decode", HOT),
    Target("swarmsim.comms", "crc16", "comms.crc16", HOT),
    Target("swarmsim.comms", "StarChannel.send", "comms.channel", SPAN, _observe_send),
    Target("swarmsim.comms", "StarChannel.pop_due", "comms.channel", SPAN),
    Target("swarmsim.comms", "FreshnessBuffer.update", "comms.freshness", HOT,
           _observe_freshness),
    Target("swarmsim.estimation", "run_estimator", "est.run_estimator", SPAN),
    Target("swarmsim.estimation", "dead_reckon", "est.dead_reckon", SPAN),
    Target("swarmsim.estimation", "measurement_from_packets", "est.measure", HOT),
    Target("swarmsim.estimation", "ekf_predict", "est.predict", HOT),
    Target("swarmsim.estimation", "ekf_update", "est.update", HOT),
    Target("swarmsim.estimation", "SlipDetector.update", "est.slip", HOT, _observe_slip),
    Target("swarmsim.control", "tracking_control", "control.tracking", HOT),
    Target("swarmsim.control", "ReferenceTrajectory.reference_at", "control.reference", HOT),
    Target("swarmsim.swarm", "run_networked_consensus", "swarm.consensus", SPAN,
           _observe_consensus),
    Target("swarmsim.planning", "ingest_ir_scan", "plan.ingest", HOT),
    Target("swarmsim.planning", "traverse_ray", "plan.ray", HOT, _observe_ray),
    Target("swarmsim.planning", "median_filter", "plan.median", SPAN),
    Target("swarmsim.planning", "inflate", "plan.inflate", SPAN),
    Target("swarmsim.planning", "astar", "plan.astar", SPAN, _observe_astar),
)


def bindings(target: Target) -> list[tuple[object, str, object]]:
    """(owner, attribute, original) for every place the target is bound.

    A method is patched on its class. A function is patched on every loaded
    swarmsim module that holds the same object, under whatever name. An
    empty list means the target no longer exists in the program.
    """
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return []
    owner_name, _, method = target.attr.rpartition(".")
    if owner_name:
        cls = getattr(module, owner_name, None)
        if cls is None or method not in vars(cls):
            return []
        return [(cls, method, vars(cls)[method])]
    original = vars(module).get(target.attr)
    if original is None:
        return []
    found = []
    for name in sorted(sys.modules):
        mod = sys.modules[name]
        if mod is None or not (name == "swarmsim" or name.startswith("swarmsim.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                found.append((mod, attr, original))
    return found


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> list[float]:
    """Self time of each span record: duration minus the time its child
    spans cover, minus the hot calls made directly inside it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[PARENT] is not None:
            children.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
    return [
        rec[END] - rec[START] - rec[HOT_S]
        - union_length(children.get(i, ()), rec[START], rec[END])
        for i, rec in enumerate(spans)
    ]


class Tracer:
    """Collects spans and hot-boundary counters while installed."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[list] = []
        # stat -> [calls, total seconds, exclusive seconds, calls that raised]
        self.stats: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.channels: dict[int, object] = {}
        self.missing: list[str] = []
        self.run_id = 0
        self._span_stats: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        # Open frames: [hot child seconds, span child seconds, span index or -1].
        self._stack: list[list] = [[0.0, 0.0, -1]]

    def stat(self, name: str, kind: str) -> list:
        if kind == SPAN:
            self._span_stats.add(name)
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    # --- installing and restoring -------------------------------------------

    def install(self, targets=TARGETS) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        for target in targets:
            found = bindings(target)
            if not found:
                self.missing.append(f"{target.module}.{target.attr}")
            for owner, attr, original in found:
                setattr(owner, attr, self.wrap(target, original))
                self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original back and verify that it is there."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        for owner, attr, original in patches:
            if vars(owner).get(attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} was not restored")

    @property
    def installed(self) -> int:
        return len(self._patches)

    # --- wrappers -------------------------------------------------------------

    def wrap(self, target: Target, fn: Callable) -> Callable:
        if target.kind == SPAN:
            return self._span_wrapper(target, fn)
        return self._hot_wrapper(target, fn)

    def _hot_wrapper(self, target: Target, fn: Callable) -> Callable:
        stack = self._stack
        clock = self.clock
        stat = self.stat(target.stat, HOT)
        observe = target.observe
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, 0.0, -1]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[3] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0] - frame[1]
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def _span_wrapper(self, target: Target, fn: Callable) -> Callable:
        stat = self.stat(target.stat, SPAN)
        observe = target.observe
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec, frame = tracer._open(target.stat)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[3] += 1
                raise
            finally:
                tracer._close(rec, frame, stat)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def _open(self, name: str):
        parent = self._stack[-1][2]
        rec = [name, self.run_id, parent if parent >= 0 else None, 0.0, 0.0, 0.0]
        frame = [0.0, 0.0, len(self.spans)]
        self.spans.append(rec)
        self._stack.append(frame)
        rec[START] = self.clock()
        return rec, frame

    def _close(self, rec, frame, stat) -> None:
        rec[END] = self.clock()
        self._stack.pop()
        rec[HOT_S] = frame[0]
        dt = rec[END] - rec[START]
        self._stack[-1][1] += dt
        stat[0] += 1
        stat[1] += dt

    @contextmanager
    def run(self):
        """Root span around one CLI invocation; harvests channel state."""
        self.run_id += 1
        stat = self.stat(ROOT_SPAN, SPAN)
        rec, frame = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(rec, frame, stat)
            for channel in self.channels.values():
                self.counts["comms.channel.dropped"] += getattr(channel, "dropped", 0)
                self.counts["comms.channel.pending_end"] += getattr(channel, "pending", 0)
            self.channels.clear()

    # --- results --------------------------------------------------------------

    def span_self(self) -> dict[str, float]:
        """Summed self seconds per span name."""
        out: dict[str, float] = {}
        for rec, own in zip(self.spans, self_times(self.spans)):
            out[rec[NAME]] = out.get(rec[NAME], 0.0) + own
        return out

    def layer_self(self) -> dict[str, float]:
        """Summed self seconds per layer, spans and hot boundaries together."""
        parts = dict(self.span_self())
        for name, s in self.stats.items():
            if name not in self._span_stats:
                parts[name] = s[2]
        out: dict[str, float] = {}
        for name, seconds in parts.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def write_spans(self, path: Path) -> None:
        """Write every span as CSV (times in microseconds from the first)."""
        origin = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="ascii", newline="\n") as f:
            f.write("id,parent,run,name,start_us,end_us,hot_us\n")
            for i, rec in enumerate(self.spans):
                parent = "" if rec[PARENT] is None else rec[PARENT]
                f.write(f"{i},{parent},{rec[RUN]},{rec[NAME]},"
                        f"{(rec[START] - origin) * 1e6:.1f},"
                        f"{(rec[END] - origin) * 1e6:.1f},{rec[HOT_S] * 1e6:.1f}\n")
