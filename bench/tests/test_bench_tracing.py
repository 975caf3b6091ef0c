"""Self-time arithmetic, wrapper restore, and wrapper transparency."""

import importlib
from pathlib import Path

import pytest

import tracing
from tracing import HOT, SPAN, Target, Tracer, self_times, union_length


def _span(name, parent, start, end, hot=0.0):
    return [name, 1, parent, start, end, hot]


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)
    assert union_length([(2, 3), (1, 5)], 0, 10) == pytest.approx(4.0)
    assert union_length([], 0, 10) == 0.0


def test_self_time_is_duration_minus_children_and_hot_calls():
    spans = [
        _span("root", None, 0.0, 10.0, hot=1.0),
        _span("a", 0, 1.0, 4.0),
        _span("b", 0, 3.0, 6.0, hot=0.5),   # overlaps a: union of a and b is 5
        _span("c", 0, 8.0, 9.0),
        _span("a1", 1, 2.0, 3.0),
    ]
    assert self_times(spans) == pytest.approx([10 - 1 - 6, 3 - 1, 3 - 0.5, 1, 1])


def test_self_times_of_a_live_tree_add_up_to_the_root():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    def inner(x):
        return hot(hot(x))

    hot = tracer.wrap(Target("m", "leaf", "layer.leaf", HOT), leaf)
    span = tracer.wrap(Target("m", "inner", "layer.inner", SPAN), inner)
    with tracer.run():
        assert span(1) == 3
        assert hot(0) == 1
    assert tracer.stats["layer.leaf"][0] == 3
    root = tracer.spans[0]
    total = sum(tracer.layer_self().values())
    assert total == pytest.approx(root[tracing.END] - root[tracing.START], abs=1e-9)


def test_hot_call_that_raises_is_counted():
    tracer = Tracer()

    def fails():
        raise KeyError("x")

    wrapped = tracer.wrap(Target("m", "fails", "layer.fails", HOT), fails)
    with pytest.raises(KeyError):
        wrapped()
    assert tracer.stats["layer.fails"][0] == 1
    assert tracer.stats["layer.fails"][3] == 1


def _all_bindings():
    return {(id(owner), attr): original
            for target in tracing.TARGETS
            for owner, attr, original in tracing.bindings(target)}


def test_restore_puts_every_original_back():
    importlib.import_module("swarmsim.cli.main")
    before = _all_bindings()
    comms = importlib.import_module("swarmsim.comms")
    runner = importlib.import_module("swarmsim.cli.runner")
    swarm = importlib.import_module("swarmsim.swarm")
    original = comms.encode_frame
    tracer = Tracer()
    tracer.install()
    try:
        assert not tracer.missing
        for module in (comms, runner, swarm):
            assert module.encode_frame is not original
    finally:
        tracer.restore()
    for module in (comms, runner, swarm):
        assert module.encode_frame is original
    assert _all_bindings() == before
    assert tracer.installed == 0


def test_traced_run_writes_the_same_bytes(tmp_path, capsys):
    from swarmsim.cli.main import main
    from run import digest_dir
    from workloads import WORKLOADS, make_runs

    root = Path(__file__).resolve().parents[2]
    inv = make_runs(WORKLOADS["plan_survey"], 3)[0][0]
    assert main(inv.argv(root) + ["--out", str(tmp_path / "plain")]) == 0
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.run():
            assert main(inv.argv(root) + ["--out", str(tmp_path / "traced")]) == 0
    finally:
        tracer.restore()
    assert digest_dir(tmp_path / "plain") == digest_dir(tmp_path / "traced")
    assert tracer.stats["plan.ingest"][0] > 0
    assert tracer.counts["plan.astar.expanded"] > 0
