"""Tests of the benchmark's own logic: span arithmetic, the percentile rule,
reference seconds, seeded input generation, and that tracing the real
program leaves it as it found it."""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import ssadvae  # noqa: E402
import ssadvae.cli  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    own = tracing.self_times(starts, ends, parents)
    np.testing.assert_allclose(own, [3.0, 2.0, 1.0, 4.0])
    assert own.sum() == pytest.approx(10.0)  # self times tile the root


def _probe(starts, durations):
    probe = speed.SpeedProbe()
    probe.starts.extend(starts)
    probe.durations.extend(durations)
    return probe


def test_reference_seconds_take_out_kernels_and_scale_by_their_speed():
    ref = speed.REFERENCE_S
    # 20 kernels inside [0, 1], each twice the reference time
    probe = _probe([0.05 * i for i in range(20)], [2 * ref] * 20)
    own = 1.0 - 20 * 2 * ref
    assert probe.factor(0.0, 1.0) == pytest.approx(0.5)
    assert probe.seconds(0.0, 1.0) == pytest.approx(own * 0.5)
    # a host at the reference speed gives the interval's own time back
    same = _probe([0.05 * i for i in range(20)], [ref] * 20)
    assert same.seconds(0.0, 1.0) == pytest.approx(1.0 - 20 * ref)


def test_short_interval_uses_its_nearest_kernels():
    ref = speed.REFERENCE_S
    starts = [0.1 * i for i in range(40)]
    durations = [ref] * 20 + [4 * ref] * 20  # the host slows at t = 2
    probe = _probe(starts, durations)
    # no kernel inside [3.01, 3.05]: the ten nearest all ran slow
    assert probe.factor(3.01, 3.05) == pytest.approx(0.25)
    assert probe.seconds(3.01, 3.05) == pytest.approx(0.04 * 0.25)
    # before the first kernel: the first ten, all at the reference speed
    assert probe.factor(-1.0, -0.5) == pytest.approx(1.0)
    with pytest.raises(RuntimeError):
        _probe([], []).factor(0.0, 1.0)


def test_wall_clock_is_plain_wall_seconds():
    clock = speed.WallClock()
    assert clock.seconds(2.0, 3.5) == 1.5 and clock.factor(0.0, 1.0) == 1.0
    with clock.paused():
        pass


def test_tracer_records_nesting_and_restores_attributes():
    class Owner:
        pass

    def leaf(x):
        return x + 1

    def outer(x):
        return Owner.leaf(x) * 2

    Owner.leaf, Owner.outer = leaf, outer
    tracer = tracing.Tracer()
    patcher = tracing.Patcher()
    patcher.wrap(Owner, "leaf", lambda fn: tracer.traced("leaf", fn))
    patcher.wrap(Owner, "outer", lambda fn: tracer.traced("outer", fn))
    try:
        assert Owner.outer(1) == 4
        assert Owner.leaf(5) == 6
    finally:
        patcher.restore()
    assert Owner.leaf is leaf and Owner.outer is outer
    spans = tracer.arrays()
    assert [spans["names"][i] for i in spans["name_ids"]] == ["outer", "leaf", "leaf"]
    assert list(spans["parents"]) == [-1, 0, -1]
    own = tracing.self_times(spans["starts"], spans["ends"], spans["parents"])
    assert own[0] == pytest.approx((spans["ends"] - spans["starts"])[0] - own[1])
    assert (own >= 0).all()


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50), (99, 50), (100, 90), (999, 90),
    (1000, 99), (9999, 99), (10000, 99.9), (15000, 99.9)])
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert tracing.highest_percentile(n) == expected


def test_normal_steps_pair_each_forward_with_the_next_backward_and_adam():
    # two steps: forward, backward, adam; durations 1+2+3 and 4+5+6
    starts = np.array([0.0, 1.0, 3.0, 6.0, 10.0, 15.0])
    dur = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    ms = tracing.normal_step_ms(starts, dur, np.array([0, 3]),
                                np.array([1, 4]), np.array([2, 5]))
    np.testing.assert_allclose(ms, [6000.0, 15000.0])


def test_inside_matches_spans_to_enclosing_outer_spans():
    starts, ends = np.array([0.5, 2.5, 3.5, 6.0]), np.array([0.8, 2.9, 4.5, 6.5])
    mask = tracing.inside(starts, ends, np.array([0.0, 2.0]), np.array([1.0, 4.0]))
    assert list(mask) == [True, True, False, False]
    assert not tracing.inside(starts, ends, np.zeros(0), np.zeros(0)).any()


def _inputs(work, name, seed):
    work.mkdir()
    plan = workloads.WORKLOADS[name].prepare(work, seed)
    files = {p.name: p.read_bytes() for p in sorted(work.glob("*.csv"))}
    argv = [[a.replace(str(work), "<work>") for a in inv.argv]
            for inv in plan.setup + plan.cycle]
    return files, argv


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_change_with_it(tmp_path, name):
    files, argv = _inputs(tmp_path / "a", name, 7)
    assert _inputs(tmp_path / "b", name, 7) == (files, argv)
    other_files, other_argv = _inputs(tmp_path / "c", name, 8)
    if files:
        assert all(other_files[k] != v for k, v in files.items())
    assert other_argv != argv


def test_tabular_inputs_have_the_requested_shape():
    x, y = workloads.tabular(3, 1, 21, 90, 10)
    assert x.shape == (100, 21) and y.sum() == 10
    assert np.isfinite(x).all()


def test_traced_command_yields_every_declared_per_layer_metric(tmp_path):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]}
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("warmup_epochs = 2\nanneal_epochs = 1\n", encoding="utf-8")
    before = {name: getattr(ssadvae.gradcore, name) for name in tracing.GRADCORE_OPS}
    main_before = ssadvae.cli.main
    tracer = tracing.Tracer()
    tracer.install(ssadvae)
    try:
        code = ssadvae.cli.main(
            ["benchmark", "--synth", "4,120,3.0", "--method", "mml",
             "--config", str(cfg), "--epochs", "4", "--ensemble", "2",
             "--widths", "8,4,2", "--seeds", "0", "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert ssadvae.cli.main is main_before
    assert all(getattr(ssadvae.gradcore, n) is f for n, f in before.items())
    metrics = tracing.summarize(tracer.arrays(), tracer.counters)
    metrics["trace_overhead_frac"] = 0.0
    assert set(metrics) == names
    assert metrics["trainer.step_ms.n"] > 0
    assert metrics["gradcore.op_calls_per_step"] > 0
    assert metrics["gradcore.backward.calls"] == metrics["trainer.adam_step.calls"]
    assert metrics["trainer.step_ms.p99"] == 0.0  # too few steps for p99
