"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
from calibrate import REFERENCE_S, Calibrator
from spans import Span, Target, Tracer, self_times
from workloads import LAYERS, POINTS, WORKLOADS

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def rs():
    reupsim = run.load_program()
    import reupsim.config
    import reupsim.costs
    import reupsim.ga
    import reupsim.trace
    import reupsim.trainers
    return reupsim


def test_self_time_subtracts_children_and_their_overlap():
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 3.0, 0, 1),
        Span("b", 4.0, 7.0, 0, 1),
        Span("b.inner", 5.0, 6.0, 2, 1),
        Span("c", 6.5, 8.0, 0, 1),       # overlaps b: the union is what counts
    ]
    assert self_times(spans) == pytest.approx([10.0 - 6.0, 2.0, 2.0, 1.0, 1.5])


def test_self_times_sum_to_the_root_duration_when_children_nest():
    spans = [Span("root", 0.0, 4.0, None, 1), Span("x", 0.5, 2.5, 0, 1),
             Span("y", 1.0, 2.0, 1, 1), Span("z", 3.0, 3.5, 0, 1)]
    assert sum(self_times(spans)) == pytest.approx(4.0)


def test_split_ops_rebases_parents():
    spans = [Span("r", 0, 1, None, 1), Span("r", 2, 5, None, 2), Span("c", 3, 4, 1, 2)]
    by_op = run.split_ops(spans)
    assert [s.parent for s in by_op[2]] == [None, 0]
    assert self_times(by_op[2]) == pytest.approx([2.0, 1.0])


def test_tail_leaves_ten_samples_above_and_is_not_below_the_median():
    assert run.tail([float(i) for i in range(50)]) == (80, 39.0)
    for n in range(run.MIN_OPS, 200):
        samples = [float(i) for i in range(n)]
        _, value = run.tail(samples)
        assert sum(s > value for s in samples) >= run.TAIL_BEYOND
        assert value >= statistics.median(samples)
    with pytest.raises(ValueError):
        run.tail([1.0] * run.TAIL_BEYOND)


def test_calibration_scales_by_the_mean_kernel_time_around_the_call(monkeypatch):
    cal = Calibrator()
    kernel = iter([0.002, 0.006])
    monkeypatch.setattr(cal, "kernel_s", lambda: next(kernel))
    result, factor = cal.around(lambda: "done")
    assert result == "done"
    assert factor == pytest.approx(REFERENCE_S / 0.004)
    assert Calibrator().kernel_s() > 0


class _Owner:
    def method(self, x):
        return x + 1

    @classmethod
    def make(cls, x):
        return (cls, x)


def test_wrappers_record_nested_spans_and_restore_originals():
    module = types.SimpleNamespace()
    module.__dict__["outer"] = lambda f, x: f(x) * 2
    before = {k: _Owner.__dict__[k] for k in ("method", "make")}
    tracer = Tracer([Target(module, "outer", "outer"),
                     Target(_Owner, "method", "method", note=lambda a, k: a[1]),
                     Target(_Owner, "make", "make")])
    tracer.install()
    assert not tracer.restored()
    assert module.outer(_Owner().method, 1) == 4
    assert _Owner.make(3) == (_Owner, 3)
    tracer.restore()
    assert tracer.restored()
    assert all(_Owner.__dict__[k] is v for k, v in before.items())
    names = [(s.name, s.parent, s.note) for s in tracer.spans]
    assert names == [("outer", None, None), ("method", 0, 1), ("make", None, None)]


def test_every_target_is_installed_and_restored(rs):
    tracer = Tracer(run.targets(rs))
    before = [t.owner.__dict__[t.attr] for t in tracer.targets]
    tracer.install()
    try:
        assert all(t.owner.__dict__[t.attr] is not b
                   for t, b in zip(tracer.targets, before))
    finally:
        tracer.restore()
    assert all(t.owner.__dict__[t.attr] is b for t, b in zip(tracer.targets, before))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_configs_resolve_as_described(rs, name):
    workload = WORKLOADS[name]
    cfg = rs.config.ExperimentConfig.from_mapping(workload.raw_config(7))
    assert (cfg.circuit.ansatz.value, cfg.circuit.layers) == ("2C", LAYERS)
    assert cfg.cost.value == "cross_entropy" and cfg.workers == 1
    assert cfg.dataset["n"] == POINTS and cfg.dataset["source"] == "generate"
    assert cfg.backend["kind"] == ("noisy" if workload.noisy else "ideal")
    if workload.noisy:
        noise = rs.backend.NoiseModel.from_config(cfg.backend["noise"])
        assert (noise.confusion, noise.shots, noise.residual_sigma) == (
            rs.backend.DEFAULT_CONFUSION, 150, 0.006)
    for key, value in workload.optimizer.items():
        resolved = cfg.optimizer[key]
        assert resolved == value or resolved == {**resolved, **value}
    assert cfg.optimizer.get("target_accuracy") is None
    assert cfg.optimizer.get("max_estimates") is None


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", ["ga-ideal", "sgd-shift-noisy"])
def test_closed_form_estimates_on_a_tiny_op(rs, tmp_path, name):
    bench = run.Bench(rs, WORKLOADS[name], 5, tmp_path)
    bench.config = bench._write_config("tiny.yaml", bench.workload.raw_config(5, 2))
    bench.op()
    final = rs.trace.TrainingTrace.read_csv(bench.out / "trace.csv").final
    bench.check_final(final, 2)
    assert final.cum_estimates == WORKLOADS[name].expected_estimates(2)
    with pytest.raises(run.CheckFailed):
        bench.check_final(final, 3)


def test_traced_op_counts_match_the_op(rs, tmp_path):
    bench = run.Bench(rs, WORKLOADS["ga-ideal"], 5, tmp_path)
    bench.config = bench._write_config("tiny.yaml", bench.workload.raw_config(5, 1))
    bench.op()
    untraced = bench.digests()
    tracer = Tracer(run.targets(rs))
    tracer.install()
    try:
        bench.op(lambda main, argv: tracer.span(run.ROOT_SPAN, main, argv))
    finally:
        tracer.restore()
    assert bench.digests() == untraced
    final = rs.trace.TrainingTrace.read_csv(bench.out / "trace.csv").final
    m = run.op_layer_metrics(tracer.spans, self_times(tracer.spans), final,
                             bench.workload)
    assert m["circuits.measure_batch.calls"] == 100
    assert m["circuits.measure_batch.points"] == 100 * POINTS
    assert m["backend.sample.estimates"] == final.cum_estimates == 100 * POINTS
    assert m["ga.generations"] == 1
    assert m["tracing.self_sum_s"] == pytest.approx(tracer.spans[0].duration)
    per_layer = {p["name"] for p in SPEC["per_layer"]}
    assert set(m) <= per_layer


def _result(args, cwd):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, text=True,
                          capture_output=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_one_short_run_prints_every_metric_of_its_kind(trace, kind):
    proc, lines = _result(["--workload", "bfgs-analytic-ideal", "--seed", "2",
                           "--seconds", "0.2", "--trace", str(trace)], BENCH.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc, lines = _result(["--workload", "ga-ideal", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
