"""Tests of the benchmark itself (not of probo):

    PYTHONPATH=src python3 -m pytest -q perfbench

They run tiny versions of the workloads, so they take seconds.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from probo.acquisition import AcquisitionSpec  # noqa: E402
from probo.engine import RunConfig  # noqa: E402
from probo.kernels import KernelSpec  # noqa: E402
from probo.optimizer import FocusSearchConfig  # noqa: E402

from instrument import ProboInstrument  # noqa: E402
from tracer import Tracer, layer_self_times  # noqa: E402
from worker import measure, measure_traced  # noqa: E402
from workloads import (  # noqa: E402
    GlcbGramacy,
    SensitivityProtocol,
    SpeedReference,
    UnitResult,
    split_runs,
    unit_seed,
)

TINY_INFILL = FocusSearchConfig(evals_per_round=40, rounds=2, restarts=2)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_synthetic_call_tree():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    # root [0, 10] with children a [1, 4] (child c [2, 3]) and b [5, 9]
    root = tr.begin("client.unit")
    clock.now = 1.0
    a = tr.begin("gp.a")
    clock.now = 2.0
    c = tr.begin("kernels.c")
    clock.now = 3.0
    tr.end(c)
    clock.now = 4.0
    tr.end(a)
    clock.now = 5.0
    b = tr.begin("gp.b")
    clock.now = 9.0
    tr.end(b)
    clock.now = 10.0
    tr.end(root)
    s = tr.summary()
    assert s["client.unit"] == [1, 10.0, 3.0]
    assert s["gp.a"] == [1, 3.0, 2.0]
    assert s["kernels.c"] == [1, 1.0, 1.0]
    assert s["gp.b"] == [1, 4.0, 4.0]
    assert layer_self_times(s) == {"client": 3.0, "gp": 6.0, "kernels": 1.0}
    assert sum(row[2] for row in s.values()) == 10.0


def test_wrapped_call_counts_and_hook_time_are_separate():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def work(x):
        clock.now += 2.0
        return x + 1

    def after(args, kwargs, result, exc):
        clock.now += 0.5
        tr.counts["seen"] += result

    traced = tr.wrap(work, "gp.work", after=after)
    with tr.span("client.unit"):
        assert traced(1) == 2
    s = tr.summary()
    assert s["gp.work"] == [1, 2.0, 2.0]
    assert s["trace.hook"] == [1, 0.5, 0.5]
    assert s["client.unit"][2] == 0.0
    assert tr.counts["seen"] == 2


def test_exceptions_close_spans():
    tr = Tracer()

    def boom():
        raise ValueError("x")

    seen = []
    traced = tr.wrap(boom, "gp.boom", after=lambda a, k, r, e: seen.append(type(e)))
    with pytest.raises(ValueError):
        traced()
    assert seen == [ValueError]
    assert tr.summary()["gp.boom"][0] == 1
    assert tr._stack == []


def test_missing_patch_points_are_absent_not_zero(monkeypatch):
    fake = types.ModuleType("probo_fake_layer")
    monkeypatch.setitem(sys.modules, "probo_fake_layer", fake)
    tr = Tracer()
    assert not tr.patch("probo_fake_layer", "gone", "gp.gone")
    assert not tr.patch("probo_no_such_module", "f", "gp.f")
    assert tr.absent == ["probo_fake_layer.gone", "probo_no_such_module.f"]

    import instrument
    monkeypatch.setitem(instrument.PATCH_POINTS, "igp.mean_width_batch",
                        [("probo_fake_layer", "mean_width_batch")])
    inst = ProboInstrument(Tracer())
    inst.install()
    try:
        m = inst.metrics(inst.tracer.summary(), 0, 0)
    finally:
        inst.uninstall()
    assert "probo_fake_layer.mean_width_batch" in inst.tracer.absent
    assert m["igp.mean_width_batch.calls"] == (None, "count")
    assert m["igp.mean_width_batch.points"] == (None, "count")
    assert m["gp.predict_batch.calls"] == (0, "count")


def test_runs_are_scaled_to_reference_speed():
    nominal = SpeedReference.NOMINAL_S
    # two runs of 3 evaluations (1 initial); the second ran at half speed
    stamps = [("a", 1.0, nominal), ("a", 2.0, nominal), ("a", 4.0, nominal),
              ("a", 8.0, 2 * nominal), ("a", 12.0, 2 * nominal), ("a", 20.0, 2 * nominal)]
    res = UnitResult(planned_runs=2)
    split_runs(0, res, stamps, 0.5, 21.0, budget=3, n_init=1)
    assert res.errors == []
    assert [(run.key, run.seconds, run.intervals) for run in res.runs] == [
        ("a", 3.5, [1.0, 2.0]), ("a", 16.0, [4.0, 8.0])]
    assert [run.speed for run in res.runs] == pytest.approx([1.0, 0.5])
    assert res.runs[1].interval_speeds == pytest.approx([0.5, 0.5])
    assert res.tail_s == 1.0
    bad = UnitResult(planned_runs=1)
    split_runs(0, bad, stamps[:4], 0.0, 9.0, budget=3, n_init=1)
    assert bad.errors and not bad.runs


class TinyGlcb(GlcbGramacy):
    def config(self, i):
        ls = (0.1, 1.0)[i % 2]
        return RunConfig(kernel=KernelSpec(family="squared-exponential", lengthscales=(ls,)),
                         acquisition=AcquisitionSpec(kind="glcb", tau=1.0, rho=1.0, c=100.0),
                         infill=TINY_INFILL, n_init=5, budget=12, seed=unit_seed(self.seed, i))


def test_traced_run_reports_overhead_and_accounts_for_wall(tmp_path):
    m = measure_traced(TinyGlcb(seed=3), 2, tmp_path, tmp_path / "spans.csv")
    assert m.errors == [] and m.failed_runs == 0
    metrics = {k: v for k, (v, _) in m.metrics.items()}
    assert None not in metrics.values()
    wall = metrics["trace.wall_s"]
    # tracing overhead is traced wall minus the untraced wall of the same units
    assert metrics["trace.overhead_s"] == pytest.approx(wall - m.detail["untraced_wall_s"])
    # layer self times, engine's included, plus the client and hook spans
    # add up to the traced wall time
    parts = ("kernels.self_s", "gp.self_s", "igp.self_s", "acquisition.self_s",
             "optimizer.focus_search.self_s", "engine.self_s", "functions.evaluate.self_s",
             "bench.self_s", "cli.self_s", "client.self_s", "trace.hook_s")
    assert sum(metrics[p] for p in parts) == pytest.approx(wall, rel=0.01)
    assert abs(metrics["trace.unaccounted_s"]) <= 0.01 * wall
    assert metrics["kernels.kernel_matrix.repeat_frac"] == 0.5
    assert (tmp_path / "spans.csv").is_file()


def test_untraced_run_is_deterministic(tmp_path):
    a = measure(TinyGlcb(seed=5), 2, 0, tmp_path / "a")
    b = measure(TinyGlcb(seed=5), 2, 0, tmp_path / "b")
    assert a.errors == [] and a.failed_runs == 0
    assert a.detail["digest"] == b.detail["digest"]
    assert a.detail["exact_counts"] == b.detail["exact_counts"]
    assert a.detail["final_best_mean"] == b.detail["final_best_mean"]
    assert a.metrics["iters_per_s"][0] > 0


class TinyProtocol(SensitivityProtocol):
    def argv(self, i, out):
        return ["sensitivity", "--functions", "sphere-2d",
                "--override", "reps=1", "--override", "iterations=2",
                "--override", "n_init=10",
                "--override", "infill.evals_per_round=20",
                "--override", "infill.rounds=2", "--override", "infill.restarts=1",
                "--seed", str(unit_seed(self.seed, i)), "--jobs", "1", "--out", str(out)]


def test_protocol_counts_duplicate_jobs_and_output(tmp_path):
    wl = TinyProtocol(seed=2)
    wl.runs_per_unit, wl.budget = 17, 12  # one function, two iterations
    m = measure_traced(wl, 1, tmp_path, None)
    assert m.errors == [] and m.failed_runs == 0
    metrics = {k: v for k, (v, _) in m.metrics.items()}
    assert metrics["bench.jobs"] == 17
    assert metrics["bench.duplicate_job_frac"] == pytest.approx(3 / 17)
    assert metrics["kernels.kernel_matrix.repeat_frac"] == 0.0
    assert metrics["cli.files_written"] > 17
    assert metrics["igp.mean_width_batch.calls"] == 0
