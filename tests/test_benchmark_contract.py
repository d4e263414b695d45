"""The benchmark client's warm-up, its correctness gate and the entry points
it patches hold on the package as it stands, so a change that breaks any of
them fails here first."""

import importlib
from dataclasses import replace
from pathlib import Path

import probo.bench
from probo.optimizer import FocusSearchConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_warm_up_and_gate_pass(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gate
    import worker

    worker.warm_up()
    assert gate.run_gate(0) == {"predict_oracle": [], "glcb_rho0_is_lcb": []}


def test_every_patch_point_resolves(monkeypatch):
    # a renamed entry point would otherwise only show as a malformed benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from instrument import PATCH_POINTS

    missing = [f"{module}.{attr}" for points in PATCH_POINTS.values()
               for module, attr in points
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_tiny_hyperfit_workload_runs_traced(monkeypatch, tmp_path):
    # the hyperparameter search is reached only through this workload
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import worker
    import workloads

    class TinyHyperfit(workloads.HyperfitRosenbrock):
        def config(self, i):
            return replace(super().config(i), budget=12, hyperparameter_budget=5,
                           infill=FocusSearchConfig(evals_per_round=40, rounds=2,
                                                    restarts=2))

    units, workload = 2, TinyHyperfit(seed=4)
    m = worker.measure_traced(workload, units, tmp_path, None)
    assert m.errors == [] and m.failed_runs == 0
    metrics = {k: v for k, (v, _) in m.metrics.items()}
    assert None not in metrics.values()
    config = workload.config(0)
    adaptive = units * (config.budget - config.n_init)
    assert metrics["gp.fit_hyperparameters.calls"] == adaptive


def test_sensitivity_workload_counts_its_runs_from_the_default_plans(monkeypatch):
    # the workload reads default_sensitivity_plans(functions=..., repetitions=...)
    # and each plan's variants, functions and repetitions
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    # the workload replaces bench's registry lookup; monkeypatch puts it back
    monkeypatch.setattr(probo.bench, "registry_lookup", probo.bench.registry_lookup)
    workload = workloads.SensitivityProtocol(seed=0)
    assert len(workloads.PROTOCOL_FUNCTIONS) == 5
    assert workload.runs_per_unit == 17 * 5 * workloads.PROTOCOL_REPS
