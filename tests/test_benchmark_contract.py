"""The benchmark client's warm-up, its correctness gate and the entry points
it patches hold on the package as it stands, so a change that breaks any of
them fails here first."""

import importlib
from pathlib import Path

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
