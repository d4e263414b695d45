"""The benchmark client's warm-up and its correctness gate run on the package
as it stands, so a change that breaks either fails here first."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_warm_up_and_gate_pass(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gate
    import worker

    worker.warm_up()
    assert gate.run_gate(0) == {"predict_oracle": [], "glcb_rho0_is_lcb": []}
