"""Correctness gate run outside the timed region.

Two checks that do not depend on a workload's outputs:

- predict_batch on a fitted model against dense brute-force conditioning
  (np.linalg.inv of the jittered Gram matrix, kernel entries computed here);
- a short GLCB run with rho = 0 gives exactly the trace of LCB.

The workload output checks (monotone incumbents, relative ADs summing to the
number of axes) live with the workloads.
"""

from __future__ import annotations

import numpy as np

import probo.engine
import probo.functions
import probo.gp
from probo.acquisition import AcquisitionSpec
from probo.engine import RunConfig
from probo.gp import MeanSpec
from probo.kernels import KernelSpec

TOL = 1e-8


def _se(A, B, ls, sv):
    d = (A[:, None, :] - B[None, :, :]) / ls
    return sv * np.exp(-0.5 * np.sum(d * d, axis=-1))


def check_predict_oracle(seed: int) -> list[str]:
    rng = np.random.default_rng([seed, 101])
    ls, sv = np.array([0.9, 1.3]), 1.7
    # a jittered grid keeps the Gram matrix well conditioned
    grid = np.stack(np.meshgrid(np.linspace(-2, 2, 4), np.linspace(-2, 2, 3)), -1)
    X = grid.reshape(-1, 2) + rng.uniform(-0.2, 0.2, size=(12, 2))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2 + rng.normal(scale=0.1, size=12)
    P = rng.uniform(-2.5, 2.5, size=(64, 2))
    kernel = KernelSpec(family="squared-exponential", lengthscales=tuple(ls),
                        signal_variance=sv)
    errors = []
    for mean in (MeanSpec(), MeanSpec(form="constant-fixed", coefficients=(0.3,))):
        model = probo.gp.fit_gp(kernel, mean, X, y)
        mu, var = probo.gp.predict_batch(model, P)
        K = _se(X, X, ls, sv) + model.K.jitter * np.eye(len(X))
        k = _se(X, P, ls, sv)
        Kinv = np.linalg.inv(K)
        ones = np.ones(len(X))
        var_o = sv - np.einsum("ij,ik,kj->j", k, Kinv, k)
        if mean.form == "constant-estimated":
            S = ones @ Kinv @ ones
            beta = ones @ Kinv @ y / S
            mu_o = beta + k.T @ Kinv @ (y - beta)
            var_o = var_o + (1.0 - ones @ Kinv @ k) ** 2 / S
        else:
            mu_o = 0.3 + k.T @ Kinv @ (y - 0.3)
        var_o = np.maximum(var_o, 0.0)
        worst = max(np.max(np.abs(mu - mu_o)), np.max(np.abs(var - var_o)))
        if not worst <= TOL:
            errors.append(f"predict_batch ({mean.form}) differs from dense "
                          f"conditioning by {worst:.3e}")
    return errors


def check_glcb_rho0_is_lcb(seed: int) -> list[str]:
    target = probo.functions.registry_lookup("gramacy-lee")
    kernel = KernelSpec(family="squared-exponential", lengthscales=(0.1,))
    traces = {}
    for acq in (AcquisitionSpec(kind="lcb", tau=1.0),
                AcquisitionSpec(kind="glcb", tau=1.0, rho=0.0, c=100.0)):
        config = RunConfig(kernel=kernel, acquisition=acq, n_init=5, budget=12,
                           seed=seed)
        traces[acq.kind] = probo.engine.run(config, target).records
    for a, b in zip(traces["lcb"], traces["glcb"]):
        same = (np.array_equal(a.point, b.point) and a.psi == b.psi
                and a.incumbent == b.incumbent
                and np.array_equal(a.acq_value, b.acq_value, equal_nan=True))
        if not same:
            return [f"GLCB rho=0 leaves the LCB trace at evaluation {a.index}"]
    return []


CHECKS = {
    "predict_oracle": check_predict_oracle,
    "glcb_rho0_is_lcb": check_glcb_rho0_is_lcb,
}


def run_gate(seed: int) -> dict[str, list[str]]:
    """check name -> errors (empty when it passed)."""
    out = {}
    for name, check in CHECKS.items():
        try:
            out[name] = check(seed)
        except Exception as exc:  # a crash is a failed check
            out[name] = [f"{type(exc).__name__}: {exc}"]
    return out
