"""Reference formulas that only the tests need.

mean_bounds gives both near-ignorance posterior mean bounds, of which the
library scores only the width; log_marginal_likelihood scores a fitted
model with the arithmetic of the hyperparameter search (gp._evidence).
"""

import math

import numpy as np
from scipy.linalg import cho_solve

from probo.kernels import kernel_matrix


def mean_bounds(spec, X):
    """Lower and upper posterior mean at each row of X.

    Where the case-2 formulas cross (upper < lower), both bounds collapse to
    their midpoint, so upper - lower is the width mean_width_batch reports.
    """
    m = spec.model
    Kx = kernel_matrix(m.kernel, m.X, X)
    one_minus = 1.0 - m.s_k @ Kx
    ky = cho_solve((m.K.cholesky, True), m.y) @ Kx  # k_x' K^-1 y
    sy = float(m.s_k @ m.y)
    if spec.case == 1:
        central = ky + one_minus * sy / m.S_k
        half = spec.c * np.abs(one_minus) / m.S_k
        return central - half, central + half
    upper = ky + one_minus * sy / m.S_k + spec.c * one_minus / m.S_k
    lower = ky + one_minus * sy / (spec.c + m.S_k)
    crossed = upper < lower
    mid = 0.5 * (lower + upper)
    return np.where(crossed, mid, lower), np.where(crossed, mid, upper)


def log_marginal_likelihood(model):
    """Gaussian log marginal likelihood of the targets under the (jittered) prior."""
    if model.mean.form == "constant-estimated":
        residual = model.y - np.full(len(model.X), model.beta_hat)
    else:
        residual = model.y - model.mean.values(model.X)
    L = model.K.cholesky
    quad = float(residual @ model.alpha)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return -0.5 * quad - 0.5 * logdet - 0.5 * L.shape[0] * math.log(2.0 * math.pi)
