"""Reference formulas that only the tests need.

oracle_predict conditions a GP at one point by dense inversion; set_bounds
gives both bounds of the near-ignorance posterior mean set, of which the
library scores only the width; log_marginal_likelihood scores a fitted
model with the arithmetic of the hyperparameter search (gp._evidence).
"""

import math

import numpy as np

from probo.kernels import kernel_matrix


def oracle_predict(spec, mean, X, y, x):
    """Dense-inverse Gaussian conditioning at one point x.

    Estimated-constant trend uses the GLS constant; its variance carries the
    trend-estimation correction.  Only the kernel entries come from the
    package; the solve paths of predict_batch are not used.
    """
    n = len(X)
    x = np.asarray(x, dtype=float)
    K = kernel_matrix(spec, X, X)
    kx = kernel_matrix(spec, X, x[None, :])[:, 0]
    kxx = kernel_matrix(spec, x[None, :], x[None, :])[0, 0]
    Kinv = np.linalg.inv(K)
    ones = np.ones(n)
    if mean.form == "constant-estimated":
        S = ones @ Kinv @ ones
        beta = (ones @ Kinv @ y) / S
        mu = beta + kx @ Kinv @ (y - beta * ones)
        var = kxx - kx @ Kinv @ kx + (1 - kx @ Kinv @ ones) ** 2 / S
    else:
        mX = mean.values(np.asarray(X, dtype=float))
        mu = mean.values(np.asarray(x, dtype=float)[None, :])[0] + kx @ Kinv @ (y - mX)
        var = kxx - kx @ Kinv @ kx
    return float(mu), float(max(var, 0.0))


def set_bounds(spec, X):
    """Lower and upper posterior mean of the near-ignorance set at each row of X.

    Brute force over the set: the Gram matrix (with the model's jitter) is
    inverted densely, and each prior mean beta ~ N(M h, (1 + M) / c) is
    conditioned on the targets in information form (prior precision
    t = c / (1 + M)), for h = +/-1 and M in {0} U logspace(-6, 12) U {inf};
    the M -> inf member is taken exactly, with t = 0 and M t = c.
    """
    m = spec.model
    X = np.asarray(X, dtype=float).reshape(-1, m.dimension)
    n = len(m.X)
    Kinv = np.linalg.inv(kernel_matrix(m.kernel, m.X, m.X) + m.K.jitter * np.eye(n))
    Kx = kernel_matrix(m.kernel, m.X, X)
    ones = np.ones(n)
    means = []
    for M in (0.0, *np.logspace(-6, 12, 181), np.inf):
        t, Mt = (0.0, spec.c) if M == np.inf else (spec.c / (1 + M), M * spec.c / (1 + M))
        for h in (1.0, -1.0):
            beta = (ones @ Kinv @ m.y + h * Mt) / (ones @ Kinv @ ones + t)
            means.append(beta + Kx.T @ (Kinv @ (m.y - beta * ones)))
    return np.min(means, axis=0), np.max(means, axis=0)


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
