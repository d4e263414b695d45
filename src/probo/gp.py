"""Precise Gaussian-process regression with a constant or fixed polynomial trend.

The constant trend is estimated by generalized least squares,

    beta_hat = (1' K^-1 y) / (1' K^-1 1),

which makes the precise predictor share its central term with the
near-ignorance mean bounds in :mod:`probo.igp`.  Fixed trends (constant,
linear, quadratic) use user-supplied coefficients and plain conditional
variance; the estimated constant uses the ordinary-kriging variance, which
adds the trend-estimation correction (1 - k_x' s_k)^2 / S_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve

from .errors import check_keys
from .kernels import (
    BaseKernelMatrix,
    KernelSpec,
    build_base_kernel_matrix,
    kernel_matrix,
    _as_points,
)

MEAN_FORMS = (
    "constant-estimated",
    "constant-fixed",
    "linear-fixed",
    "quadratic-fixed",
)


@dataclass(frozen=True)
class MeanSpec:
    """Trend of the GP prior.

    constant-estimated carries no coefficients (the constant is fitted by
    GLS).  Fixed forms carry, for input dimension d:

        constant-fixed   1 coefficient   [c0]
        linear-fixed     1 + d           [c0, a_1..a_d]
        quadratic-fixed  1 + 2d          [c0, a_1..a_d, b_1..b_d]

    evaluating to c0 + sum a_i x_i + sum b_i x_i^2 (no cross terms).
    """

    form: str = "constant-estimated"
    coefficients: tuple[float, ...] = ()

    def __post_init__(self):
        if self.form not in MEAN_FORMS:
            raise ValueError(f"unknown mean form {self.form!r}; choose from {MEAN_FORMS}")
        coeffs = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if self.form == "constant-estimated" and coeffs:
            raise ValueError("constant-estimated mean carries no coefficients")

    def coefficient_count(self, dim: int) -> int:
        return {"constant-estimated": 0, "constant-fixed": 1,
                "linear-fixed": 1 + dim, "quadratic-fixed": 1 + 2 * dim}[self.form]

    def validate_for_dimension(self, dim: int) -> None:
        want = self.coefficient_count(dim)
        if len(self.coefficients) != want:
            raise ValueError(
                f"{self.form} mean in dimension {dim} needs {want} coefficients, "
                f"got {len(self.coefficients)}"
            )

    def values(self, X: np.ndarray) -> np.ndarray:
        """Trend values at the rows of X (constant-estimated evaluates to 0 here;
        the fitted constant is applied by the model)."""
        n, dim = X.shape
        if self.form == "constant-estimated":
            return np.zeros(n)
        c = np.asarray(self.coefficients)
        out = np.full(n, c[0])
        if self.form == "linear-fixed":
            out += X @ c[1:]
        elif self.form == "quadratic-fixed":
            out += X @ c[1 : 1 + dim] + (X * X) @ c[1 + dim :]
        return out

    def to_dict(self) -> dict:
        return {"form": self.form, "coefficients": list(self.coefficients)}

    @classmethod
    def from_dict(cls, d: dict) -> "MeanSpec":
        check_keys(d, ("form", "coefficients"), "mean")
        return cls(**d)


@dataclass(frozen=True)
class GpModel:
    """Fitted precise GP. Immutable; all solves cached via the Cholesky factor.

    alpha solves K alpha = y - m(X); s_k = K^-1 1 and S_k = 1' K^-1 1 are the
    ordinary-kriging terms reused by the imprecise bounds; beta_hat is the GLS
    constant (0 unless the mean form is constant-estimated).
    """

    kernel: KernelSpec
    mean: MeanSpec
    X: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    K: BaseKernelMatrix = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    s_k: np.ndarray = field(repr=False)
    S_k: float = 0.0
    beta_hat: float = 0.0

    def __post_init__(self):
        for arr in (self.X, self.y, self.alpha, self.s_k):
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dimension(self) -> int:
        return self.X.shape[1]


def fit_gp(kernel: KernelSpec, mean: MeanSpec, X, y) -> GpModel:
    """Fit the GP: factorize the Gram matrix and cache the prediction terms."""
    X = _as_points(X, kernel.dimension, "training points")
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] != X.shape[0]:
        raise ValueError(f"got {X.shape[0]} points but {y.shape[0]} targets")
    mean.validate_for_dimension(kernel.dimension)

    K = build_base_kernel_matrix(kernel, X)
    ones = np.ones(X.shape[0])
    s_k = cho_solve((K.cholesky, True), ones)
    S_k = float(ones @ s_k)
    if mean.form == "constant-estimated":
        beta_hat = float(s_k @ y) / S_k
        residual = y - beta_hat
    else:
        beta_hat = 0.0
        residual = y - mean.values(X)
    alpha = cho_solve((K.cholesky, True), residual)
    return GpModel(kernel=kernel, mean=mean, X=X.copy(), y=y.copy(), K=K,
                   alpha=alpha, s_k=s_k, S_k=S_k, beta_hat=beta_hat)


def _trend(model: GpModel, X: np.ndarray) -> np.ndarray:
    if model.mean.form == "constant-estimated":
        return np.full(X.shape[0], model.beta_hat)
    return model.mean.values(X)


def predict_batch(model: GpModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at each row of X, vectorized.

    Variance is the conditional variance, plus the trend-estimation
    correction when the constant is estimated, clamped at zero.
    """
    X = _as_points(X, model.dimension, "prediction points")
    Kx = kernel_matrix(model.kernel, model.X, X)  # (n, m)
    mu = _trend(model, X) + Kx.T @ model.alpha
    v = cho_solve((model.K.cholesky, True), Kx)
    var = model.kernel.signal_variance - np.einsum("ij,ij->j", Kx, v)
    if model.mean.form == "constant-estimated":
        var = var + (1.0 - Kx.T @ model.s_k) ** 2 / model.S_k
    return mu, np.maximum(var, 0.0)


def log_marginal_likelihood(model: GpModel) -> float:
    """Gaussian log marginal likelihood of the targets under the (jittered) prior."""
    residual = model.y - _trend(model, model.X)
    quad = float(residual @ cho_solve((model.K.cholesky, True), residual))
    logdet = 2.0 * float(np.sum(np.log(np.diag(model.K.cholesky))))
    return -0.5 * quad - 0.5 * logdet - 0.5 * model.n * math.log(2.0 * math.pi)


def fit_hyperparameters(
    family: str,
    mean: MeanSpec,
    X,
    y,
    budget: int,
    seed=0,
    lengthscale_range: tuple[float, float] = (1e-2, 1e2),
    variance_range: tuple[float, float] = (1e-2, 1e2),
    power: float | None = None,
) -> KernelSpec:
    """Pick kernel hyperparameters by log-uniform random search on the marginal
    likelihood.  Returns the best of `budget` sampled candidates; deterministic
    for a fixed seed.  Candidates that fail to factorize are skipped; if all
    fail, the last factorization error propagates.
    """
    if budget < 1:
        raise ValueError("search budget must be at least 1")
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    dim = X.shape[1]
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    best_spec, best_lml, last_error = None, -np.inf, None
    lo_l, hi_l = np.log(lengthscale_range[0]), np.log(lengthscale_range[1])
    lo_v, hi_v = np.log(variance_range[0]), np.log(variance_range[1])
    for _ in range(budget):
        ls = tuple(np.exp(rng.uniform(lo_l, hi_l, size=dim)))
        sv = float(np.exp(rng.uniform(lo_v, hi_v)))
        spec = KernelSpec(family=family, lengthscales=ls, signal_variance=sv,
                          power=power if family == "power-exponential" else None)
        try:
            lml = log_marginal_likelihood(fit_gp(spec, mean, X, y))
        except Exception as exc:  # conditioning failure for this candidate
            last_error = exc
            continue
        if lml > best_lml:
            best_spec, best_lml = spec, lml
    if best_spec is None:
        raise last_error
    return best_spec
