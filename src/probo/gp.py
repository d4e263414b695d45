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
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dpotrs, dtrtri

from .errors import ConditioningError, ConfigObject, check_reals
from .kernels import (
    BaseKernelMatrix,
    KernelSpec,
    build_base_kernel_matrix,
    kernel_matrix,
    _as_points,
    _check_training_points,
)

MEAN_FORMS = (
    "constant-estimated",
    "constant-fixed",
    "linear-fixed",
    "quadratic-fixed",
)


@dataclass(frozen=True)
class MeanSpec(ConfigObject, section="mean"):
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
        coeffs = check_reals("coefficients", self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if self.form == "constant-estimated" and coeffs:
            raise ValueError("constant-estimated mean carries no coefficients")

    def _size(self, dim: int) -> int:
        return {"constant-estimated": 0, "constant-fixed": 1,
                "linear-fixed": 1 + dim, "quadratic-fixed": 1 + 2 * dim}[self.form]

    def broadcast(self, dim: int) -> "MeanSpec":
        """This mean in dimension dim: a one-dimensional mean has each slope
        and each quadratic coefficient repeated dim times, so (c0, a, b)
        becomes (c0, a x dim, b x dim); any other mean comes back unchanged."""
        c = self.coefficients
        if len(c) != self._size(1):
            return self
        return replace(self, coefficients=c[:1] + tuple(t for t in c[1:] for _ in range(dim)))

    def validate_for_dimension(self, dim: int) -> None:
        if len(self.coefficients) != self._size(dim):
            raise ValueError(
                f"{self.form} mean in dimension {dim} needs {self._size(dim)} coefficients, "
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


@dataclass(frozen=True)
class GpModel:
    """Fitted precise GP. Immutable; all solves cached via the Cholesky factor.

    alpha solves K alpha = y - m(X); s_k = K^-1 1 and S_k = 1' K^-1 1 are the
    ordinary-kriging terms reused by the imprecise bounds; beta_hat is the GLS
    constant (0 unless the mean form is constant-estimated).  L_inv is the
    inverse of the Cholesky factor L of K, so predict_batch forms L^-1 k_x
    with one matrix product per batch.
    """

    kernel: KernelSpec
    mean: MeanSpec
    X: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    K: BaseKernelMatrix = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    s_k: np.ndarray = field(repr=False)
    L_inv: np.ndarray = field(repr=False)
    S_k: float = 0.0
    beta_hat: float = 0.0

    def __post_init__(self):
        for arr in (self.X, self.y, self.alpha, self.s_k, self.L_inv):
            arr.flags.writeable = False

    @property
    def dimension(self) -> int:
        return self.X.shape[1]


def _training_data(dim: int, mean: MeanSpec, X, y) -> tuple[np.ndarray, np.ndarray]:
    """Training points and targets as float arrays, checked against each
    other, against the mean form and for near-duplicate points.  The one
    check of the data that fit_gp and fit_hyperparameters take."""
    X = _as_points(X, dim, "training points")
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] != X.shape[0]:
        raise ValueError(f"got {X.shape[0]} points but {y.shape[0]} targets")
    if not np.isfinite(y).all():
        raise ValueError("training targets must be finite")
    mean.validate_for_dimension(dim)
    _check_training_points(X)
    return X, y


def _cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K^-1 b from the lower Cholesky factor L of K: LAPACK potrs, as
    scipy.linalg.cho_solve calls it, without its input checks (L comes from a
    successful factorization and the targets are checked finite)."""
    x, info = dpotrs(L, b, lower=1)
    assert info == 0  # potrs fails only on malformed arguments
    return x


def _solve_terms(L: np.ndarray, mean: MeanSpec, X: np.ndarray, y: np.ndarray):
    """s_k, S_k, beta_hat, the residual y - trend and alpha = K^-1 residual,
    from the Cholesky factor L of K."""
    ones = np.ones(X.shape[0])
    s_k = _cho_solve(L, ones)
    S_k = float(ones @ s_k)
    if mean.form == "constant-estimated":
        beta_hat = float(s_k @ y) / S_k
        residual = y - beta_hat
    else:
        beta_hat = 0.0
        residual = y - mean.values(X)
    return s_k, S_k, beta_hat, residual, _cho_solve(L, residual)


def fit_gp(kernel: KernelSpec, mean: MeanSpec, X, y) -> GpModel:
    """Fit the GP: factorize the Gram matrix and cache the prediction terms."""
    X, y = _training_data(kernel.dimension, mean, X, y)
    K = build_base_kernel_matrix(kernel, X)
    s_k, S_k, beta_hat, _, alpha = _solve_terms(K.cholesky, mean, X, y)
    # LAPACK's inversion leaves a small left residual L^-1 L - I, which is
    # what bounds the error in L^-1 k_x
    L_inv, info = dtrtri(K.cholesky, lower=1)
    assert info == 0  # a successful Cholesky factor has a positive diagonal
    return GpModel(kernel=kernel, mean=mean, X=X.copy(), y=y.copy(), K=K,
                   alpha=alpha, s_k=s_k, L_inv=L_inv, S_k=S_k, beta_hat=beta_hat)


def predict_batch(model: GpModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance at each row of X, vectorized.

    Variance is the conditional variance, plus the trend-estimation
    correction when the constant is estimated, clamped at zero.
    """
    X = _as_points(X, model.dimension, "prediction points")
    Kx = kernel_matrix(model.kernel, model.X, X)  # (n, m)
    estimated = model.mean.form == "constant-estimated"
    mu = (model.beta_hat if estimated else model.mean.values(X)) + Kx.T @ model.alpha
    kriging = 0.0
    if estimated:
        kriging = (1.0 - Kx.T @ model.s_k) ** 2 / model.S_k
    # v' = Kx' L^-T, the product with the cached inverse written over Kx, so
    # that no second (n, m) array is allocated
    v = dtrmm(1.0, model.L_inv, Kx.T, side=1, lower=1, trans_a=1, overwrite_b=1).T
    var = model.kernel.signal_variance - np.einsum("ij,ij->j", v, v) + kriging
    return mu, np.maximum(var, 0.0)


def _evidence(L: np.ndarray, residual: np.ndarray, alpha: np.ndarray) -> float:
    """Gaussian log marginal likelihood of the targets under the (jittered)
    prior, from the Cholesky factor L of K, the residual y - trend and
    alpha = K^-1 residual."""
    quad = float(residual @ alpha)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return -0.5 * quad - 0.5 * logdet - 0.5 * L.shape[0] * math.log(2.0 * math.pi)


#: log-uniform range of the hyperparameter search, for every lengthscale and
#: for the signal variance
SEARCH_RANGE = (1e-2, 1e2)


def fit_hyperparameters(kernel: KernelSpec, mean: MeanSpec, X, y, budget: int,
                        seed=0) -> KernelSpec:
    """Pick kernel hyperparameters by log-uniform random search on the marginal
    likelihood.  Each candidate keeps the family, power and dimension of the
    template kernel and draws its lengthscales, then its signal variance, from
    SEARCH_RANGE.  Returns the best of `budget` candidates; deterministic for
    a fixed seed.  Candidates that fail to factorize are skipped; if all fail,
    the last ConditioningError propagates.

    The data are checked once; each candidate then costs one Gram matrix, its
    jittered Cholesky factor and the solves of fit_gp, scored by _evidence on
    the terms fit_gp(candidate, mean, X, y) would cache.
    """
    if budget < 1:
        raise ValueError("search budget must be at least 1")
    X, y = _training_data(kernel.dimension, mean, X, y)
    rng = np.random.default_rng(seed)

    best_spec, best_lml, last_error = None, -np.inf, None
    lo, hi = np.log(SEARCH_RANGE[0]), np.log(SEARCH_RANGE[1])
    for _ in range(budget):
        ls = tuple(np.exp(rng.uniform(lo, hi, size=kernel.dimension)))
        sv = float(np.exp(rng.uniform(lo, hi)))
        spec = replace(kernel, lengthscales=ls, signal_variance=sv)
        try:
            L = build_base_kernel_matrix(spec, X).cholesky
        except ConditioningError as exc:
            last_error = exc
            continue
        _, _, _, residual, alpha = _solve_terms(L, mean, X, y)
        lml = _evidence(L, residual, alpha)
        if lml > best_lml:
            best_spec, best_lml = spec, lml
    if best_spec is None:
        raise last_error
    return best_spec
