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

from .errors import (ConditioningError, ConfigError, ConfigObject, ProboError, check_count,
                     check_reals)
from .kernels import (
    DUPLICATE_TOL,
    BaseKernelMatrix,
    KernelSpec,
    build_base_kernel_matrix,
    kernel_matrix,
    _FLOOR,
    _as_points,
    _by_rows,
    _correlation,
    _jittered_cholesky,
    _near_duplicate,
    _sqdist,
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
            raise ConfigError(f"unknown mean form {self.form!r}; choose from {MEAN_FORMS}")
        coeffs = check_reals("coefficients", self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if self.form == "constant-estimated" and coeffs:
            raise ConfigError("constant-estimated mean carries no coefficients")

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

    def validate_for_dimension(self, dim: int, where: str = "") -> None:
        """Reject a mean whose coefficients do not suit dimension dim; where
        prefixes the message."""
        if len(self.coefficients) != self._size(dim):
            raise ConfigError(f"{where}{self.form} mean in dimension {dim} needs "
                              f"{self._size(dim)} coefficients, got {len(self.coefficients)}")

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


def _check_scale(X: np.ndarray, lengthscales, what: str) -> None:
    """Reject the rows X, named what, if the lengthscales scale a coordinate
    past overflow, to a point at distance inf - inf = NaN from itself."""
    bound = np.abs(X).max(axis=0, initial=0.0)
    with np.errstate(over="ignore"):
        overflow = ~np.isfinite(bound / np.asarray(lengthscales))
    if overflow.any():
        raise ConfigError(f"{what}: lengthscales {lengthscales} scale its bound "
                          f"{float(bound[overflow.argmax()])!r} past overflow")


def _training_data(lengthscales, mean: MeanSpec, X, y) -> tuple[np.ndarray, np.ndarray]:
    """Training points and targets as float arrays, checked: at least one
    point, no two within DUPLICATE_TOL, one finite target per point, and a
    mean form and smallest lengthscales that suit the points.  The one
    check of the data that fit_gp and fit_hyperparameters take."""
    X = _as_points(X, len(lengthscales), "training points")
    _check_scale(X, lengthscales, "training points")
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] != X.shape[0]:
        raise ValueError(f"got {X.shape[0]} points but {y.shape[0]} targets")
    if not np.isfinite(y).all():
        raise ValueError("training targets must be finite")
    mean.validate_for_dimension(X.shape[1])
    if X.shape[0] < 1:
        raise ValueError("at least one training point is required")
    d2 = _sqdist(X, X)
    np.fill_diagonal(d2, math.inf)  # a row is no duplicate of itself
    closest = _near_duplicate(d2)
    if closest is not None:
        raise ValueError(f"training inputs contain near-duplicate rows "
                         f"(min pairwise distance {closest:.3e} < {DUPLICATE_TOL:.0e})")
    return X, y


def _cho_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K^-1 b from the lower Cholesky factor L of K: LAPACK potrs, as
    scipy.linalg.cho_solve calls it, without its input checks (L comes from a
    successful factorization and the targets are checked finite)."""
    x, info = dpotrs(L, b, lower=1)
    assert info == 0  # potrs fails only on malformed arguments
    return x


def _solve_terms(L: np.ndarray, y: np.ndarray, ones: np.ndarray, residual: np.ndarray | None):
    """s_k, S_k, beta_hat, the residual y - trend and alpha = K^-1 residual,
    from the Cholesky factor L of K, or None when S_k, beta_hat or alpha is
    not finite, as targets near the double range make them.  residual is
    y - trend for a fixed trend, or None for the estimated constant, whose
    residual is y - beta_hat; ones is np.ones(len(y)).  The caller ignores
    overflow and invalid values."""
    s_k = _cho_solve(L, ones)
    S_k = float(ones @ s_k)
    beta_hat = 0.0
    if residual is None:
        beta_hat = float(s_k @ y) / S_k
        residual = y - beta_hat
    alpha = _cho_solve(L, residual)
    if not (math.isfinite(S_k) and math.isfinite(beta_hat) and np.isfinite(alpha).all()):
        return None
    return s_k, S_k, beta_hat, residual, alpha


def fit_gp(kernel: KernelSpec, mean: MeanSpec, X, y) -> GpModel:
    """Fit the GP: factorize the Gram matrix and cache the prediction terms."""
    X, y = _training_data(kernel.lengthscales, mean, X, y)
    K = build_base_kernel_matrix(kernel, X)
    with np.errstate(over="ignore", invalid="ignore"):
        fixed = None if mean.form == "constant-estimated" else y - mean.values(X)
        terms = _solve_terms(K.cholesky, y, np.ones(len(y)), fixed)
    if terms is None:
        raise ProboError("the GP's solves overflow: S_k, beta_hat or "
                         "K^-1 (y - trend) is not finite")
    s_k, S_k, beta_hat, _, alpha = terms
    # LAPACK's inversion leaves a small left residual L^-1 L - I, which is
    # what bounds the error in L^-1 k_x
    L_inv, info = dtrtri(K.cholesky, lower=1)
    assert info == 0  # a successful Cholesky factor has a positive diagonal
    # entries below 2^-511 on the scale 1 / sqrt(sv) of L^-1 are exact zeros
    # (a bound that is normal, as sv <= 1e300): with the correlation floor of
    # kernel_matrix, each product in dtrmm is then at least sqrt(sv) * tiny,
    # so none takes the slow subnormal path at sv >= 1, and none of the
    # dropped products can reach the variance
    L_inv[np.abs(L_inv) < _FLOOR / math.sqrt(kernel.signal_variance)] = 0.0
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


def _evidence(quad: np.ndarray, diagonals: np.ndarray) -> np.ndarray:
    """Gaussian log marginal likelihoods of the targets under the (jittered)
    priors of several candidates, from each one's residual' K^-1 residual
    and, one row each, the diagonal of its Cholesky factor L of K."""
    logdet = 2.0 * np.log(diagonals).sum(axis=1)
    return -0.5 * quad - 0.5 * logdet - 0.5 * diagonals.shape[1] * math.log(2.0 * math.pi)


#: log-uniform range of the hyperparameter search, for every lengthscale and
#: for the signal variance
SEARCH_RANGE = (1e-2, 1e2)

#: candidates scored at once by the hyperparameter search, so that its
#: (C, n, n) stack of Gram matrices does not grow with the budget
_SEARCH_CHUNK = 64


def _candidate_evidence(kernel: KernelSpec, mean: MeanSpec, X: np.ndarray, y: np.ndarray,
                        ls: np.ndarray, sv: np.ndarray) -> np.ndarray:
    """For each row c of the (C, d) lengthscales ls and the (C,) signal
    variances sv, the log marginal likelihood of fit_gp(replace(kernel,
    lengthscales=ls[c], signal_variance=sv[c]), mean, X, y), bit for bit, or
    -inf where that fit fails to factorize, its solves overflow or its
    likelihood is not finite.  X and y are checked, as fit_gp checks them.

    It takes the path of fit_gp without a KernelSpec or a BaseKernelMatrix:
    one (C, n, n) stack of squared scaled distances, one call of the
    kernels' correlation routine on it and one product with the signal
    variances, then per candidate the kernels' factor routine and fit_gp's
    solves, and one _evidence for the chunk."""
    C, n = ls.shape[0], X.shape[0]
    K = np.empty((C, n, n))
    for k, scaled in zip(K, _by_rows(np.divide, X, ls[:, None, :])):
        k[...] = _sqdist(scaled, scaled)
    _correlation(K.reshape(C * n, n), kernel.family, kernel.power)
    K *= sv[:, None, None]
    quad = np.full(C, math.inf)  # a skipped candidate keeps it, and scores -inf
    diagonals = np.ones((C, n))
    ones = np.ones(n)
    with np.errstate(over="ignore", invalid="ignore"):
        fixed = None if mean.form == "constant-estimated" else y - mean.values(X)
        for c, (gram, variance) in enumerate(zip(K, sv.tolist())):
            try:
                L, _ = _jittered_cholesky(gram, variance, ls[c])
            except ConditioningError:
                continue
            terms = _solve_terms(L, y, ones, fixed)
            if terms is None:
                continue
            _, _, _, residual, alpha = terms
            quad[c] = residual @ alpha
            diagonals[c] = L.diagonal()
    lml = _evidence(quad, diagonals)
    return np.where(np.isfinite(lml), lml, -math.inf)


def fit_hyperparameters(kernel: KernelSpec, mean: MeanSpec, X, y, budget: int,
                        seed=0) -> KernelSpec:
    """Pick kernel hyperparameters by log-uniform random search on the marginal
    likelihood.  Each candidate keeps the family, power and dimension of the
    template kernel and draws its lengthscales, then its signal variance, from
    SEARCH_RANGE.  Returns the best of `budget` candidates, the first on a
    tie; deterministic for a fixed seed.  Candidates that fail to factorize,
    or whose solves or likelihood are not finite, score -inf; if all do, a
    ProboError says so.

    The data are checked once, and all candidates are drawn in one generator
    call, with the bits of one call per lengthscale vector and one per
    signal variance.  Each chunk of _SEARCH_CHUNK candidates is scored by
    one _candidate_evidence; the winner alone becomes a KernelSpec.
    """
    check_count("budget", budget)
    d = kernel.dimension
    X, y = _training_data((SEARCH_RANGE[0],) * d, mean, X, y)
    lo, hi = np.log(SEARCH_RANGE[0]), np.log(SEARCH_RANGE[1])
    draws = np.exp(np.random.default_rng(seed).uniform(lo, hi, size=(budget, d + 1)))
    lml = np.concatenate([_candidate_evidence(kernel, mean, X, y, chunk[:, :d], chunk[:, d])
                          for chunk in (draws[start:start + _SEARCH_CHUNK]
                                        for start in range(0, budget, _SEARCH_CHUNK))])
    best = int(np.argmax(lml))  # the first of the largest
    if lml[best] == -math.inf:
        raise ProboError(f"no usable candidate among {budget} hyperparameter draws: each "
                         "failed to factorize, overflowed its solves or had a non-finite "
                         "likelihood")
    return replace(kernel, lengthscales=tuple(draws[best, :d].tolist()),
                   signal_variance=float(draws[best, d]))
