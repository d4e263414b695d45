"""Stationary covariance kernels and the base kernel matrix.

All families are functions of the scaled Euclidean distance

    d(x, x') = sqrt( sum_i ((x_i - x'_i) / l_i)^2 )

with one lengthscale l_i per input dimension and a common signal variance:

    squared-exponential   sv * exp(-d^2 / 2)
    power-exponential     sv * exp(-d^p / 2),  p in (0, 2]
    matern-3/2            sv * (1 + sqrt(3) d) * exp(-sqrt(3) d)
    matern-5/2            sv * (1 + sqrt(5) d + 5 d^2 / 3) * exp(-sqrt(5) d)

power-exponential with p = 2 is exactly the squared-exponential.  Targets are
treated as noiseless, so the Gram matrix carries no nugget term; a small
diagonal jitter is added for numerical factorization only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cholesky as _cholesky
from scipy.linalg import LinAlgError

from .errors import ConditioningError, ConfigError, DimensionMismatchError, check_keys

FAMILIES = (
    "squared-exponential",
    "power-exponential",
    "matern-3/2",
    "matern-5/2",
)

#: Jitter starts at JITTER_INITIAL * signal_variance and escalates tenfold
#: up to JITTER_MAX * signal_variance before giving up.
JITTER_INITIAL = 1e-10
JITTER_MAX = 1e-6

#: Training inputs closer than this (Euclidean) are rejected as duplicates;
#: the optimization loop nudges proposals that come this close to the design.
DUPLICATE_TOL = 1e-10


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus hyperparameters.

    lengthscales has one strictly positive entry per input dimension;
    power is required for the power-exponential family and must stay in
    (0, 2] (it is rejected for every other family).
    """

    family: str
    lengthscales: tuple[float, ...]
    signal_variance: float = 1.0
    power: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; choose from {FAMILIES}"
            )
        ls = tuple(float(l) for l in np.atleast_1d(self.lengthscales))
        if len(ls) == 0:
            raise ValueError("at least one lengthscale is required")
        if any(not math.isfinite(l) or l <= 0.0 for l in ls):
            raise ValueError(f"lengthscales must be strictly positive, got {ls}")
        object.__setattr__(self, "lengthscales", ls)
        sv = float(self.signal_variance)
        if not math.isfinite(sv) or sv <= 0.0:
            raise ValueError(f"signal_variance must be strictly positive, got {sv}")
        object.__setattr__(self, "signal_variance", sv)
        if self.family == "power-exponential":
            if self.power is None:
                raise ValueError("power-exponential requires a power exponent")
            p = float(self.power)
            if not 0.0 < p <= 2.0:
                raise ValueError(f"power exponent must lie in (0, 2], got {p}")
            object.__setattr__(self, "power", p)
        elif self.power is not None:
            raise ValueError(f"{self.family} takes no power exponent")

    @property
    def dimension(self) -> int:
        return len(self.lengthscales)

    def to_dict(self) -> dict:
        d = {
            "family": self.family,
            "lengthscales": list(self.lengthscales),
            "signal_variance": self.signal_variance,
        }
        if self.power is not None:
            d["power"] = self.power
        return d

    @classmethod
    def from_dict(cls, d: dict, dim: int | None = None) -> "KernelSpec":
        """Build from a config mapping.  family defaults to squared-exponential
        and the lengthscales to 1; "lengthscale" is an alias of
        "lengthscales", and a single value is repeated dim times."""
        check_keys(d, ("family", "lengthscales", "lengthscale", "signal_variance",
                       "power"), "kernel")
        if "lengthscale" in d and "lengthscales" in d:
            raise ConfigError("give kernel lengthscale or lengthscales, not both")
        ls = np.atleast_1d(np.asarray(d.get("lengthscales", d.get("lengthscale", 1.0)),
                                      dtype=float))
        if dim is not None and ls.size == 1:
            ls = np.full(dim, ls[0])
        return cls(family=d.get("family", "squared-exponential"), lengthscales=tuple(ls),
                   signal_variance=d.get("signal_variance", 1.0), power=d.get("power"))


@dataclass(frozen=True)
class BaseKernelMatrix:
    """Gram matrix of the training inputs with its Cholesky factor.

    jitter is the value actually added to the diagonal before the stored
    factorization succeeded; matrix holds the jittered Gram matrix.
    """

    matrix: np.ndarray
    jitter: float
    cholesky: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.matrix.flags.writeable = False
        self.cholesky.flags.writeable = False

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _as_points(X, dim: int, what: str) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, dim) if dim == 1 else X.reshape(1, -1)
    if X.ndim != 2 or X.shape[1] != dim:
        raise DimensionMismatchError(dim, X.shape[-1], what)
    return X


def _scaled_sqdist(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    ls = np.asarray(spec.lengthscales)
    diff = A[:, None, :] / ls - B[None, :, :] / ls
    return np.einsum("ijk,ijk->ij", diff, diff)


def kernel_matrix(spec: KernelSpec, A, B) -> np.ndarray:
    """Covariance matrix k(a_i, b_j) for two point sets, shape (len(A), len(B))."""
    A = _as_points(A, spec.dimension, "first point set")
    B = _as_points(B, spec.dimension, "second point set")
    d2 = _scaled_sqdist(spec, A, B)
    sv = spec.signal_variance
    if spec.family == "squared-exponential":
        return sv * np.exp(-0.5 * d2)
    if spec.family == "power-exponential":
        d = np.sqrt(d2)
        return sv * np.exp(-0.5 * d**spec.power)
    d = np.sqrt(d2)
    if spec.family == "matern-3/2":
        a = math.sqrt(3.0) * d
        return sv * (1.0 + a) * np.exp(-a)
    # matern-5/2
    a = math.sqrt(5.0) * d
    return sv * (1.0 + a + a * a / 3.0) * np.exp(-a)


def _check_duplicates(X: np.ndarray) -> None:
    if X.shape[0] < 2:
        return
    diff = X[:, None, :] - X[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    iu = np.triu_indices(X.shape[0], k=1)
    closest = dist[iu].min()
    if closest < DUPLICATE_TOL:
        raise ValueError(
            f"training inputs contain near-duplicate rows "
            f"(min pairwise distance {closest:.3e} < {DUPLICATE_TOL:.0e})"
        )


def build_base_kernel_matrix(spec: KernelSpec, X) -> BaseKernelMatrix:
    """Gram matrix over the training inputs, jittered until it factorizes.

    Jitter escalates tenfold from 1e-10 * sv to 1e-6 * sv; if the Cholesky
    factorization still fails the conditioning problem is reported.
    """
    X = _as_points(X, spec.dimension, "training points")
    if X.shape[0] < 1:
        raise ValueError("at least one training point is required")
    _check_duplicates(X)
    K = kernel_matrix(spec, X, X)
    # construction is exactly symmetric; guard against regressions anyway
    assert np.max(np.abs(K - K.T)) <= 1e-12
    jitter = JITTER_INITIAL * spec.signal_variance
    jitter_cap = JITTER_MAX * spec.signal_variance
    while True:
        try:
            L = _cholesky(K + jitter * np.eye(K.shape[0]), lower=True)
            return BaseKernelMatrix(
                matrix=K + jitter * np.eye(K.shape[0]), jitter=jitter, cholesky=L
            )
        except LinAlgError:
            if jitter >= jitter_cap:
                raise ConditioningError(
                    f"kernel matrix is not positive definite even with jitter "
                    f"{jitter:.3e}; inputs are too close relative to the "
                    f"lengthscales {spec.lengthscales}",
                    jitter=jitter,
                ) from None
            jitter *= 10.0
