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

Entries too small for a normal double are exact zeros.  exp is evaluated
only where its result is at least numpy.finfo(float).tiny and is taken as 0
elsewhere, and an entry whose value falls below tiny is returned as 0; every
other entry matches the formulas above bit for bit.  Short lengthscales put
many scaled distances past that point, and subnormal lanes take a slow path
through exp and every product that follows.  Only batches whose largest
distance can reach it pay for the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf

from .errors import (ConditioningError, ConfigError, ConfigObject, DimensionMismatchError,
                     check_keys, check_real, check_reals)

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

#: Smallest positive normal double; exp(x) >= _TINY exactly when
#: x >= _LOG_TINY.
_TINY = float(np.finfo(float).tiny)
_LOG_TINY = float(np.log(_TINY))

#: Size of a scratch block walked down a kernel matrix, well under glibc's
#: mmap and heap-trim thresholds, so no batch returns pages to the system
#: that the next batch faults back in.
_SCRATCH_BYTES = 1 << 16


@dataclass(frozen=True)
class KernelSpec(ConfigObject, section="kernel"):
    """Kernel family plus hyperparameters; the default is the unit
    squared-exponential kernel of one input dimension (see broadcast).

    lengthscales has one strictly positive entry, with a finite reciprocal,
    per input dimension; power is required for the power-exponential family
    and must stay in (0, 2] (it is rejected for every other family).
    """

    family: str = "squared-exponential"
    lengthscales: tuple[float, ...] = (1.0,)
    signal_variance: float = 1.0
    power: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; choose from {FAMILIES}"
            )
        ls = check_reals("lengthscales", self.lengthscales)
        if len(ls) == 0:
            raise ValueError("at least one lengthscale is required")
        if any(l <= 0.0 for l in ls):
            raise ValueError(f"lengthscales must be strictly positive, got {ls}")
        if any(not math.isfinite(1.0 / l) for l in ls):
            raise ConfigError(f"lengthscales too small to scale a point by, got {ls}")
        object.__setattr__(self, "lengthscales", ls)
        sv = check_real("signal_variance", self.signal_variance)
        if sv <= 0.0:
            raise ValueError(f"signal_variance must be strictly positive, got {sv}")
        object.__setattr__(self, "signal_variance", sv)
        if self.family == "power-exponential":
            if self.power is None:
                raise ValueError("power-exponential requires a power exponent")
            p = check_real("power", self.power)
            if not 0.0 < p <= 2.0:
                raise ValueError(f"power exponent must lie in (0, 2], got {p}")
            object.__setattr__(self, "power", p)
        elif self.power is not None:
            raise ValueError(f"{self.family} takes no power exponent")

    @property
    def dimension(self) -> int:
        return len(self.lengthscales)

    def broadcast(self, dim: int) -> "KernelSpec":
        """A single lengthscale repeated dim times; a kernel with several is unchanged."""
        if self.dimension != 1:
            return self
        return replace(self, lengthscales=self.lengthscales * dim)

    @classmethod
    def from_dict(cls, d) -> "KernelSpec":
        """Build from a config mapping; "lengthscale" is an alias of
        "lengthscales", and a single value is a list of one."""
        check_keys(d, [f.name for f in fields(cls)] + ["lengthscale"], cls.section)
        if "lengthscale" in d and "lengthscales" in d:
            raise ConfigError("give kernel lengthscale or lengthscales, not both")
        kw = dict(d)
        if "lengthscale" in kw:
            kw["lengthscales"] = kw.pop("lengthscale")
        if not isinstance(kw.get("lengthscales", ()), (list, tuple)):
            kw["lengthscales"] = [kw["lengthscales"]]
        return cls(**kw)


@dataclass(frozen=True)
class BaseKernelMatrix:
    """Cholesky factor of the jittered Gram matrix of the training inputs.

    jitter is the value actually added to the diagonal before the stored
    factorization succeeded: cholesky factors K + jitter * I.
    """

    jitter: float
    cholesky: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.cholesky.flags.writeable = False


def _as_points(X, dim: int, what: str) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, dim) if dim == 1 else X.reshape(1, -1)
    if X.ndim != 2 or X.shape[1] != dim:
        raise DimensionMismatchError(dim, X.shape[-1], what)
    if not np.isfinite(X).all():
        raise ValueError(f"{what} must be finite")
    return X


def _row_blocks(n: int, m: int, itemsize: int = 8) -> tuple[list[slice], int]:
    """Row slices of an (n, m) array, each at most _SCRATCH_BYTES of items of
    the given size (at least one row), and the rows of the largest slice."""
    step = max(1, _SCRATCH_BYTES // (itemsize * max(m, 1)))
    return [slice(r, r + step) for r in range(0, n, step)], min(step, n)


def _scaled_sqdist(spec: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared scaled distances between the rows of A and B, shape (n, m).

    Summed one input dimension at a time into the first dimension's squared
    difference; the other dimensions' differences go through one scratch
    block walked down the rows.  (a - b)^2 == (b - a)^2 exactly and the sum
    runs in the same order either way, so swapping A and B transposes the
    result exactly and every self-distance is exactly 0.
    """
    ls = np.asarray(spec.lengthscales)
    A, B = np.ascontiguousarray((A / ls).T), np.ascontiguousarray((B / ls).T)
    d2 = np.subtract.outer(A[0], B[0])
    d2 *= d2
    if len(A) > 1:
        blocks, height = _row_blocks(*d2.shape)
        scratch = np.empty((height, d2.shape[1]))
        for rows in blocks:
            out = d2[rows]
            diff = scratch[: len(out)]
            for a, b in zip(A[1:], B[1:]):
                np.subtract.outer(a[rows], b, out=diff)
                diff *= diff
                out += diff
    return d2


def _zero_below(E: np.ndarray, limit: float, exp: bool) -> None:
    """Set every entry of E below limit to exactly 0, in place; with exp, take
    exp of the other entries without evaluating it on the zeroed ones.

    The mask is applied by products with 0/1, since masked assignment and
    exp(..., where=) run several times slower on scattered masks.  A zeroed
    argument gives exp(0) = 1, a fast lane, and the second product turns it
    back into 0.
    """
    blocks, height = _row_blocks(*E.shape, itemsize=1)
    keep = np.empty((height, E.shape[1]), dtype=bool)
    for rows in blocks:
        e = E[rows]
        k = keep[: len(e)]
        np.greater_equal(e, limit, out=k)
        if exp:
            np.multiply(e, k, out=e)
            np.exp(e, out=e)
        np.multiply(e, k, out=e)


def _smallest_exponent(spec: KernelSpec, d2max: float) -> float:
    """The most negative exp argument of a batch whose largest squared
    scaled distance is d2max."""
    if spec.family == "squared-exponential":
        return -0.5 * d2max
    d = math.sqrt(d2max)
    if spec.family == "power-exponential":
        return -0.5 * d**spec.power
    return -(math.sqrt(3.0) if spec.family == "matern-3/2" else math.sqrt(5.0)) * d


def kernel_matrix(spec: KernelSpec, A, B) -> np.ndarray:
    """Covariance matrix k(a_i, b_j) for two point sets, shape (len(A), len(B)).

    A and B are finite float arrays of shape (n, d) and (m, d), checked by
    the caller.  Every family is evaluated in place on the distance buffer,
    with the operations of the formulas in the module docstring in their
    order, so the result matches those formulas bit for bit, apart from the
    entries that the module docstring's policy returns as 0.
    """
    K = _scaled_sqdist(spec, A, B)
    sv = spec.signal_variance
    # every entry stays normal while each exp factor is at least
    # _TINY / min(sv, 1); the largest distance gives the smallest factor, and
    # the margin of 1 covers its rounding
    d2max = float(K.max()) if K.size else 0.0
    guard = _smallest_exponent(spec, d2max) < _LOG_TINY - min(math.log(sv), 0.0) + 1.0
    if d2max == math.inf:
        # a distance past overflow still has an exp factor of 0; clamped, its
        # exp argument stays finite, so the masks of _zero_below hold
        np.minimum(K, 1e300, out=K)
    if spec.family in ("squared-exponential", "power-exponential"):
        if spec.family == "power-exponential":
            np.sqrt(K, out=K)
            K **= spec.power
        K *= -0.5
        if guard:
            _zero_below(K, _LOG_TINY, exp=True)
        else:
            np.exp(K, out=K)
        if sv != 1.0:  # a product with 1 is exact
            K *= sv
    else:
        # Matern-nu: a = sqrt(2 nu) d; the exp factor (and for 5/2 the
        # quadratic term) of each block of rows goes through scratch rows
        np.sqrt(K, out=K)
        K *= math.sqrt(3.0) if spec.family == "matern-3/2" else math.sqrt(5.0)
        blocks, height = _row_blocks(*K.shape)
        decay, quad = np.empty((2, height, K.shape[1]))
        for rows in blocks:
            a = K[rows]
            e = decay[: len(a)]
            np.negative(a, out=e)
            if guard:
                _zero_below(e, _LOG_TINY, exp=True)
            else:
                np.exp(e, out=e)
            if spec.family == "matern-3/2":
                a += 1.0
            else:
                q = quad[: len(a)]
                np.multiply(a, a, out=q)
                q /= 3.0
                a += 1.0
                a += q
            if sv != 1.0:
                a *= sv
            a *= e
    if guard and sv < 1.0:
        _zero_below(K, _TINY, exp=False)
    return K


def _check_training_points(X: np.ndarray) -> None:
    """At least one row, and no two rows closer than DUPLICATE_TOL."""
    if X.shape[0] < 1:
        raise ValueError("at least one training point is required")
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


def _cholesky(K: np.ndarray, lower: bool) -> np.ndarray:
    """Cholesky factor of K, as scipy.linalg.cholesky computes it (LAPACK
    potrf with the other triangle zeroed), without its input checks: K is
    finite by construction.  Raises LinAlgError if K is not positive
    definite.  K may be overwritten."""
    c, info = dpotrf(K, lower=lower, clean=1, overwrite_a=1)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK potrf")
    return c


def build_base_kernel_matrix(spec: KernelSpec, X: np.ndarray) -> BaseKernelMatrix:
    """Gram matrix over the training inputs, jittered until it factorizes.

    X is a checked (n, d) float array, as kernel_matrix takes it.  Jitter
    escalates tenfold from 1e-10 * sv to 1e-6 * sv; if the Cholesky
    factorization still fails the conditioning problem is reported.
    """
    K = kernel_matrix(spec, X, X)
    # construction is exactly symmetric; guard against regressions anyway
    assert np.max(np.abs(K - K.T)) <= 1e-12
    jitter = JITTER_INITIAL * spec.signal_variance
    jitter_cap = JITTER_MAX * spec.signal_variance
    while True:
        # the Fortran-ordered copy that LAPACK factors in place
        jittered = np.array(K, order="F")
        jittered.ravel(order="F")[:: K.shape[0] + 1] += jitter  # a view
        try:
            L = _cholesky(jittered, lower=True)
            return BaseKernelMatrix(jitter=jitter, cholesky=L)
        except LinAlgError:
            if jitter >= jitter_cap:
                raise ConditioningError(
                    f"kernel matrix is not positive definite even with jitter "
                    f"{jitter:.3e}; inputs are too close relative to the "
                    f"lengthscales {spec.lengthscales}",
                    jitter=jitter,
                ) from None
            jitter *= 10.0
