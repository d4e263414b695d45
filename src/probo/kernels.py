"""Stationary covariance kernels and the base kernel matrix.

Every family is a signal variance sv times a correlation of the scaled
Euclidean distance

    d(x, x') = sqrt( sum_i ((x_i - x'_i) / l_i)^2 )

with one lengthscale l_i per input dimension:

    squared-exponential   sv * exp(-d^2 / 2)
    power-exponential     sv * exp(-d^p / 2),  p in (0, 2]
    matern-3/2            sv * ((1 + sqrt(3) d) * exp(-sqrt(3) d))
    matern-5/2            sv * ((1 + sqrt(5) d + 5 d^2 / 3) * exp(-sqrt(5) d))

_correlation computes the correlation; each caller multiplies it by sv.
power-exponential with p = 2 is exactly the squared-exponential.  Targets
are treated as noiseless, so the Gram matrix carries no nugget term; a
small diagonal jitter is added for numerical factorization only.

The signal variance lies in [2^-511, 1e300], about 1.49e-154 to 1e300.

An exp factor below 2^-511 = sqrt(tiny), with tiny = numpy.finfo(float).tiny
the smallest normal double, is taken as 0: exp is evaluated on arguments
clamped just below log(2^-511), and a result below 2^-511 is zeroed.  For
the two exponential families the factor is the correlation itself, so
correlations below 2^-511 are exact zeros.  For Matern the factor is
exp(-a), with a = sqrt(2 nu) d, so the correlation is 0 wherever exp(-a) is
below 2^-511, past the floor distance a = -log(2^-511), about 354.2: that is
correlations up to (1 + a) 2^-511 for 3/2 and (1 + a + a^2 / 3) 2^-511 for
5/2, about 355 and 42,174 times the floor.  Every other entry matches the
formulas above bit for bit, and is sv times a correlation of at least
2^-511, so at least 2^-1022 = tiny: no entry is subnormal, and neither is
the initial jitter JITTER_INITIAL * sv.  Subnormal lanes take a slow path
through exp and through every product that follows, and short lengthscales
put many scaled distances past the floor.  The floor is sqrt(tiny) because
a product of two values at or above it stays normal: gp.fit_gp floors the
inverse Cholesky factor the same way on its scale 1 / sqrt(sv), so at
sv >= 1 no product of the two underflows.  The floor is on correlations,
not on entries, so a GP with a small sv keeps its correlations.  Only
batches whose smallest exp argument can reach the floor pay for the check,
and that argument comes from the batch's largest squared scaled distance,
which each caller has at hand (see _correlation): at d = 1 kernel_matrix
reads it off the batch's extreme points, with no pass over the batch.

Every correlation is at most about 1 (Matern-5/2 can round to 1 + 2^-52
near d = 0), so every entry is finite.  Only Matern's polynomial can
overflow, where a^2 or d is past the double range: in a checked batch a is
capped just above the floor distance, where the exp factor is 0, so such a
distance gives 0, not inf * 0.
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

#: The floor 2^-511 of the module docstring on exp factors, and the smallest
#: signal variance; exp(x) >= _FLOOR exactly when x >= _LOG_FLOOR, so
#: exp(_BELOW_LOG_FLOOR) < _FLOOR.  A batch whose smallest exp argument is
#: at least _GUARD_LIMIT skips the floor: the margin of 1 keeps each of its
#: exp results well above _FLOOR, whatever the last bit of exp.
_FLOOR = 2.0**-511
_LOG_FLOOR = math.log(_FLOOR)
_BELOW_LOG_FLOOR = float(np.nextafter(_LOG_FLOOR, -math.inf))
_GUARD_LIMIT = _LOG_FLOOR + 1.0

#: The largest signal variance, well inside gp.fit_gp's range (its floor on
#: L^-1, 2^-511 / sqrt(sv), is normal only up to sv = 2^1022), and the
#: largest degree of imprecision of igp.check_c.
_CEILING = 1e300

#: Size of a scratch block walked down a kernel matrix, well under glibc's
#: mmap and heap-trim thresholds, so no batch returns pages to the system
#: that the next batch faults back in.
_SCRATCH_BYTES = 1 << 16

#: Rows that _by_rows copies one at a time before it copies them as a block;
#: a batch of fewer points is left to numpy's broadcast.
_REPEAT_ROWS = 64


@dataclass(frozen=True)
class KernelSpec(ConfigObject, section="kernel"):
    """Kernel family plus hyperparameters; the default is the unit
    squared-exponential kernel of one input dimension, which a run repeats
    to its target's dimension (see broadcast and engine.run).

    lengthscales has one strictly positive entry, with a finite reciprocal,
    per input dimension; signal_variance lies in [2^-511, 1e300] (see the
    module docstring); power is required for the power-exponential family
    and must stay in (0, 2] (it is rejected for every other family).
    """

    family: str = "squared-exponential"
    lengthscales: tuple[float, ...] = (1.0,)
    signal_variance: float = 1.0
    power: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown kernel family {self.family!r}; choose from {FAMILIES}")
        ls = check_reals("lengthscales", self.lengthscales)
        if not ls:
            raise ConfigError("at least one lengthscale is required")
        if not all(l > 0.0 and math.isfinite(1.0 / l) for l in ls):
            raise ConfigError(f"lengthscales must be positive with a finite reciprocal, got {ls}")
        object.__setattr__(self, "lengthscales", ls)
        sv = check_real("signal_variance", self.signal_variance)
        if not _FLOOR <= sv <= _CEILING:
            raise ConfigError(f"signal_variance must lie in [2^-511, 1e300], got {sv!r}: below "
                              f"2^-511 = {_FLOOR!r} kernel entries can be subnormal, and above "
                              "1e300 fit_gp is too near overflow")
        object.__setattr__(self, "signal_variance", sv)
        if self.family == "power-exponential":
            if self.power is None:
                raise ConfigError("power-exponential requires a power exponent")
            p = check_real("power", self.power)
            if not 0.0 < p <= 2.0:
                raise ConfigError(f"power exponent must lie in (0, 2], got {p}")
            object.__setattr__(self, "power", p)
        elif self.power is not None:
            raise ConfigError(f"{self.family} takes no power exponent")

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
    X = np.atleast_1d(np.asarray(X, dtype=float))  # a scalar is one coordinate
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


def _by_rows(ufunc, X: np.ndarray, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """ufunc(X, rows) for a batch of points X, shape (..., m, d), and one row
    of d values per leading index of the result, rows of shape (..., 1, d):
    written over out, or returned as a new array.

    numpy broadcasts a row over a batch by an inner loop of d values per
    point, which at d >= 2 costs more than the operation itself (about
    35 against 10 us for 5,000 x 3 divisions on a 2-core x86 VM).  Here the
    rows are first copied to the result's shape, _REPEAT_ROWS rows one by
    one and then that block as a whole, so that the ufunc makes contiguous
    passes.  It is the same IEEE operation on the same operands, so the
    result has the bits of ufunc(X, rows).  The copy has at most
    _REPEAT_ROWS - 1 rows per leading index more than the result, and it
    becomes the result unless out is given.  At d = 1 the broadcast is
    already one contiguous pass, and on fewer than _REPEAT_ROWS points it
    costs less than the copy's calls, so both run it as it is.
    """
    lead, (m, d) = rows.shape[:-2], X.shape[-2:]
    if d == 1 or m * math.prod(lead) < _REPEAT_ROWS:
        return ufunc(X, rows, out=out)
    k = min(m, _REPEAT_ROWS)
    blocks = -(-m // k)
    full = rows.repeat(k, axis=-2)
    if blocks > 1:
        full = full.reshape(lead + (1, k * d)).repeat(blocks, axis=-2)
        full = full.reshape(lead + (blocks * k * d,))[..., : m * d].reshape(lead + (m, d))
    return ufunc(X, full, out=full if out is None else out)


def _sqdist(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of A and B, shape (n, m).

    d = 1 forms every a - b as one BLAS product, [a, 1] @ [1; -b], and
    squares it in place.  Each of the two terms has a factor of exactly 1,
    so both products are exact and their sum is rounded once: any BLAS, with
    or without FMA, in either order and on any number of threads, returns
    the double of a - b, up to the sign of a zero, which the square drops.
    The product takes about a third of the time of numpy's outer
    subtraction (15 against 45 us at 35 x 1,000 on a 2-core x86 VM).
    d >= 2 is scipy's cdist "sqeuclidean", which sums each pair's
    (a_k - b_k)^2 in input-dimension order.  Either way swapping A and B
    transposes the result exactly and every self-distance is exactly 0; a
    square past the double range is inf.
    """
    if A.shape[1] == 1:
        a = np.ones((len(A), 2))
        a[:, :1] = A
        b = np.ones((2, len(B)))
        np.negative(B.T, out=b[1:])
        with np.errstate(over="ignore"):
            d2 = a @ b
            d2 *= d2
        return d2
    # imported here: scipy.spatial loads scipy.sparse, which 1-D runs never need
    from scipy.spatial.distance import cdist
    return cdist(A, B, "sqeuclidean")


def _near_duplicate(d2: np.ndarray) -> float | None:
    """Distance of the closest pair among the squared distances d2 if that
    pair is a near-duplicate (closer than DUPLICATE_TOL), else None."""
    closest = math.sqrt(d2.min())
    return closest if closest < DUPLICATE_TOL else None


def _floored_exp(E: np.ndarray) -> None:
    """Take exp of E in place, its arguments clamped at _BELOW_LOG_FLOOR,
    and set every result below _FLOOR to exactly 0.

    A clamped argument was below _LOG_FLOOR, so its exp is zeroed either
    way, and it is a normal double, so exp takes no slow subnormal lane.  The
    mask is applied by a product with 0/1, since masked assignment runs
    several times slower on scattered masks.
    """
    blocks, height = _row_blocks(*E.shape, itemsize=1)
    keep = np.empty((height, E.shape[1]), dtype=bool)
    for rows in blocks:
        e = E[rows]
        k = keep[: len(e)]
        np.maximum(e, _BELOW_LOG_FLOOR, out=e)
        np.exp(e, out=e)
        np.greater_equal(e, _FLOOR, out=k)
        np.multiply(e, k, out=e)


def _extreme_sqdist(A: np.ndarray, B: np.ndarray) -> float:
    """_sqdist(A, B).max() for two batches of 1-D points, shape (n, 1) and
    (m, 1), or 0 if either is empty, from their extreme points alone.

    _sqdist rounds each difference a - b once, and rounding is monotone, so
    the largest difference is that of max A and min B and the smallest that
    of min A and max B; the largest square is one of theirs.  The pairs of
    two maxima and of two minima are the only ones that can give inf - inf,
    so taking them too keeps a NaN of the full matrix.
    """
    if not A.size or not B.size:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        diff = np.subtract.outer((A.min(), A.max()), (B.min(), B.max()))
        diff *= diff
    return float(diff.max())


def kernel_matrix(spec: KernelSpec, A, B) -> np.ndarray:
    """Covariance matrix k(a_i, b_j) for two point sets, shape (len(A), len(B)).

    A and B are finite float arrays of shape (n, d) and (m, d), checked by
    the caller.  The result matches the formulas in the module docstring bit
    for bit, apart from the entries that its policy returns as 0.
    """
    if any(l != 1.0 for l in spec.lengthscales):  # a quotient by 1 is its dividend
        ls = np.asarray(spec.lengthscales)[None]
        # a point scaled past overflow is at distance inf, so uncorrelated
        with np.errstate(over="ignore"):
            A, B = _by_rows(np.divide, A, ls), _by_rows(np.divide, B, ls)
    d2 = _sqdist(A, B)
    d2_max = _extreme_sqdist(A, B) if A.shape[1] == 1 else d2.max(initial=0.0)
    K = _correlation(d2, spec.family, spec.power, d2_max)
    if spec.signal_variance != 1.0:  # a product with 1 is exact
        K *= spec.signal_variance
    return K


def _correlation(K: np.ndarray, family: str, power: float | None, d2_max: float) -> np.ndarray:
    """The correlations of a kernel of this family and power at the squared
    scaled distances K, written over K and returned.

    Every family is evaluated in place on the distance buffer, with the
    operations of the formulas in the module docstring in their order.  Each
    row has the bits that a call on that row alone gives, so one call covers
    the stacked Gram matrices of several kernels.

    d2_max is the largest entry of K, or 0 for an empty K, as the caller
    has it: kernel_matrix from its batch's extreme points at d = 1 and from
    K itself at d >= 2, the likelihood search from its stack.  The floor
    guard runs where d2_max, taken through the family's own operations,
    gives an exp argument below _GUARD_LIMIT.  Each operation is monotone,
    so that is the smallest exp argument of K: the guard decides on the
    value that a pass over K would give, without the pass.
    """
    if family in ("squared-exponential", "power-exponential"):
        if family == "power-exponential":
            np.sqrt(K, out=K)
            K **= power
            top = np.sqrt([d2_max])  # the same operations on one value
            top **= power
            d2_max = top[0]  # now the largest d^p
        K *= -0.5
        if -0.5 * d2_max < _GUARD_LIMIT:
            _floored_exp(K)
        else:
            np.exp(K, out=K)
    else:
        # Matern-nu: a = sqrt(2 nu) d; the exp factor (and for 5/2 the
        # quadratic term) of each block of rows goes through scratch rows
        root = math.sqrt(3.0) if family == "matern-3/2" else math.sqrt(5.0)
        np.sqrt(K, out=K)
        K *= root
        guard = -(math.sqrt(d2_max) * root) < _GUARD_LIMIT
        blocks, height = _row_blocks(*K.shape)
        decay, quad = np.empty((2, height, K.shape[1]))
        for rows in blocks:
            a = K[rows]
            e = decay[: len(a)]
            np.negative(a, out=e)
            if guard:
                _floored_exp(e)
                # the cap is above every kept a; a capped entry is a finite
                # polynomial times 0, not inf * 0
                np.minimum(a, -_BELOW_LOG_FLOOR, out=a)
            else:
                np.exp(e, out=e)
            if family == "matern-3/2":
                a += 1.0
            else:
                q = quad[: len(a)]
                np.multiply(a, a, out=q)
                q /= 3.0
                a += 1.0
                a += q
            a *= e
    return K


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

    X is a checked (n, d) float array, as kernel_matrix takes it; the
    factor and its jitter are those of _jittered_cholesky.
    """
    L, jitter = _jittered_cholesky(kernel_matrix(spec, X, X), spec.signal_variance,
                                   spec.lengthscales)
    return BaseKernelMatrix(jitter=jitter, cholesky=L)


def _jittered_cholesky(K: np.ndarray, sv: float, lengthscales) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of the Gram matrix K + jitter * I of a kernel
    with signal variance sv and these lengthscales, and the jitter that it
    took.

    Jitter escalates tenfold from JITTER_INITIAL * sv to JITTER_MAX * sv; if
    the factorization still fails the conditioning problem is reported.
    Every Gram matrix is factored here: build_base_kernel_matrix's and each
    candidate's of gp.fit_hyperparameters.
    """
    # construction is exactly symmetric at every scale; guard against
    # regressions anyway
    assert (K == K.T).all()
    jitter = JITTER_INITIAL * sv
    jitter_cap = JITTER_MAX * sv
    while True:
        # the Fortran-ordered copy that LAPACK factors in place
        jittered = np.array(K, order="F")
        jittered.ravel(order="F")[:: K.shape[0] + 1] += jitter  # a view
        try:
            return _cholesky(jittered, lower=True), jitter
        except LinAlgError:
            if jitter >= jitter_cap:
                raise ConditioningError(
                    f"kernel matrix is not positive definite even with jitter "
                    f"{jitter:.3e}; inputs are too close relative to the "
                    f"lengthscales {lengthscales}",
                    jitter=jitter,
                ) from None
            jitter *= 10.0
