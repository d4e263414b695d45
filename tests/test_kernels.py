import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import LinAlgError

import probo
from probo.errors import ConditioningError, ConfigError, DimensionMismatchError
from probo.kernels import (
    FAMILIES,
    JITTER_INITIAL,
    JITTER_MAX,
    KernelSpec,
    build_base_kernel_matrix,
    kernel_matrix,
    _BELOW_LOG_FLOOR,
    _FLOOR,
    _LOG_FLOOR,
    _as_points,
    _by_rows,
    _correlation,
    _floored_exp,
    _jittered_cholesky,
    _sqdist,
)


def spec_for(family, lengthscales=(1.0,), sv=1.0):
    power = 1.5 if family == "power-exponential" else None
    return KernelSpec(family=family, lengthscales=lengthscales,
                      signal_variance=sv, power=power)


def random_spec(rng, family, dim):
    return spec_for(family, lengthscales=tuple(rng.uniform(0.3, 3.0, dim)),
                    sv=rng.uniform(0.5, 4.0))


def kernel_eval(spec, x, xp):
    """Covariance between two single points, as a 1 x 1 kernel matrix."""
    A, B = np.array([x], dtype=float), np.array([xp], dtype=float)
    return float(kernel_matrix(spec, A, B)[0, 0])


# ------------------------------------------------------- single entries

def test_zero_distance_gives_signal_variance():
    spec = spec_for("squared-exponential", (1.0, 2.0), sv=1.0)
    for x in ([0.0, 0.0], [3.0, -1.5]):
        assert kernel_eval(spec, x, x) == 1.0


def test_power_exponent_two_reproduces_squared_exponential():
    rng = np.random.default_rng(0)
    se = KernelSpec(family="squared-exponential", lengthscales=(0.7, 1.3),
                    signal_variance=2.5)
    pe = KernelSpec(family="power-exponential", lengthscales=(0.7, 1.3),
                    signal_variance=2.5, power=2.0)
    for _ in range(20):
        x, xp = rng.normal(size=2), rng.normal(size=2)
        assert kernel_eval(se, x, xp) == pytest.approx(kernel_eval(pe, x, xp), abs=1e-12)


def test_matern32_matches_scalar_formula():
    # independent one-line oracle at unit distance
    spec = spec_for("matern-3/2")
    d = 1.0
    expected = (1.0 + math.sqrt(3) * d) * math.exp(-math.sqrt(3) * d)
    assert kernel_eval(spec, [0.0], [1.0]) == pytest.approx(expected, abs=1e-14)


def test_matern52_matches_scalar_formula():
    spec = spec_for("matern-5/2", (2.0,), sv=3.0)
    d = 1.5 / 2.0
    expected = 3.0 * (1 + math.sqrt(5) * d + 5 * d**2 / 3) * math.exp(-math.sqrt(5) * d)
    assert kernel_eval(spec, [0.0], [1.5]) == pytest.approx(expected, abs=1e-12)


def test_kernel_eval_symmetric_exactly():
    rng = np.random.default_rng(1)
    for family in FAMILIES:
        spec = random_spec(rng, family, 3)
        for _ in range(10):
            x, xp = rng.normal(size=3), rng.normal(size=3)
            assert kernel_eval(spec, x, xp) == kernel_eval(spec, xp, x)


def test_dimension_mismatch_rejected():
    # the point check of every public entry point
    with pytest.raises(DimensionMismatchError):
        _as_points([[0.0]], 2, "points")
    with pytest.raises(DimensionMismatchError):
        _as_points(np.zeros((3, 2)), 1, "points")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_rejected(bad):
    P = np.zeros((3, 2))
    P[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        _as_points(P, 2, "points")


# ------------------------------------------------------------- spec rules

def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(family="squared-exponential", lengthscales=(0.0,))
    with pytest.raises(ValueError):
        KernelSpec(family="squared-exponential", lengthscales=(1.0,), signal_variance=-1)
    with pytest.raises(ValueError):
        KernelSpec(family="power-exponential", lengthscales=(1.0,))  # missing p
    with pytest.raises(ValueError):
        KernelSpec(family="power-exponential", lengthscales=(1.0,), power=2.5)
    with pytest.raises(ValueError):
        KernelSpec(family="matern-3/2", lengthscales=(1.0,), power=1.0)
    with pytest.raises(ValueError):
        KernelSpec(family="exponential", lengthscales=(1.0,))
    with pytest.raises(ValueError, match="at least one lengthscale"):
        KernelSpec(lengthscales=())


@pytest.mark.parametrize("field, value", [
    ("lengthscales", ((1.0, 2.0),)),
    ("lengthscales", (True,)),
    ("lengthscales", (math.inf,)),
    ("lengthscales", (math.nan,)),
    ("lengthscales", 1.0),
    ("lengthscales", "1"),
    ("signal_variance", True),
    ("signal_variance", math.inf),
    ("signal_variance", "1"),
    ("power", True),
    ("power", math.nan),
])
def test_spec_numbers_are_finite_reals(field, value):
    kw = dict(family="power-exponential", lengthscales=(1.0,), power=1.5)
    with pytest.raises(ValueError, match=field):
        KernelSpec(**dict(kw, **{field: value}))


@pytest.mark.parametrize("mapping, field", [
    ({"lengthscales": [[1, 2]]}, "lengthscales"),
    ({"lengthscale": True}, "lengthscales"),
    ({"lengthscales": [1, "x"]}, "lengthscales"),
    ({"signal_variance": True}, "signal_variance"),
    ({"family": "power-exponential", "power": True}, "power"),
    ({"lengthscale": 1e-310}, "lengthscales"),
    ({"lengthscales": [1.0, 5e-324]}, "lengthscales"),
])
def test_spec_from_config_mapping_rejects_non_numbers(mapping, field):
    with pytest.raises(ConfigError, match=field):
        KernelSpec.from_dict(mapping)


def test_signal_variance_below_the_floor_is_rejected():
    # at sv >= 2^-511 every kept entry, sv times an exp factor of at least
    # 2^-511, is a normal double, and so is the initial jitter
    assert _FLOOR == 2.0**-511
    spec = KernelSpec(signal_variance=_FLOOR)
    X = np.array([[0.0], [1.0], [2.5]])
    jitter = build_base_kernel_matrix(spec, X).jitter
    assert jitter == JITTER_INITIAL * _FLOOR and jitter >= np.finfo(float).tiny
    for sv in (np.nextafter(_FLOOR, 0.0), 1e-200, 2.5e-308, 1e-320):
        with pytest.raises(ConfigError, match=r"signal_variance .* below 2\^-511 = "
                                              r"1\.4916681462400413e-154"):
            KernelSpec(signal_variance=sv)


def test_signal_variance_above_1e300_is_rejected():
    # the fit needs the bound, not the kernels: fit_gp's floor on L^-1,
    # 2^-511 / sqrt(sv), is normal only up to sv = 2^1022, about 4.5e307,
    # and a fit at 1.7e308 can overflow in an add
    assert KernelSpec(signal_variance=1e300).signal_variance == 1e300
    for sv in (np.nextafter(1e300, math.inf), 1e307, np.finfo(float).max):
        with pytest.raises(ConfigError, match=r"signal_variance must lie in \[2\^-511, 1e300\], "
                                              r"got .* above 1e300 fit_gp is too near overflow"):
            KernelSpec(signal_variance=sv)
    with pytest.raises(ConfigError, match="signal_variance"):
        kernel_matrix(KernelSpec("matern-5/2", (1.0,), 1e307), [[0.0]], [[5.0], [0.0]])


@pytest.mark.parametrize("family", FAMILIES)
def test_largest_signal_variance_gives_finite_entries(family):
    # scaled distances just inside, at and just past the floor distance,
    # where the exp factor reaches 2^-511, and distances past the double range
    if family == "squared-exponential":
        d = math.sqrt(-2.0 * _LOG_FLOOR)
    elif family == "power-exponential":
        d = (-2.0 * _LOG_FLOOR) ** (1.0 / 1.5)
    else:
        d = -_LOG_FLOOR / math.sqrt(3.0 if family == "matern-3/2" else 5.0)
    A = np.array([[0.0], [-1e308]])
    B = np.array([[d * (1.0 - 1e-9)], [d], [d * (1.0 + 1e-9)], [1e308]])
    spec = spec_for(family, sv=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K = kernel_matrix(spec, A, B)
    assert np.isfinite(K).all() and not np.signbit(K).any()
    assert K[0, 0] > 0.0 and K[0, 0] == out_of_place_kernel(spec, A[:1], B[:1])[0, 0]
    assert np.all(K[0, 2:] == 0.0) and np.all(K[1] == 0.0)


def test_smallest_lengthscale_with_a_finite_reciprocal_is_accepted():
    assert KernelSpec(lengthscales=(1e-308,)).lengthscales == (1e-308,)


def test_spec_dict_round_trip():
    spec = KernelSpec(family="power-exponential", lengthscales=(0.5, 2.0),
                      signal_variance=1.5, power=1.2)
    assert KernelSpec.from_dict(spec.to_dict()) == spec


def test_spec_from_config_mapping():
    # a single lengthscale, under either key, is repeated per dimension
    want = KernelSpec(family="squared-exponential", lengthscales=(0.5, 0.5, 0.5))
    assert KernelSpec.from_dict({"lengthscale": 0.5}).broadcast(3) == want
    assert KernelSpec.from_dict({"lengthscales": [0.5]}).broadcast(3) == want
    assert KernelSpec.from_dict({}).broadcast(2).lengthscales == (1.0, 1.0)
    with pytest.raises(ConfigError, match="bogus"):
        KernelSpec.from_dict({"bogus": 1})
    with pytest.raises(ConfigError):
        KernelSpec.from_dict({"lengthscale": 1.0, "lengthscales": [2.0]})


# ------------------------------------------------------------ base matrix

def test_single_point_matrix_is_variance_plus_jitter():
    spec = spec_for("squared-exponential", sv=2.0)
    X = np.array([[0.5]])
    K = build_base_kernel_matrix(spec, X)
    jittered = kernel_matrix(spec, X, X) + K.jitter * np.eye(K.cholesky.shape[0])
    assert jittered.shape == (1, 1)
    assert jittered[0, 0] == pytest.approx(2.0 + K.jitter, abs=1e-15)
    assert K.jitter == pytest.approx(JITTER_INITIAL * 2.0)


def test_two_point_matrix_hand_computed():
    spec = spec_for("squared-exponential")
    X = np.array([[0.0], [1.0]])
    K = build_base_kernel_matrix(spec, X)
    jittered = kernel_matrix(spec, X, X) + K.jitter * np.eye(K.cholesky.shape[0])
    b = math.exp(-0.5)
    assert jittered[0, 1] == pytest.approx(b, abs=1e-15)
    assert jittered[1, 0] == pytest.approx(b, abs=1e-15)
    # diagonal carries the jitter
    assert jittered[0, 0] == pytest.approx(1.0 + K.jitter, abs=1e-15)
    # Cholesky factor reproduces the matrix
    assert np.allclose(K.cholesky @ K.cholesky.T, jittered, atol=1e-14)


def test_gram_symmetric_and_psd_all_families():
    rng = np.random.default_rng(2)
    for family in FAMILIES:
        for dim in (1, 2, 4):
            spec = random_spec(rng, family, dim)
            X = rng.uniform(-3, 3, size=(rng.integers(2, 21), dim))
            K = build_base_kernel_matrix(spec, X)
            raw = kernel_matrix(spec, X, X)
            assert np.array_equal(raw, raw.T)
            assert np.linalg.eigvalsh(raw).min() >= -1e-10
            n = K.cholesky.shape[0]
            assert np.allclose(K.cholesky @ K.cholesky.T, raw + K.jitter * np.eye(n))


def test_short_lengthscales_decorrelate():
    # off-diagonals shrink toward zero as lengthscales shrink, pair by pair
    rng = np.random.default_rng(3)
    X = rng.uniform(-2, 2, size=(6, 2))
    for family in FAMILIES:
        previous = None
        for scale in (2.0, 1.0, 0.5, 0.25, 0.1):
            spec = spec_for(family, (scale, scale))
            build_base_kernel_matrix(spec, X)  # factorizes at every scale
            off = kernel_matrix(spec, X, X)[np.triu_indices(6, k=1)]
            if previous is not None:
                assert np.all(off <= previous + 1e-15)
            previous = off
        assert np.all(previous < 0.05)


def test_cross_covariance_matches_elementwise_eval():
    rng = np.random.default_rng(4)
    spec = random_spec(rng, "matern-5/2", 2)
    X = rng.uniform(-2, 2, size=(5, 2))
    x = rng.uniform(-2, 2, size=2)
    kx = kernel_matrix(spec, X, x[None, :])[:, 0]
    assert kx.shape == (5,)
    for i in range(5):
        assert kx[i] == pytest.approx(kernel_eval(spec, x, X[i]), abs=1e-15)


def reference_sqdist(spec, A, B):
    """Scaled squared distances through the (n, m, d) difference tensor."""
    ls = np.asarray(spec.lengthscales)
    diff = A[:, None, :] / ls - B[None, :, :] / ls
    return np.einsum("ijk,ijk->ij", diff, diff)


@pytest.mark.parametrize("dim", [1, 3, 7])
def test_swapping_point_sets_transposes_exactly(dim):
    rng = np.random.default_rng(20 + dim)
    for family in FAMILIES:
        spec = random_spec(rng, family, dim)
        A = rng.uniform(-3, 3, size=(7, dim))
        B = rng.uniform(-3, 3, size=(11, dim))
        assert np.array_equal(kernel_matrix(spec, A, B), kernel_matrix(spec, B, A).T)
        gram = kernel_matrix(spec, A, A)
        assert np.all(np.diag(gram) == spec.signal_variance)


@pytest.mark.parametrize("dim", [1, 3, 7])
def test_distances_match_difference_tensor(dim):
    rng = np.random.default_rng(30 + dim)
    spec = random_spec(rng, "squared-exponential", dim)
    A = rng.uniform(-3, 3, size=(9, dim))
    B = rng.uniform(-3, 3, size=(13, dim))
    ls = np.asarray(spec.lengthscales)
    got, want = _sqdist(A / ls, B / ls), reference_sqdist(spec, A, B)
    if dim == 1:
        assert np.array_equal(got, want)
    else:
        # the per-dimension sum may round differently from the tensor reduction
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)


def loop_sqdist(spec, A, B):
    """Scaled squared distances summed one input dimension at a time:
    d2 = (a_0 - b_0)^2, then d2 += (a_k - b_k)^2 for each further k."""
    ls = np.asarray(spec.lengthscales)
    A, B = (A / ls).T, (B / ls).T
    d2 = np.subtract.outer(A[0], B[0]) ** 2
    for a, b in zip(A[1:], B[1:]):
        d2 += np.subtract.outer(a, b) ** 2
    return d2


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 7])
def test_distances_match_per_dimension_loop_bit_for_bit(dim):
    # the sum order is pinned: a library that sums the terms in another
    # order fails here rather than shifting every seeded output silently.
    # At d = 1 the BLAS product must give the subtraction's bits for every
    # shape: one row or one column (the nudge's) may go to a matrix-vector
    # routine, and 300 x 1,000, run without a thread pin, is large enough
    # for a threaded BLAS to split across cores
    rng = np.random.default_rng(60 + dim)
    shapes = [(1, 37), (60, 37), (1000, 37)] + ([(300, 1000)] if dim == 1 else [])
    for rows, cols in shapes:
        A = rng.uniform(-3, 3, size=(rows, dim))
        B = rng.uniform(-3, 3, size=(cols, dim))
        A[0] = -0.0  # against the 0.0 of B's row 3
        B[:3] = A[[0, -1, -1]]  # exact duplicates, across and within the sets
        B[3] = 0.0
        if rows > 1:
            A[1] = A[0]
        for _ in range(3):
            ls = 10.0 ** rng.uniform(-2, 2, dim)
            spec = KernelSpec(lengthscales=tuple(ls), signal_variance=rng.uniform(0.5, 4.0))
            for P, Q in ((A, B), (B, A), (A, A), (A, B[:1]), (B[:1], A)):
                got, want = _sqdist(P / ls, Q / ls), loop_sqdist(spec, P, Q)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert np.all(np.diag(kernel_matrix(spec, A, A)) == spec.signal_variance)


@pytest.mark.parametrize("edge, lengthscale", [(1.0, 1e-300), (1e308, 1.0)])
@pytest.mark.parametrize("dim", [1, 3])
def test_distance_past_the_double_range_is_inf_without_warning(dim, edge, lengthscale):
    # points at -edge and edge: scaled by 1e-300 their difference squares to
    # 4e600; 2e308 overflows before it is squared
    A = np.full((1, dim), -edge)
    B = np.full((1, dim), edge)
    ls = (lengthscale,) * dim
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _sqdist(A / np.asarray(ls), B / np.asarray(ls))[0, 0] == math.inf
        for family in FAMILIES:
            K = kernel_matrix(spec_for(family, ls), A, B)
            assert K[0, 0] == 0.0 and not np.signbit(K[0, 0])


def broadcast_scaled_kernel(spec, A, B):
    """kernel_matrix with numpy's broadcast scaling A / l and B / l: the
    reference for the bits of the scaling by _by_rows."""
    ls = np.asarray(spec.lengthscales)
    with np.errstate(over="ignore"):
        d2 = _sqdist(A / ls, B / ls)
    return _correlation(d2, spec.family, spec.power, d2.max()) * spec.signal_variance


def scaling_batches(rng, dim):
    """A C-contiguous batch, a strided view of a larger one, and a batch that
    short lengthscales scale past overflow; 1,001 points, so that _by_rows
    copies blocks of rows and the last block is cut short."""
    plain = rng.uniform(-3, 3, size=(1001, dim))
    strided = rng.uniform(-3, 3, size=(2002, 2 * dim))[::2, ::2]
    huge = rng.uniform(-3, 3, size=(1001, dim)) * 1e300
    huge[::5] = rng.uniform(-3, 3, size=(201, dim))  # some rows stay finite
    assert plain.flags.c_contiguous and not strided.flags.c_contiguous
    return [(plain, (0.3, 3.0)), (strided, (0.3, 3.0)), (huge, (1e-9, 1e-8))]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("dim", [2, 3, 7])
def test_kernel_matrix_keeps_the_bits_of_the_broadcast_scaling(family, dim):
    # each batch is scored against 40 training points, fewer than _by_rows
    # copies, and the first two against themselves; the huge batch's scaled
    # coordinates overflow to inf without a warning (the suite's filter fails
    # any RuntimeWarning), but such a point is at inf - inf = NaN from itself
    rng = np.random.default_rng(70 + dim)
    train = rng.uniform(-3, 3, size=(40, dim))
    for i, (batch, (low, high)) in enumerate(scaling_batches(rng, dim)):
        spec = spec_for(family, tuple(rng.uniform(low, high, dim)), sv=rng.uniform(0.5, 4.0))
        pairs = [(train, batch), (batch, train)] + [(batch[:300], batch[:300])] * (i < 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for P, Q in pairs:
                got, want = kernel_matrix(spec, P, Q), broadcast_scaled_kernel(spec, P, Q)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("ufunc", [np.divide, np.multiply, np.add])
@pytest.mark.parametrize("lead, m", [((), 63), ((), 64), ((), 1001), ((5,), 1000),
                                     ((3,), 1), ((64,), 20)])
@pytest.mark.parametrize("dim", [1, 2, 3, 7])
def test_by_rows_keeps_the_bits_of_the_broadcast(ufunc, lead, m, dim):
    # the points' own leading axes are lead, or none when the rows carry
    # them (the likelihood search's one X for every candidate)
    rng = np.random.default_rng(dim * 1000 + m)
    rows = rng.uniform(0.1, 10.0, size=lead + (1, dim))
    for X in (rng.uniform(-3, 3, size=lead + (m, dim)), rng.uniform(-3, 3, size=(m, dim))):
        want = ufunc(X, rows)
        got = _by_rows(ufunc, X, rows)
        assert got.shape == want.shape and np.ascontiguousarray(got).tobytes() == want.tobytes()
        if X.shape == want.shape:
            before = X.copy()
            assert _by_rows(ufunc, X, rows, out=X) is X
            assert X.tobytes() == ufunc(before, rows).tobytes()


LAZY_IMPORT_SCRIPT = """
import sys
import probo
infill = probo.FocusSearchConfig(evals_per_round=50, rounds=2, restarts=1)
glcb = probo.AcquisitionSpec("glcb")
for target in ("gramacy-lee", "sphere-2d"):
    kernel = probo.KernelSpec().broadcast(2 if target == "sphere-2d" else 1)
    probo.run(probo.RunConfig(kernel=kernel, acquisition=glcb, infill=infill, n_init=3,
                              budget=5), probo.registry_lookup(target))
    print(target, "scipy.spatial" in sys.modules)
"""


def test_scipy_spatial_is_imported_by_the_first_multi_dimensional_distance():
    # a module-level import would cost every process, 1-D runs included,
    # about 80 ms of start-up and 6 MB of memory
    src = str(Path(probo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", LAZY_IMPORT_SCRIPT], env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert out.split("\n") == ["gramacy-lee False", "sphere-2d True", ""]


def out_of_place_kernel(spec, A, B):
    """kernel_matrix written as plain expressions, one new array per step."""
    ls = np.asarray(spec.lengthscales)
    A, B = (A / ls).T, (B / ls).T
    diff = np.subtract.outer(A[0], B[0])
    d2 = diff * diff
    for a, b in zip(A[1:], B[1:]):
        diff = np.subtract.outer(a, b)
        d2 = d2 + diff * diff
    sv = spec.signal_variance
    if spec.family == "squared-exponential":
        return sv * np.exp(-0.5 * d2)
    d = np.sqrt(d2)
    if spec.family == "power-exponential":
        return sv * np.exp(-0.5 * d**spec.power)
    if spec.family == "matern-3/2":
        a = math.sqrt(3.0) * d
        return sv * ((1.0 + a) * np.exp(-a))
    a = math.sqrt(5.0) * d
    return sv * ((1.0 + a + a * a / 3.0) * np.exp(-a))


@pytest.mark.parametrize("dim", [1, 3, 7])
def test_in_place_kernels_match_out_of_place_formulas(dim):
    rng = np.random.default_rng(40 + dim)
    specs = [KernelSpec(family=f, lengthscales=tuple(rng.uniform(0.3, 3.0, dim)),
                        signal_variance=2.7)
             for f in ("squared-exponential", "matern-3/2", "matern-5/2")]
    specs += [KernelSpec(family="power-exponential", lengthscales=(1.3,) * dim,
                         signal_variance=0.4, power=p) for p in (0.5, 1.5, 2.0)]
    A = rng.uniform(-3, 3, size=(17, dim))
    B = rng.uniform(-3, 3, size=(23, dim))
    for spec in specs:
        for P, Q in ((A, B), (A, A), (A, B[:0])):  # B[:0] is an empty batch
            got = kernel_matrix(spec, P, Q)
            assert got.shape == (len(P), len(Q))
            assert np.array_equal(got, out_of_place_kernel(spec, P, Q))


@pytest.mark.parametrize("dim", [3, 7])
def test_in_place_kernels_match_out_of_place_formulas_across_scratch_blocks(dim):
    # 150 x 1000 outputs span many scratch blocks; lengthscales of at least 1
    # on [-3, 3] keep every exp factor normal, so nothing is zeroed
    rng = np.random.default_rng(50 + dim)
    A = rng.uniform(-3, 3, size=(150, dim))
    B = rng.uniform(-3, 3, size=(1000, dim))
    for family, sv in zip(FAMILIES, (1.0, 0.4, 2.7, 1.0)):
        spec = spec_for(family, tuple(rng.uniform(1.0, 3.0, dim)), sv=sv)
        for P, Q in ((A, B), (B, A), (A, A)):
            assert np.array_equal(kernel_matrix(spec, P, Q), out_of_place_kernel(spec, P, Q))


def exp_factor(spec, A, B):
    """The exp factor of out_of_place_kernel: exp(-d^2/2), exp(-d^p/2) or exp(-a)."""
    d2 = reference_sqdist(spec, A, B)
    if spec.family == "squared-exponential":
        return np.exp(-0.5 * d2)
    d = np.sqrt(d2)
    if spec.family == "power-exponential":
        return np.exp(-0.5 * d**spec.power)
    return np.exp(-math.sqrt(3.0 if spec.family == "matern-3/2" else 5.0) * d)


@pytest.mark.parametrize("sv", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("lengthscale", [0.01, 1e-200])
def test_far_points_give_exact_zeros(sv, lengthscale):
    # every pair at least 10 apart: 1000 lengthscales, or a scaled distance
    # past overflow
    A = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, -10.0]])
    B = A + 20.0
    for family in FAMILIES:
        K = kernel_matrix(spec_for(family, (lengthscale,) * 2, sv=sv), A, B)
        assert np.all(K == 0.0) and not np.signbit(K).any()


@pytest.mark.parametrize("family, lengthscale, sv", [
    ("matern-5/2", 1e-200, 1e10),  # distances past overflow, clamped
    ("matern-5/2", 3e-153, 1e10),  # a^2 past overflow, about 4.4e308
    ("matern-5/2", 2.8e-148, 1e10),  # squared distances of about 1e298
    ("matern-3/2", 1e-200, 1e160),  # distances past overflow
    ("matern-3/2", 1e-150, 1e160),
])
def test_matern_past_the_floor_is_zero_where_the_polynomial_is_near_or_past_overflow(
        family, lengthscale, sv):
    # the polynomial is about 1e298 or more here, and inf where a^2 or the
    # distance overflows; inf times the zero exp factor would be nan
    A = np.array([[0.0, 0.0], [1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K = kernel_matrix(spec_for(family, (lengthscale,) * 2, sv=sv), A, A + 20.0)
    assert np.all(K == 0.0) and not np.signbit(K).any()


def test_matern_short_of_the_floor_keeps_its_bits_where_the_polynomial_overflows():
    # the far pairs have finite squared distances, about 9e307, but a^2 and
    # so the polynomial overflow; a pair 5 lengthscales apart, and each
    # point with itself, is the formula's
    spec = spec_for("matern-5/2", (3e-153,) * 2, sv=1e10)
    A = np.array([[0.0, 0.0], [1.0, 1.0]])
    B = np.vstack([A + 20.0, A, A + 1.06e-152])
    got = kernel_matrix(spec, A, B)
    with np.errstate(over="ignore", invalid="ignore"):
        want = out_of_place_kernel(spec, A, B)
    near = want > 0.0
    assert np.isnan(want).any() and near.sum() == 4
    assert np.array_equal(got[near], want[near])
    assert np.all(got[~near] == 0.0) and not np.signbit(got).any()


@pytest.mark.parametrize("sv", [2.0**-511, 0.01, 1.0, 100.0])
def test_no_subnormal_entries_and_normal_ones_unchanged(sv):
    # distances swept through the bands where each family's exp factor falls
    # below the floor 2^-511 and where the formula's entry leaves the normal
    # range: an exp factor below the floor is an exact 0, every other entry
    # is the formula's, and none is subnormal, down to the smallest sv
    tiny = np.finfo(float).tiny
    A = np.linspace(0.0, 420.0, 42001)[:, None]
    B = np.array([[0.0], [0.013]])
    for family in FAMILIES:
        spec = spec_for(family, sv=sv)
        got = kernel_matrix(spec, A, B)
        with np.errstate(under="ignore"):
            want = out_of_place_kernel(spec, A, B)
            factor = exp_factor(spec, A, B)
        kept = factor >= _FLOOR
        # the sweep reaches the subnormal band of the formula and the
        # entries that only the floor zeroes
        assert np.any((want > 0.0) & (want < tiny))
        assert np.any(~kept & (want > 0.0))
        assert np.array_equal(got[kept], want[kept])
        assert np.all(got[~kept] == 0.0) and not np.signbit(got).any()
        assert np.all((got == 0.0) | (got >= tiny))
        assert np.array_equal(got.T, kernel_matrix(spec, B, A))


def masked_floored_exp(E):
    """The floor as a masked formula: arguments below _LOG_FLOOR are masked,
    zeroed, taken through exp and zeroed again."""
    keep = E >= _LOG_FLOOR
    np.copyto(E, 0.0, where=~keep)
    np.exp(E, out=E)
    E *= keep


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_clamped_floor_keeps_the_bits_of_the_masked_formula():
    # the floor argument, the double below it, an overflowed distance
    # (-0.5 * inf), and a sweep across the floor and the subnormal range
    rng = np.random.default_rng(5)
    E = np.concatenate([[_LOG_FLOOR, _BELOW_LOG_FLOOR, np.nextafter(_LOG_FLOOR, 0.0),
                         -math.inf, 0.0, -0.0], np.linspace(-760.0, 0.0, 7601),
                        rng.uniform(-400.0, -300.0, 4001)]).reshape(-1, 2)
    got, want = E.copy(), E.copy()
    _floored_exp(got)
    masked_floored_exp(want)
    assert same_bits(got, want)
    assert got[0, 0] >= _FLOOR and got[0, 1] == 0.0


@pytest.mark.parametrize("family", ["squared-exponential", "matern-3/2"])
@pytest.mark.parametrize("sv", [1.0, 100.0])
def test_covariance_keeps_the_bits_of_the_masked_floor(monkeypatch, family, sv):
    # squared distances whose exp arguments land on _LOG_FLOOR and on the
    # double below it, their neighbours, a distance past overflow, and a
    # sweep; the covariance is the correlation times sv, as kernel_matrix
    # applies it
    x = np.array([_LOG_FLOOR, _BELOW_LOG_FLOOR])
    edge = -2.0 * x if family == "squared-exponential" else x**2 / 3.0
    near = (edge[:, None] + np.arange(-40, 41) * np.spacing(edge)[:, None]).ravel()
    d2 = np.concatenate([near, [math.inf, 0.0], np.linspace(0.0, 1e5, 2001)]).reshape(-1, 5)
    if family == "squared-exponential":
        args = -0.5 * d2
    else:
        args = -(np.sqrt(d2) * math.sqrt(3.0))
    assert np.any(args == _LOG_FLOOR) and np.any(args == _BELOW_LOG_FLOOR)
    got = _correlation(d2.copy(), family, None, d2.max()) * sv
    monkeypatch.setattr("probo.kernels._floored_exp", masked_floored_exp)
    want = _correlation(d2.copy(), family, None, d2.max()) * sv
    assert same_bits(got, want)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("scales, svs", [
    ((1.0,) * 5, np.geomspace(1e-2, 1e2, 5)),  # no guard
    ((1e-2,) * 5, np.geomspace(1e2, 1e-2, 5)),  # the floor guard
    ((1.0, 1e-3, 1.0, 1e-3, 1.0), np.geomspace(1e-2, 1e2, 5)),  # the guard on some
    ((1e-2,) * 3, (1e2, 2.0**-511, 1e2)),  # the guard, and the smallest sv
])
def test_covariance_of_a_stack_keeps_each_rows_bits(monkeypatch, family, scales, svs):
    # a stacked _correlation over the Gram matrices of several kernels equals
    # one call per block, bit for bit; times each block's signal variance, as
    # the likelihood search applies it, it is each kernel's kernel_matrix
    rng = np.random.default_rng(31)
    X = rng.uniform(-1.0, 1.0, size=(9, 2))
    power = 1.5 if family == "power-exponential" else None
    svs = np.asarray(svs)
    lengthscales = np.asarray(scales)[:, None] * rng.uniform(0.5, 2.0, size=(len(svs), 2))
    stack = np.stack([_sqdist(X / ls, X / ls) for ls in lengthscales])
    want = [_correlation(d2.copy(), family, power, d2.max()) for d2 in stack]
    passes = []
    monkeypatch.setattr("probo.kernels._floored_exp",
                        lambda E: passes.append(E.shape) or _floored_exp(E))
    n = len(X)
    got = _correlation(stack.reshape(-1, n), family, power, stack.max())
    assert same_bits(got, np.concatenate(want))
    guarded = min(scales) < 1.0
    assert bool(passes) == guarded == bool((got == 0.0).any())
    for K, ls, sv in zip(got.reshape(stack.shape) * svs[:, None, None], lengthscales, svs):
        spec = KernelSpec(family, tuple(ls), float(sv), power)
        assert same_bits(K, kernel_matrix(spec, X, X))


def test_cross_covariance_at_training_point_is_signal_variance():
    spec = spec_for("matern-3/2", (1.0,), sv=1.7)
    X = np.array([[0.0], [2.0]])
    kx = kernel_matrix(spec, X, np.array([[2.0]]))
    assert kx.shape == (2, 1)
    assert kx[1, 0] == pytest.approx(1.7, abs=1e-14)


# ---------------------------------------------------------- jitter policy

def test_jitter_escalates_then_errors(monkeypatch):
    spec = spec_for("squared-exponential", sv=2.0)
    attempts = []

    def always_fail(K, lower):
        attempts.append(K[0, 0])
        raise LinAlgError("forced")

    monkeypatch.setattr("probo.kernels._cholesky", always_fail)
    with pytest.raises(ConditioningError) as err:
        build_base_kernel_matrix(spec, np.array([[0.0], [1.0]]))
    # escalation: 1e-10*sv, 1e-9*sv, ..., 1e-6*sv
    assert len(attempts) == 5
    assert err.value.jitter == pytest.approx(JITTER_MAX * 2.0)
    assert "positive definite" in str(err.value)


def test_jitter_stops_escalating_on_success(monkeypatch):
    spec = spec_for("squared-exponential")
    real = __import__("scipy.linalg", fromlist=["cholesky"]).cholesky
    calls = {"n": 0}

    def flaky(K, lower):
        calls["n"] += 1
        if calls["n"] < 3:
            raise LinAlgError("forced")
        return real(K, lower=lower)

    monkeypatch.setattr("probo.kernels._cholesky", flaky)
    K = build_base_kernel_matrix(spec, np.array([[0.0], [1.0]]))
    assert K.jitter == pytest.approx(JITTER_INITIAL * 100)


@pytest.mark.parametrize("sv", [1.0, 1e-150])
def test_an_asymmetric_gram_matrix_trips_the_symmetry_check(sv):
    # the check is exact, so it holds at every scale: at sv = 1e-150 every
    # covariance, and so every asymmetry, is far below an absolute tolerance
    # such as 1e-12
    spec = spec_for("matern-5/2", sv=sv)
    X = np.array([[0.0], [0.7], [1.5]])
    K = kernel_matrix(spec, X, X)
    L, jitter = _jittered_cholesky(K.copy(), sv, spec.lengthscales)
    assert np.array_equal(L, build_base_kernel_matrix(spec, X).cholesky)
    assert jitter == JITTER_INITIAL * sv
    K[0, 1] *= 1.0 + 2.0**-52
    with pytest.raises(AssertionError):
        _jittered_cholesky(K, sv, spec.lengthscales)

