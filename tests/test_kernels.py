import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError

from probo.errors import ConditioningError, ConfigError, DimensionMismatchError
from probo.kernels import (
    FAMILIES,
    JITTER_INITIAL,
    JITTER_MAX,
    KernelSpec,
    build_base_kernel_matrix,
    kernel_matrix,
    _as_points,
    _check_training_points,
    _scaled_sqdist,
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


def test_duplicate_points_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        _check_training_points(np.array([[0.0], [1e-11]]))


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
    got, want = _scaled_sqdist(spec, A, B), reference_sqdist(spec, A, B)
    if dim == 1:
        assert np.array_equal(got, want)
    else:
        # the per-dimension sum may round differently from the tensor reduction
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)


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
        return sv * (1.0 + a) * np.exp(-a)
    a = math.sqrt(5.0) * d
    return sv * (1.0 + a + a * a / 3.0) * np.exp(-a)


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
        for P, Q in ((A, B), (A, A)):
            assert np.array_equal(kernel_matrix(spec, P, Q), out_of_place_kernel(spec, P, Q))


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
        with np.errstate(over="ignore"):
            K = kernel_matrix(spec_for(family, (lengthscale,) * 2, sv=sv), A, B)
        assert np.all(K == 0.0) and not np.signbit(K).any()


@pytest.mark.parametrize("sv", [0.01, 1.0, 100.0])
def test_no_subnormal_entries_and_normal_ones_unchanged(sv):
    # distances swept through the band where each family's exp factor, or
    # the entry itself, leaves the normal range
    tiny = np.finfo(float).tiny
    A = np.concatenate([np.linspace(0.0, 40.0, 4001), np.linspace(120.0, 130.0, 2001),
                        np.linspace(300.0, 420.0, 12001)])[:, None]
    B = np.array([[0.0], [0.013]])
    for family in FAMILIES:
        spec = spec_for(family, sv=sv)
        got = kernel_matrix(spec, A, B)
        with np.errstate(under="ignore"):
            want = out_of_place_kernel(spec, A, B)
            normal = (exp_factor(spec, A, B) >= tiny) & (want >= tiny)
        assert np.any((want > 0.0) & (want < tiny))  # the sweep reaches the band
        assert not np.any((got > 0.0) & (got < tiny))
        assert np.array_equal(got[normal], want[normal])
        assert np.all(got[~normal] == 0.0)
        assert np.array_equal(got.T, kernel_matrix(spec, B, A))


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
