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
    return float(kernel_matrix(spec, [x], [xp])[0, 0])


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
    spec = spec_for("squared-exponential", (1.0, 1.0))
    with pytest.raises(DimensionMismatchError):
        kernel_matrix(spec, [[0.0]], [[0.0, 1.0]])
    with pytest.raises(DimensionMismatchError):
        kernel_matrix(spec, np.zeros((3, 2)), [[0.0]])


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


def test_spec_dict_round_trip():
    spec = KernelSpec(family="power-exponential", lengthscales=(0.5, 2.0),
                      signal_variance=1.5, power=1.2)
    assert KernelSpec.from_dict(spec.to_dict()) == spec


def test_spec_from_config_mapping():
    # a single lengthscale, under either key, is repeated per dimension
    want = KernelSpec(family="squared-exponential", lengthscales=(0.5, 0.5, 0.5))
    assert KernelSpec.from_dict({"lengthscale": 0.5}, 3) == want
    assert KernelSpec.from_dict({"lengthscales": [0.5]}, 3) == want
    assert KernelSpec.from_dict({}, 2).lengthscales == (1.0, 1.0)
    with pytest.raises(ConfigError, match="bogus"):
        KernelSpec.from_dict({"bogus": 1}, 1)
    with pytest.raises(ConfigError):
        KernelSpec.from_dict({"lengthscale": 1.0, "lengthscales": [2.0]}, 1)


# ------------------------------------------------------------ base matrix

def test_single_point_matrix_is_variance_plus_jitter():
    spec = spec_for("squared-exponential", sv=2.0)
    K = build_base_kernel_matrix(spec, [[0.5]])
    assert K.matrix.shape == (1, 1)
    assert K.matrix[0, 0] == pytest.approx(2.0 + K.jitter, abs=1e-15)
    assert K.jitter == pytest.approx(JITTER_INITIAL * 2.0)


def test_two_point_matrix_hand_computed():
    spec = spec_for("squared-exponential")
    K = build_base_kernel_matrix(spec, [[0.0], [1.0]])
    b = math.exp(-0.5)
    assert K.matrix[0, 1] == pytest.approx(b, abs=1e-15)
    assert K.matrix[1, 0] == pytest.approx(b, abs=1e-15)
    # diagonal carries the jitter
    assert K.matrix[0, 0] == pytest.approx(1.0 + K.jitter, abs=1e-15)
    # Cholesky factor reproduces the matrix
    assert np.allclose(K.cholesky @ K.cholesky.T, K.matrix, atol=1e-14)


def test_duplicate_points_rejected():
    spec = spec_for("squared-exponential")
    with pytest.raises(ValueError, match="duplicate"):
        build_base_kernel_matrix(spec, [[0.0], [1e-11]])


def test_gram_symmetric_and_psd_all_families():
    rng = np.random.default_rng(2)
    for family in FAMILIES:
        for dim in (1, 2, 4):
            spec = random_spec(rng, family, dim)
            X = rng.uniform(-3, 3, size=(rng.integers(2, 21), dim))
            K = build_base_kernel_matrix(spec, X)
            raw = K.matrix - K.jitter * np.eye(K.n)
            assert np.array_equal(raw, raw.T)
            assert np.linalg.eigvalsh(raw).min() >= -1e-10


def test_short_lengthscales_decorrelate():
    # off-diagonals shrink toward zero as lengthscales shrink, pair by pair
    rng = np.random.default_rng(3)
    X = rng.uniform(-2, 2, size=(6, 2))
    for family in FAMILIES:
        previous = None
        for scale in (2.0, 1.0, 0.5, 0.25, 0.1):
            spec = spec_for(family, (scale, scale))
            K = build_base_kernel_matrix(spec, X)
            off = K.matrix[np.triu_indices(6, k=1)]
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


def test_cross_covariance_at_training_point_is_signal_variance():
    spec = spec_for("matern-3/2", (1.0,), sv=1.7)
    X = np.array([[0.0], [2.0]])
    kx = kernel_matrix(spec, X, [[2.0]])
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
        build_base_kernel_matrix(spec, [[0.0], [1.0]])
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
    K = build_base_kernel_matrix(spec, [[0.0], [1.0]])
    assert K.jitter == pytest.approx(JITTER_INITIAL * 100)
