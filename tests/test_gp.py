import math

import numpy as np
import pytest

from probo.gp import (
    GpModel,
    MeanSpec,
    fit_gp,
    fit_hyperparameters,
    log_marginal_likelihood,
    predict_batch,
)
from probo.kernels import FAMILIES, KernelSpec, kernel_matrix


def spec_for(family, lengthscales=(1.0,), sv=1.0):
    power = 1.5 if family == "power-exponential" else None
    return KernelSpec(family=family, lengthscales=lengthscales,
                      signal_variance=sv, power=power)


def random_instance(rng, family, dim, n):
    """Random training set with points kept apart for stable conditioning."""
    spec = spec_for(family, lengthscales=tuple(rng.uniform(0.5, 2.0, dim)),
                    sv=rng.uniform(0.5, 3.0))
    while True:
        X = rng.uniform(-3, 3, size=(n, dim))
        if n == 1:
            break
        diff = X[:, None, :] - X[None, :, :]
        d = np.sqrt((diff**2).sum(-1))[np.triu_indices(n, 1)]
        if d.min() > 0.3:
            break
    y = rng.normal(size=n)
    return spec, X, y


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


# ----------------------------------------------------------------- fitting

def test_zero_targets_give_zero_trend_and_weights():
    model = fit_gp(spec_for("squared-exponential"), MeanSpec(), [[0.0], [1.0]], [0.0, 0.0])
    assert model.beta_hat == 0.0
    assert np.allclose(model.alpha, 0.0, atol=1e-15)


def test_two_exchangeable_points_estimate_average_trend():
    # equal-diagonal 2x2 kernel matrix makes s_k proportional to ones
    for family in FAMILIES:
        model = fit_gp(spec_for(family), MeanSpec(), [[0.0], [1.0]], [1.0, 4.0])
        assert model.beta_hat == pytest.approx(2.5, abs=1e-10)


def test_single_point_trend_is_the_observation():
    model = fit_gp(spec_for("matern-3/2"), MeanSpec(), [[2.0]], [3.7])
    assert model.beta_hat == pytest.approx(3.7, abs=1e-12)


def test_alpha_solves_the_kriging_system():
    rng = np.random.default_rng(5)
    spec, X, y = random_instance(rng, "squared-exponential", 2, 8)
    model = fit_gp(spec, MeanSpec(), X, y)
    residual = model.K.matrix @ model.alpha - (y - model.beta_hat)
    assert np.abs(residual).max() < 1e-8
    assert model.S_k > 0


def test_fixed_mean_coefficient_counts():
    MeanSpec(form="linear-fixed", coefficients=(0.0, 1.0)).validate_for_dimension(1)
    with pytest.raises(ValueError):
        MeanSpec(form="linear-fixed", coefficients=(0.0,)).validate_for_dimension(1)
    with pytest.raises(ValueError):
        MeanSpec(form="quadratic-fixed", coefficients=(0.0, 1.0)).validate_for_dimension(1)
    with pytest.raises(ValueError):
        MeanSpec(form="constant-estimated", coefficients=(1.0,))


def test_target_length_must_match():
    with pytest.raises(ValueError):
        fit_gp(spec_for("squared-exponential"), MeanSpec(), [[0.0], [1.0]], [1.0])


# -------------------------------------------------------------- prediction

def test_interpolates_training_data_all_kernels():
    rng = np.random.default_rng(6)
    for family in FAMILIES:
        for _ in range(5):
            n = int(rng.integers(2, 21))
            spec, X, y = random_instance(rng, family, 2, n)
            model = fit_gp(spec, MeanSpec(), X, y)
            mu, var = predict_batch(model, X)
            assert np.all(np.abs(mu - y) <= 1e-8)
            assert np.all((0.0 <= var) & (var <= 1e-8))


def test_single_training_point_predicts_constant():
    # with one point the GLS constant equals y1, so mu is y1 everywhere
    model = fit_gp(spec_for("squared-exponential"), MeanSpec(), [[0.0]], [2.2])
    mu, _ = predict_batch(model, [[-3.0], [0.0], [0.7], [10.0]])
    assert np.allclose(mu, 2.2, rtol=0.0, atol=1e-10)


def test_matches_dense_conditioning_oracle():
    rng = np.random.default_rng(7)
    for family in FAMILIES:
        for _ in range(4):
            dim = int(rng.integers(1, 4))
            n = int(rng.integers(1, 6))
            spec, X, y = random_instance(rng, family, dim, n)
            model = fit_gp(spec, MeanSpec(), X, y)
            P = rng.uniform(-3, 3, size=(3, dim))
            mu, var = predict_batch(model, P)
            for i, x in enumerate(P):
                mu_o, var_o = oracle_predict(spec, MeanSpec(), X, y, x)
                assert mu[i] == pytest.approx(mu_o, abs=1e-8)
                assert var[i] == pytest.approx(var_o, abs=1e-8)


def test_fixed_mean_matches_oracle():
    rng = np.random.default_rng(8)
    mean = MeanSpec(form="linear-fixed", coefficients=(0.5, -1.0, 2.0))
    spec, X, y = random_instance(rng, "matern-5/2", 2, 5)
    model = fit_gp(spec, mean, X, y)
    P = rng.uniform(-3, 3, size=(4, 2))
    mu, var = predict_batch(model, P)
    for i, x in enumerate(P):
        mu_o, var_o = oracle_predict(spec, mean, X, y, x)
        assert mu[i] == pytest.approx(mu_o, abs=1e-8)
        assert var[i] == pytest.approx(var_o, abs=1e-8)


def test_quadratic_mean_values():
    mean = MeanSpec(form="quadratic-fixed", coefficients=(1.0, 2.0, 3.0, 4.0, 5.0))
    X = np.array([[1.0, 2.0]])
    # 1 + 2*1 + 3*2 + 4*1 + 5*4 = 33
    assert mean.values(X)[0] == pytest.approx(33.0)


def test_far_field_reverts_to_estimated_constant():
    rng = np.random.default_rng(9)
    spec, X, y = random_instance(rng, "squared-exponential", 1, 6)
    model = fit_gp(spec, MeanSpec(), X, y)
    assert predict_batch(model, [[1e3]])[0][0] == pytest.approx(model.beta_hat, abs=1e-6)


def test_estimated_constant_variance_dominates_plain_conditional():
    rng = np.random.default_rng(10)
    spec, X, y = random_instance(rng, "matern-3/2", 2, 6)
    est = fit_gp(spec, MeanSpec(), X, y)
    fixed = fit_gp(spec, MeanSpec(form="constant-fixed", coefficients=(0.0,)), X, y)
    P = rng.uniform(-4, 4, size=(10, 2))
    assert np.all(predict_batch(est, P)[1] >= predict_batch(fixed, P)[1] - 1e-12)


def test_predict_batch_agrees_with_scalar_path():
    rng = np.random.default_rng(11)
    spec, X, y = random_instance(rng, "power-exponential", 2, 7)
    model = fit_gp(spec, MeanSpec(), X, y)
    P = rng.uniform(-3, 3, size=(9, 2))
    mu, var = predict_batch(model, P)
    for i in range(9):
        mu_i, var_i = predict_batch(model, P[i])
        assert mu[i] == pytest.approx(mu_i[0], abs=1e-12)
        assert var[i] == pytest.approx(var_i[0], abs=1e-12)


# ---------------------------------------------------------------- evidence

def test_log_marginal_likelihood_single_zero_observation():
    spec = spec_for("squared-exponential", sv=1.0)
    model = fit_gp(spec, MeanSpec(form="constant-fixed", coefficients=(0.0,)),
                   [[0.0]], [0.0])
    expected = -0.5 * math.log(2 * math.pi) - 0.5 * math.log(1.0 + model.K.jitter)
    assert log_marginal_likelihood(model) == pytest.approx(expected, abs=1e-12)


def test_log_marginal_likelihood_permutation_invariant():
    rng = np.random.default_rng(12)
    spec, X, y = random_instance(rng, "matern-5/2", 2, 6)
    a = log_marginal_likelihood(fit_gp(spec, MeanSpec(), X, y))
    perm = rng.permutation(6)
    b = log_marginal_likelihood(fit_gp(spec, MeanSpec(), X[perm], y[perm]))
    assert a == pytest.approx(b, abs=1e-9)


def test_log_marginal_likelihood_matches_dense_formula():
    rng = np.random.default_rng(13)
    for _ in range(5):
        spec, X, y = random_instance(rng, "squared-exponential", 2, 5)
        model = fit_gp(spec, MeanSpec(), X, y)
        K = np.asarray(model.K.matrix)
        resid = y - model.beta_hat
        sign, logdet = np.linalg.slogdet(K)
        expected = (-0.5 * resid @ np.linalg.solve(K, resid)
                    - 0.5 * logdet - 2.5 * math.log(2 * math.pi))
        assert sign > 0
        assert log_marginal_likelihood(model) == pytest.approx(expected, abs=1e-8)


# ----------------------------------------------------- hyperparameter fit

def test_budget_one_returns_the_single_candidate_deterministically():
    rng = np.random.default_rng(14)
    X = rng.uniform(-2, 2, size=(6, 1))
    y = rng.normal(size=6)
    a = fit_hyperparameters("squared-exponential", MeanSpec(), X, y, budget=1, seed=3)
    b = fit_hyperparameters("squared-exponential", MeanSpec(), X, y, budget=1, seed=3)
    assert a == b


def test_bigger_budget_never_hurts():
    # same seed draws the same candidate prefix, so the argmax is monotone
    rng = np.random.default_rng(15)
    X = rng.uniform(-2, 2, size=(8, 1))
    y = np.sin(X[:, 0])
    scores = []
    for budget in (1, 5, 25):
        spec = fit_hyperparameters("squared-exponential", MeanSpec(), X, y,
                                   budget=budget, seed=4)
        scores.append(log_marginal_likelihood(fit_gp(spec, MeanSpec(), X, y)))
    assert scores[0] <= scores[1] <= scores[2]


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        fit_hyperparameters("squared-exponential", MeanSpec(), [[0.0]], [0.0], budget=0)


def test_recovers_known_lengthscale():
    # draw from a known 1-D GP (lengthscale 1) and check the search lands
    # within a factor of two; values frozen for this seed
    rng = np.random.default_rng(16)
    X = np.sort(rng.uniform(-5, 5, size=30))[:, None]
    true = KernelSpec(family="squared-exponential", lengthscales=(1.0,))
    K = kernel_matrix(true, X, X)
    y = np.linalg.cholesky(K + 1e-10 * np.eye(30)) @ rng.normal(size=30)
    spec = fit_hyperparameters("squared-exponential", MeanSpec(), X, y,
                               budget=150, seed=5)
    assert 0.5 <= spec.lengthscales[0] <= 2.0
