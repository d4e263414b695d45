import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_solve, cholesky
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dtrtri
from scipy.spatial.distance import cdist

from probo import gp
from probo.errors import ConditioningError, ConfigError, DimensionMismatchError, ProboError
from probo.gp import (
    SEARCH_RANGE,
    GpModel,
    MeanSpec,
    fit_gp,
    fit_hyperparameters,
    predict_batch,
    _solve_terms,
)
from probo.functions import registry_lookup
from probo.igp import ImpreciseGpSpec, mean_width_batch
from probo.kernels import FAMILIES, KernelSpec, kernel_matrix, _cholesky

from oracles import log_marginal_likelihood, oracle_predict


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
    K = kernel_matrix(spec, X, X) + model.K.jitter * np.eye(len(X))
    residual = K @ model.alpha - (y - model.beta_hat)
    assert np.abs(residual).max() < 1e-8
    assert model.S_k > 0


def test_unknown_mean_form_is_rejected():
    with pytest.raises(ValueError, match="unknown mean form 'cubic-fixed'"):
        MeanSpec(form="cubic-fixed", coefficients=(0.0,))


def test_fixed_mean_coefficient_counts():
    MeanSpec(form="linear-fixed", coefficients=(0.0, 1.0)).validate_for_dimension(1)
    with pytest.raises(ValueError):
        MeanSpec(form="linear-fixed", coefficients=(0.0,)).validate_for_dimension(1)
    with pytest.raises(ValueError):
        MeanSpec(form="quadratic-fixed", coefficients=(0.0, 1.0)).validate_for_dimension(1)
    with pytest.raises(ValueError):
        MeanSpec(form="constant-estimated", coefficients=(1.0,))


@pytest.mark.parametrize("coefficients", [
    5, "5", (True,), (math.nan,), (math.inf,), ((1.0, 2.0),), None])
def test_mean_coefficients_are_a_flat_list_of_finite_reals(coefficients):
    with pytest.raises(ValueError, match="coefficients"):
        MeanSpec(form="constant-fixed", coefficients=coefficients)


def test_mean_coefficients_accept_numpy_numbers():
    mean = MeanSpec(form="linear-fixed", coefficients=np.array([0.5, -1.0]))
    assert mean.coefficients == (0.5, -1.0)
    assert MeanSpec(form="constant-fixed", coefficients=[np.float64(2)]).coefficients == (2.0,)


def test_target_length_must_match():
    with pytest.raises(ValueError):
        fit_gp(spec_for("squared-exponential"), MeanSpec(), [[0.0], [1.0]], [1.0])


def test_wrong_dimension_rejected():
    spec = spec_for("squared-exponential", (1.0, 1.0))
    with pytest.raises(DimensionMismatchError):
        fit_gp(spec, MeanSpec(), [[0.0], [1.0]], [0.0, 1.0])
    model = fit_gp(spec, MeanSpec(), [[0.0, 0.0], [1.0, 1.0]], [0.0, 1.0])
    for P in ([[0.0]], np.zeros((3, 3))):
        with pytest.raises(DimensionMismatchError):
            predict_batch(model, P)


def test_a_dimension_mismatch_and_a_non_finite_point_are_both_value_errors():
    spec = spec_for("squared-exponential", (1.0, 1.0))
    for X in ([[0.0], [1.0]], [[0.0, 0.0], [1.0, math.inf]]):
        with pytest.raises(ValueError):
            fit_gp(spec, MeanSpec(), X, [0.0, 1.0])


def test_a_training_point_that_its_lengthscale_scales_past_overflow_is_rejected():
    # 2e10 / 1e-300 is inf, whose distance to itself is inf - inf = NaN
    with pytest.raises(ValueError, match=r"training points: lengthscales \(1e-300,\) "
                                         r"scale its bound 20000000000\.0 past overflow"):
        fit_gp(KernelSpec(lengthscales=(1e-300,)), MeanSpec(), [[1e10], [2e10]], [1, 2])
    model = fit_gp(KernelSpec(lengthscales=(1e-297,)), MeanSpec(), [[1e10], [2e10]], [1, 2])
    # at 1e-297 the points scale to 1e307 and 2e307, uncorrelated
    assert np.array_equal(kernel_matrix(model.kernel, model.X, model.X), np.eye(2))


def test_the_search_checks_the_points_at_its_smallest_lengthscale():
    # each drawn lengthscale is at least SEARCH_RANGE[0] = 0.01, which scales
    # 1e307 past overflow, and 1e306 not
    with pytest.raises(ValueError, match=r"training points: lengthscales \(0\.01,\) "
                                         r"scale its bound 1e\+307 past overflow"):
        fit_hyperparameters(KernelSpec(), MeanSpec(), [[1e307], [-1e307]], [1, 2], 5)
    got = fit_hyperparameters(KernelSpec(), MeanSpec(), [[1e306], [-1e306]], [1, 2], 5)
    assert SEARCH_RANGE[0] <= min(got.lengthscales)


@pytest.mark.parametrize("family", FAMILIES)
def test_a_prediction_point_scaled_past_overflow_is_uncorrelated(family):
    # predict_batch and mean_width_batch check no scale: the infinite scaled
    # point is at distance inf from every training point, so its covariances
    # are 0, and the suite's filter fails any overflow warning on the way
    for dim in (1, 2):
        model = fit_gp(spec_for(family, (1e-2,) * dim, sv=1.7), MeanSpec(),
                       [[0.0] * dim, [1.0] * dim], [1.0, 2.0])
        points = [[1e307] + [0.0] * (dim - 1), [0.5] * dim]
        mu, var = predict_batch(model, points)
        assert mu[0] == model.beta_hat and var[0] == 1.7 + 1.0 / model.S_k
        assert np.isfinite(mu).all() and np.isfinite(var).all()
        imprecise = ImpreciseGpSpec(c=1.0, model=model)
        width = mean_width_batch(imprecise, points)
        assert width[0] == imprecise.factor / model.S_k and np.isfinite(width).all()


@pytest.mark.parametrize("gap", [0.0, 1e-11])
def test_near_duplicate_training_points_rejected(gap):
    spec = spec_for("squared-exponential")
    X, y = [[0.0], [1.0], [1.0 + gap]], [0.0, 1.0, 1.0]
    message = re.escape(f"near-duplicate rows (min pairwise distance {gap:.3e} < 1e-10)")
    with pytest.raises(ValueError, match=message):
        fit_gp(spec, MeanSpec(), X, y)
    with pytest.raises(ValueError, match=message):
        fit_hyperparameters(spec, MeanSpec(), X, y, budget=3)


def test_no_training_points_rejected():
    spec = spec_for("squared-exponential", (1.0, 1.0))
    with pytest.raises(ValueError, match="at least one training point is required"):
        fit_gp(spec, MeanSpec(), np.empty((0, 2)), [])
    with pytest.raises(ValueError, match="at least one training point is required"):
        fit_hyperparameters(spec, MeanSpec(), np.empty((0, 2)), [], budget=3)


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


def test_variance_matches_two_sided_solve():
    # predict_batch takes v = L^-1 Kx; the reference solves K^-1 Kx in full
    rng = np.random.default_rng(17)
    for mean in (MeanSpec(), MeanSpec(form="constant-fixed", coefficients=(0.3,))):
        for family in FAMILIES:
            spec, X, y = random_instance(rng, family, 3, 12)
            model = fit_gp(spec, mean, X, y)
            P = rng.uniform(-3, 3, size=(40, 3))
            Kx = kernel_matrix(spec, X, P)
            var = spec.signal_variance - np.einsum(
                "ij,ij->j", Kx, cho_solve((model.K.cholesky, True), Kx))
            if mean.form == "constant-estimated":
                var = var + (1.0 - Kx.T @ model.s_k) ** 2 / model.S_k
            mu, got = predict_batch(model, P)
            assert np.array_equal(mu, model.beta_hat + mean.values(P) + Kx.T @ model.alpha)
            assert np.abs(got - np.maximum(var, 0.0)).max() <= 1e-12


def long_double_forward_substitution(L, B):
    """L^-1 B by row-wise forward substitution in extended precision."""
    L, B = L.astype(np.longdouble), B.astype(np.longdouble)
    V = np.zeros_like(B)
    for i in range(L.shape[0]):
        V[i] = (B[i] - L[i, :i] @ V[:i]) / L[i, i]
    return V


def gramacy_lee_model(lengthscale):
    rng = np.random.default_rng(19)
    X = rng.uniform(0.5, 2.5, size=(60, 1))
    y = np.sin(10 * np.pi * X[:, 0]) / (2 * X[:, 0]) + (X[:, 0] - 1) ** 4
    return fit_gp(spec_for("squared-exponential", (lengthscale,)), MeanSpec(), X, y)


@pytest.mark.parametrize("lengthscale", [0.1, 1.0])
def test_variance_matches_extended_precision_substitution(lengthscale):
    model = gramacy_lee_model(lengthscale)
    P = np.linspace(0.5, 2.5, 301)[:, None]
    Kx = kernel_matrix(model.kernel, model.X, P)
    v = long_double_forward_substitution(model.K.cholesky, Kx)
    var = model.kernel.signal_variance - (v * v).sum(axis=0).astype(float)
    var = var + (1.0 - Kx.T @ model.s_k) ** 2 / model.S_k
    _, got = predict_batch(model, P)
    assert np.abs(got - np.maximum(var, 0.0)).max() <= 1e-11


@pytest.mark.parametrize("lengthscale", [0.1, 1.0])
def test_cached_inverse_factor(lengthscale):
    model = gramacy_lee_model(lengthscale)
    with pytest.raises(ValueError):
        model.L_inv[0, 0] = 1.0
    assert np.all(np.triu(model.L_inv, 1) == 0.0)
    # left residual, which bounds the error in L^-1 k_x, within the
    # componentwise bound n eps |L^-1| |L| of a stable triangular inversion
    L, L_inv = model.K.cholesky, model.L_inv
    n = len(model.X)
    residual = L_inv.astype(np.longdouble) @ L.astype(np.longdouble) - np.eye(n)
    bound = n * np.finfo(float).eps * (np.abs(L_inv) @ np.abs(L))
    assert np.all(np.abs(residual) <= bound)
    assert np.abs(residual).max() <= 1e-10


def test_cached_inverse_factor_holds_no_subnormal_entry():
    # points 22 lengthscales apart: neighbours correlate at about 1e-105,
    # above the floor 2^-511, and the pairs between them not at all, so L^-1
    # picks up products of about 1e-210 and below, under the floor
    tiny, floor = np.finfo(float).tiny, 2.0**-511
    X = 22.0 * np.arange(6.0)[:, None]
    P = np.linspace(-1.0, 120.0, 4001)[:, None]
    for sv in (0.01, 1.0, 100.0):
        model = fit_gp(spec_for("squared-exponential", sv=sv), MeanSpec(), X, np.cos(X[:, 0]))
        raw, _ = dtrtri(model.K.cholesky, lower=1)
        dropped = (raw != 0.0) & (np.abs(raw) < floor / math.sqrt(sv))
        assert np.any(dropped & (np.abs(raw) >= tiny))
        assert np.any(dropped & (np.abs(raw) < tiny))
        assert np.all(model.L_inv[dropped] == 0.0)
        assert np.array_equal(model.L_inv[~dropped], raw[~dropped])
        # the dropped products reach no variance
        assert np.array_equal(predict_batch(model, P)[1],
                              predict_batch(replace(model, L_inv=raw), P)[1])


def tiny_floor_kernel(spec, A, B):
    """The squared-exponential kernel with only the subnormal floor: exp
    factors and entries below the smallest normal double are 0."""
    tiny = np.finfo(float).tiny
    ls = np.asarray(spec.lengthscales)
    with np.errstate(under="ignore"):
        factor = np.exp(-0.5 * cdist(A / ls, B / ls, "sqeuclidean"))
        factor[factor < tiny] = 0.0
        K = spec.signal_variance * factor
    K[K < tiny] = 0.0
    return K


def tiny_floor_scoring(model, P):
    """predict_batch's arithmetic on the tiny-floor kernel and the raw
    inverse factor, which no floor has touched."""
    Kx = tiny_floor_kernel(model.kernel, model.X, P)
    L_inv, _ = dtrtri(model.K.cholesky, lower=1)
    estimated = model.mean.form == "constant-estimated"
    mu = (model.beta_hat if estimated else model.mean.values(P)) + Kx.T @ model.alpha
    kriging = (1.0 - Kx.T @ model.s_k) ** 2 / model.S_k if estimated else 0.0
    with np.errstate(under="ignore"):
        v = dtrmm(1.0, L_inv, Kx.T, side=1, lower=1, trans_a=1, overwrite_b=1).T
        var = model.kernel.signal_variance - np.einsum("ij,ij->j", v, v) + kriging
    return mu, np.maximum(var, 0.0)


def rosenbrock_model(lengthscales, sv, mean=MeanSpec()):
    """A GP on 30 random rosenbrock-3d points, and 3,000 random box points
    plus one beside each datum to score."""
    target = registry_lookup("rosenbrock-3d")
    lo, hi = target.bounds.lower, target.bounds.upper
    rng = np.random.default_rng(0)
    X = rng.uniform(lo, hi, size=(30, 3))
    y = np.array([target(x) for x in X])
    P = np.concatenate([rng.uniform(lo, hi, size=(3000, 3)), X + rng.normal(0.0, 0.01, X.shape)])
    spec = KernelSpec(lengthscales=lengthscales, signal_variance=sv)
    return fit_gp(spec, mean, X, y), P


# the short end of SEARCH_RANGE, where a likelihood search on rosenbrock-3d
# picks its lengthscales
SHORT_LENGTHSCALES = [(0.05, 0.1, 0.2), (0.1, 0.1, 0.1), (0.2, 0.15, 0.1)]


@pytest.mark.parametrize("sv", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("lengthscales", SHORT_LENGTHSCALES)
def test_scoring_path_does_no_underflowing_products(lengthscales, sv):
    # every nonzero factor of the dtrmm product of predict_batch is at least
    # 2^-511 on its scale, sv for the kernel and 1 / sqrt(sv) for L^-1, so
    # no product underflows at sv >= 1; dropping the smaller ones moves no
    # bit of mu or var
    floor, eps = 2.0**-511, np.finfo(float).eps
    model, P = rosenbrock_model(lengthscales, sv)
    for K in (kernel_matrix(model.kernel, model.X, P), kernel_matrix(model.kernel, P, P[:300])):
        assert np.all(np.abs(K[K != 0.0]) / sv >= floor * (1.0 - 4.0 * eps))
    scaled = math.sqrt(sv) * np.abs(model.L_inv[model.L_inv != 0.0])
    assert np.all(scaled >= floor * (1.0 - 4.0 * eps))
    # the models reach the band between tiny and the floor in both factors
    Kx = tiny_floor_kernel(model.kernel, model.X, P)
    assert np.any((Kx != 0.0) & (Kx / sv < floor))
    raw, _ = dtrtri(model.K.cholesky, lower=1)
    assert np.any((raw != 0.0) & (math.sqrt(sv) * np.abs(raw) < floor))
    mu, var = predict_batch(model, P)
    want_mu, want_var = tiny_floor_scoring(model, P)
    assert np.array_equal(mu, want_mu)
    assert np.array_equal(var, want_var)


def test_a_point_past_the_floor_of_every_datum_gets_the_fixed_mean_exactly():
    # the one difference from the tiny floor: where every correlation with
    # the data is below 2^-511, mu is the trend itself, to which the tiny
    # floor added products of about 1e-159
    floor = 2.0**-511
    model, P = rosenbrock_model(SHORT_LENGTHSCALES[0], 1.0, MeanSpec("constant-fixed", (0.0,)))
    Kx = tiny_floor_kernel(model.kernel, model.X, P)
    far = np.all(Kx < floor, axis=0) & np.any(Kx > 0.0, axis=0)
    assert far.any()
    mu, _ = predict_batch(model, P)
    want_mu, _ = tiny_floor_scoring(model, P)
    assert np.all(mu[far] == 0.0) and not np.signbit(mu[far]).any()
    assert np.all(want_mu[far] != 0.0) and np.abs(want_mu[far]).max() < 1e-150
    # elsewhere mu moves only where the data barely reach it
    assert np.all(np.abs(want_mu[mu != want_mu]) < 1e-140)


def test_a_small_signal_variance_keeps_its_correlations():
    # the floor is on correlations, not on covariances: at sv = 1e-150 the
    # GP predicts what it does at sv = 1, where a floor of 2^-511 on the
    # entries themselves would zero most of those that reach the data
    sv = 1e-150
    for lengthscales in (SHORT_LENGTHSCALES[0], SHORT_LENGTHSCALES[2]):
        small, P = rosenbrock_model(lengthscales, sv)
        unit, _ = rosenbrock_model(lengthscales, 1.0)
        Kx = kernel_matrix(small.kernel, small.X, P[:3000])
        assert np.mean(Kx[Kx != 0.0] < 2.0**-511) > 0.5
        # away from the data, where var does not cancel
        mu, var = predict_batch(small, P[:3000])
        want_mu, want_var = predict_batch(unit, P[:3000])
        np.testing.assert_allclose(mu, want_mu, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(var / sv, want_var, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("mean", [MeanSpec(), MeanSpec("constant-fixed", (-1e308,))])
@pytest.mark.parametrize("lengthscale", [0.1, 1.0])
def test_targets_that_overflow_the_solves_fail_the_fit(mean, lengthscale):
    # finite targets near the double range overflow s_k'y or the residual;
    # the suite's filter fails any overflow warning on the way
    X = np.linspace(0.0, 1.0, 30)[:, None]
    y = 1e306 * np.sin(20.0 * X[:, 0])
    with pytest.raises(ProboError, match="not finite"):
        fit_gp(spec_for("squared-exponential", (lengthscale,)), mean, X, y)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_rejected(bad):
    rng = np.random.default_rng(23)
    spec, X, y = random_instance(rng, "matern-5/2", 2, 6)
    model = fit_gp(spec, MeanSpec(), X, y)
    P = rng.uniform(-3, 3, size=(4, 2))
    P[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        predict_batch(model, P)
    with pytest.raises(ValueError, match="finite"):
        predict_batch(model, P[2])
    X[3, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        fit_gp(spec, MeanSpec(), X, y)
    with pytest.raises(ValueError, match="finite"):
        fit_hyperparameters(spec, MeanSpec(), X, y, budget=3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_targets_rejected(bad):
    rng = np.random.default_rng(29)
    spec, X, y = random_instance(rng, "squared-exponential", 2, 6)
    y[4] = bad
    for mean in (MeanSpec(), MeanSpec(form="constant-fixed", coefficients=(0.3,))):
        with pytest.raises(ValueError, match="finite"):
            fit_gp(spec, mean, X, y)
        with pytest.raises(ValueError, match="finite"):
            fit_hyperparameters(spec, mean, X, y, budget=3)


@pytest.mark.parametrize("lengthscale", [0.1, 1.0])
def test_lapack_calls_match_scipy_bit_for_bit(lengthscale):
    # the factor and the solves call LAPACK directly; scipy's wrappers are
    # the reference
    model = gramacy_lee_model(lengthscale)
    X, y = model.X, model.y
    jittered = kernel_matrix(model.kernel, X, X) + model.K.jitter * np.eye(len(X))
    L = _cholesky(jittered.copy(), lower=True)
    assert np.array_equal(L, cholesky(jittered, lower=True))
    assert np.array_equal(model.K.cholesky, L)
    for mean in (MeanSpec(), MeanSpec(form="linear-fixed", coefficients=(0.5, -1.0))):
        fixed = None if mean.form == "constant-estimated" else y - mean.values(X)
        s_k, _, _, residual, alpha = _solve_terms(L, y, np.ones(len(X)), fixed)
        assert np.array_equal(s_k, cho_solve((L, True), np.ones(len(X))))
        assert np.array_equal(alpha, cho_solve((L, True), residual))


def test_factor_of_an_indefinite_matrix_is_a_linalg_error():
    with pytest.raises(LinAlgError):
        _cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]), lower=True)


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
        K = kernel_matrix(spec, X, X) + model.K.jitter * np.eye(len(X))
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
    se = spec_for("squared-exponential")
    a = fit_hyperparameters(se, MeanSpec(), X, y, budget=1, seed=3)
    b = fit_hyperparameters(se, MeanSpec(), X, y, budget=1, seed=3)
    assert a == b


def test_bigger_budget_never_hurts():
    # same seed draws the same candidate prefix, so the argmax is monotone
    rng = np.random.default_rng(15)
    X = rng.uniform(-2, 2, size=(8, 1))
    y = np.sin(X[:, 0])
    scores = []
    for budget in (1, 5, 25):
        spec = fit_hyperparameters(spec_for("squared-exponential"), MeanSpec(), X, y,
                                   budget=budget, seed=4)
        scores.append(log_marginal_likelihood(fit_gp(spec, MeanSpec(), X, y)))
    assert scores[0] <= scores[1] <= scores[2]


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        fit_hyperparameters(spec_for("squared-exponential"), MeanSpec(), [[0.0]], [0.0],
                            budget=0)


@pytest.mark.parametrize("budget", [2.5, True, "3", None])
def test_budget_must_be_an_integer(budget):
    with pytest.raises(ConfigError, match="budget must be an integer"):
        fit_hyperparameters(spec_for("squared-exponential"), MeanSpec(), [[0.0]], [0.0],
                            budget=budget)


def test_recovers_known_lengthscale():
    # draw from a known 1-D GP (lengthscale 1) and check the search lands
    # within a factor of two; values frozen for this seed
    rng = np.random.default_rng(16)
    X = np.sort(rng.uniform(-5, 5, size=30))[:, None]
    true = KernelSpec(family="squared-exponential", lengthscales=(1.0,))
    K = kernel_matrix(true, X, X)
    y = np.linalg.cholesky(K + 1e-10 * np.eye(30)) @ rng.normal(size=30)
    spec = fit_hyperparameters(spec_for("squared-exponential"), MeanSpec(), X, y,
                               budget=150, seed=5)
    assert 0.5 <= spec.lengthscales[0] <= 2.0


def search_draws(dim, budget, seed):
    """The (lengthscales, signal variance) of each of the search's candidates,
    drawn one generator call per lengthscale vector and one per signal
    variance."""
    rng = np.random.default_rng(seed)
    lo, hi = np.log(1e-2), np.log(1e2)
    for _ in range(budget):
        ls = tuple(np.exp(rng.uniform(lo, hi, size=dim)))
        yield ls, float(np.exp(rng.uniform(lo, hi)))


def brute_force_search(family, mean, X, y, budget, seed, skip=0, power=None):
    """Argmax of log_marginal_likelihood(fit_gp(...)) over the search's draws,
    leaving out the first `skip` candidates."""
    best, best_lml = None, -np.inf
    for i, (ls, sv) in enumerate(search_draws(X.shape[1], budget, seed)):
        spec = KernelSpec(family=family, lengthscales=ls, signal_variance=sv, power=power)
        if i < skip:
            continue
        try:
            lml = log_marginal_likelihood(fit_gp(spec, mean, X, y))
        except ConditioningError:
            continue
        if lml > best_lml:
            best, best_lml = spec, lml
    return best


def scored_candidates(monkeypatch, template, mean, X, y, budget, seed):
    """The search's result and the (spec, log marginal likelihood) of each
    candidate it scored, in order."""
    real = gp._candidate_evidence
    seen = []

    def record(kernel, mean, X, y, ls, sv):
        lml = real(kernel, mean, X, y, ls, sv)
        assert lml.shape == sv.shape == ls.shape[:1]
        seen.extend((replace(kernel, lengthscales=tuple(row), signal_variance=v), score)
                    for row, v, score in zip(ls, sv.tolist(), lml.tolist()))
        return lml

    monkeypatch.setattr(gp, "_candidate_evidence", record)
    return fit_hyperparameters(template, mean, X, y, budget=budget, seed=seed), seen


@pytest.mark.parametrize("mean", [
    MeanSpec(), MeanSpec(form="linear-fixed", coefficients=(0.5, -1.0, 2.0))])
def test_search_picks_the_brute_force_argmax(mean):
    rng = np.random.default_rng(18)
    X = rng.uniform(-2, 2, size=(15, 2))
    y = np.sin(X[:, 0]) + X[:, 1] ** 2
    for family in ("squared-exponential", "matern-5/2"):
        got = fit_hyperparameters(spec_for(family, (1.0, 1.0)), mean, X, y,
                                  budget=30, seed=6)
        assert got == brute_force_search(family, mean, X, y, budget=30, seed=6)


def test_search_keeps_the_template_family_power_and_dimension():
    rng = np.random.default_rng(18)
    X = rng.uniform(-2, 2, size=(15, 2))
    y = np.sin(X[:, 0]) + X[:, 1] ** 2
    template = spec_for("power-exponential", (0.3, 4.0), sv=2.0)
    got = fit_hyperparameters(template, MeanSpec(), X, y, budget=30, seed=6)
    assert (got.family, got.power, got.dimension) == ("power-exponential", 1.5, 2)
    assert got == brute_force_search("power-exponential", MeanSpec(), X, y,
                                     budget=30, seed=6, power=1.5)
    # the template's lengthscales and signal variance do not enter the search
    seeded = spec_for("power-exponential", got.lengthscales, got.signal_variance)
    assert fit_hyperparameters(seeded, MeanSpec(), X, y, budget=30, seed=6) == got
    with pytest.raises(DimensionMismatchError):
        fit_hyperparameters(spec_for("squared-exponential"), MeanSpec(), X, y,
                            budget=3)


@pytest.mark.parametrize("budget", [1, 7])
def test_search_factors_each_candidate_once_through_the_shared_factor_routine(
        monkeypatch, budget):
    rng = np.random.default_rng(20)
    X = rng.uniform(-2, 2, size=(8, 2))
    y = np.sin(X[:, 0])
    real = gp._jittered_cholesky
    grams = []

    def counted(K, sv, lengthscales):
        grams.append((K.copy(), sv))
        return real(K, sv, lengthscales)

    monkeypatch.setattr("probo.gp._jittered_cholesky", counted)
    got = fit_hyperparameters(spec_for("matern-3/2", (1.0, 1.0)), MeanSpec(), X, y,
                              budget=budget, seed=8)
    assert len(grams) == budget
    want = kernel_matrix(got, X, X)
    assert any(np.array_equal(K, want) and sv == got.signal_variance for K, sv in grams)


def strict_cholesky(K, lower):
    """LAPACK's factor, refused, as a LinAlgError, for any matrix whose
    smallest eigenvalue is below 1.5e-6 of its largest diagonal entry: a
    stricter factorization that decides on the matrix alone.  Gram matrices
    at long lengthscales then escalate the jitter, or fail even at its cap
    of 1e-6 of the signal variance."""
    if np.linalg.eigvalsh(K).min() < 1.5e-6 * K.diagonal().max():
        raise LinAlgError("refused")
    return cholesky(K, lower=lower)


@pytest.mark.parametrize("mean", [
    MeanSpec(), MeanSpec(form="linear-fixed", coefficients=(0.5, -1.0, 2.0))])
@pytest.mark.parametrize("family", FAMILIES)
def test_search_scores_every_candidate_as_fit_gp_would(monkeypatch, family, mean):
    rng = np.random.default_rng(21)
    X = rng.uniform(-2, 2, size=(25, 2))
    y = np.sin(2.0 * X[:, 0]) + X[:, 1] ** 2
    monkeypatch.setattr("probo.kernels._cholesky", strict_cholesky)
    template = KernelSpec(family=family, lengthscales=(1.0, 1.0),
                          power=1.9 if family == "power-exponential" else None)
    got, seen = scored_candidates(monkeypatch, template, mean, X, y, budget=40, seed=9)
    assert len(seen) == 40
    zeroed = escalated = failed = 0
    for spec, lml in seen:
        assert (spec.family, spec.power) == (template.family, template.power)
        try:
            model = fit_gp(spec, mean, X, y)
        except ProboError:
            failed += 1
            assert lml == -math.inf
            continue
        # bit for bit where finite; a non-finite likelihood scores -inf
        want = log_marginal_likelihood(model)
        assert np.array_equal(lml, want if math.isfinite(want) else -math.inf)
        escalated += model.K.jitter > 1e-10 * spec.signal_variance
        zeroed += bool((kernel_matrix(spec, X, X) == 0.0).any())
    # short lengthscales zero correlations below 2^-511, and long ones
    # escalate the jitter or fail to factorize
    assert zeroed and escalated and failed
    assert got == max((c for c in seen if math.isfinite(c[1])), key=lambda c: c[1])[0]


@pytest.mark.parametrize("dim", [1, 3, 7])
def test_search_draws_each_candidate_as_one_call_per_vector(monkeypatch, dim):
    # the one draw of every candidate has the bits of one generator call per
    # lengthscale vector and one per signal variance, across chunk ends
    budget = 2 * gp._SEARCH_CHUNK + 3
    rng = np.random.default_rng(22)
    X = rng.uniform(-2, 2, size=(5, dim))
    y = X.sum(axis=1)
    _, seen = scored_candidates(monkeypatch, spec_for("squared-exponential", (1.0,) * dim),
                                MeanSpec(), X, y, budget=budget, seed=dim)
    assert ([(s.lengthscales, s.signal_variance) for s, _ in seen]
            == list(search_draws(dim, budget, dim)))


def test_candidate_evidence_is_minus_inf_for_each_kind_of_failure(monkeypatch):
    # the search's one candidate rule: a fit that fails to factorize, whose
    # solves overflow or whose likelihood is nan or +inf scores -inf, and
    # every other candidate keeps fit_gp's likelihood, bit for bit
    X = np.linspace(0.0, 1.0, 8)[:, None]
    y = np.sin(5.0 * X[:, 0])
    ls, sv = np.array([[0.2], [0.3], [0.4], [0.5], [0.6]]), np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    template = spec_for("squared-exponential")
    want = [log_marginal_likelihood(fit_gp(replace(template, lengthscales=(l,),
                                                   signal_variance=v), MeanSpec(), X, y))
            for (l,), v in zip(ls.tolist(), sv.tolist())]
    assert np.array_equal(gp._candidate_evidence(template, MeanSpec(), X, y, ls, sv), want)
    factor, solve, evidence = gp._jittered_cholesky, gp._solve_terms, gp._evidence
    solves = []

    def refuse_the_first(K, variance, lengthscales):
        if variance == 1.0:
            raise ConditioningError("refused", jitter=1e-6)
        return factor(K, variance, lengthscales)

    def overflow_the_second(*args):
        solves.append(args)
        return None if len(solves) == 1 else solve(*args)

    def not_finite_third_and_fourth(quad, diagonals):
        lml = evidence(quad, diagonals)
        lml[2:4] = math.nan, math.inf
        return lml

    monkeypatch.setattr(gp, "_jittered_cholesky", refuse_the_first)
    monkeypatch.setattr(gp, "_solve_terms", overflow_the_second)
    monkeypatch.setattr(gp, "_evidence", not_finite_third_and_fourth)
    got = gp._candidate_evidence(template, MeanSpec(), X, y, ls, sv)
    assert np.array_equal(got, [-math.inf] * 4 + want[4:]) and math.isfinite(want[4])


def test_search_skips_a_candidate_that_fails_to_factorize(monkeypatch):
    rng = np.random.default_rng(19)
    X = rng.uniform(-2, 2, size=(8, 1))
    y = np.cos(X[:, 0])
    real = __import__("scipy.linalg", fromlist=["cholesky"]).cholesky
    calls = {"n": 0}

    def fail_first_candidate(K, lower):
        calls["n"] += 1
        if calls["n"] <= 5:  # every jitter level of the first candidate
            raise LinAlgError("forced")
        return real(K, lower=lower)

    monkeypatch.setattr("probo.kernels._cholesky", fail_first_candidate)
    got = fit_hyperparameters(spec_for("squared-exponential"), MeanSpec(), X, y,
                              budget=10, seed=7)
    monkeypatch.undo()
    assert got == brute_force_search("squared-exponential", MeanSpec(), X, y,
                                     budget=10, seed=7, skip=1)


def test_search_propagates_errors_other_than_conditioning(monkeypatch):
    calls = {"n": 0}

    def broken(K, lower):
        calls["n"] += 1
        raise RuntimeError("not a conditioning failure")

    monkeypatch.setattr("probo.kernels._cholesky", broken)
    with pytest.raises(RuntimeError):
        fit_hyperparameters(spec_for("squared-exponential"), MeanSpec(), [[0.0], [1.0]],
                            [0.0, 1.0], budget=10)
    assert calls["n"] == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_search_skips_a_candidate_whose_evidence_is_not_finite(monkeypatch, bad):
    rng = np.random.default_rng(19)
    X = rng.uniform(-2, 2, size=(8, 1))
    y = np.cos(X[:, 0])
    real = gp._evidence
    chunks = []

    def bad_first_candidate(quad, diagonals):
        lml = real(quad, diagonals)
        chunks.append(len(lml))
        if len(chunks) == 1:
            lml[0] = bad
        return lml

    monkeypatch.setattr(gp, "_evidence", bad_first_candidate)
    got = fit_hyperparameters(spec_for("squared-exponential"), MeanSpec(), X, y,
                              budget=10, seed=7)
    monkeypatch.undo()
    assert chunks == [10]
    assert got == brute_force_search("squared-exponential", MeanSpec(), X, y,
                                     budget=10, seed=7, skip=1)


@pytest.mark.parametrize("budget", [1, gp._SEARCH_CHUNK, 2 * gp._SEARCH_CHUNK + 3])
@pytest.mark.parametrize("family", ["squared-exponential", "matern-5/2"])
def test_search_builds_each_chunks_covariances_in_one_call(monkeypatch, family, budget):
    # one correlation call per chunk of draws, over the stacked Gram
    # matrices; each candidate's signal variance is checked by
    # test_search_scores_every_candidate_as_fit_gp_would
    rng = np.random.default_rng(23)
    X = rng.uniform(-2, 2, size=(6, 2))
    y = np.sin(X[:, 0])
    real = gp._correlation
    calls = []

    def counted(K, family, power):
        calls.append(K.shape)
        return real(K, family, power)

    monkeypatch.setattr("probo.gp._correlation", counted)
    fit_hyperparameters(spec_for(family, (1.0, 1.0)), MeanSpec(), X, y, budget=budget, seed=10)
    sizes = [min(gp._SEARCH_CHUNK, budget - start)
             for start in range(0, budget, gp._SEARCH_CHUNK)]
    assert calls == [(size * len(X), len(X)) for size in sizes]


@pytest.mark.parametrize("scale", [
    1e200,  # y'K^-1 y overflows, so every likelihood is -inf
    1e306,  # s_k'y overflows, so every candidate's solves do
])
def test_search_with_no_usable_candidate_says_so(scale):
    X = np.linspace(0.0, 1.0, 12)[:, None]
    y = scale * np.sin(20.0 * X[:, 0])
    with pytest.raises(ProboError, match="no usable candidate among 5 hyperparameter draws"):
        fit_hyperparameters(spec_for("squared-exponential"), MeanSpec(), X, y,
                            budget=5, seed=1)
