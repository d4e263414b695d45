import math
import re

import numpy as np
import pytest

from probo.errors import ConfigError, DimensionMismatchError
from probo.gp import MeanSpec, fit_gp, predict_batch
from probo.igp import ImpreciseGpSpec, mean_width_batch
from probo.kernels import FAMILIES, KernelSpec, kernel_matrix

from oracles import set_bounds


def spec_for(family="squared-exponential", lengthscales=(1.0,), sv=1.0):
    power = 1.5 if family == "power-exponential" else None
    return KernelSpec(family=family, lengthscales=lengthscales,
                      signal_variance=sv, power=power)


def fitted(X, y, family="squared-exponential", dim=1, sv=1.0):
    ls = (1.0,) * dim
    return fit_gp(spec_for(family, ls, sv), MeanSpec(), X, y)


def random_model(rng, family="squared-exponential", dim=1, n=5, y_scale=1.0):
    while True:
        X = rng.uniform(-3, 3, size=(n, dim))
        diff = X[:, None, :] - X[None, :, :]
        d = np.sqrt((diff**2).sum(-1))[np.triu_indices(n, 1)]
        if n == 1 or d.min() > 0.4:
            break
    y = y_scale * rng.normal(size=n)
    return fitted(X, y, family=family, dim=dim), X, y


# -------------------------------------------------------------- case split

def test_zero_targets_are_near_ignorance():
    model = fitted([[0.0], [1.0]], [0.0, 0.0])
    assert ImpreciseGpSpec(c=0.5, model=model).case == 1


def test_large_offset_targets_hit_the_extreme_case():
    # exchangeable two-point set: S_k = 2 / (1 + b) with b = exp(-1/2),
    # so the threshold is 1 + (1 + b) / 2 < 2, far below the GLS mean of 10
    model = fitted([[0.0], [1.0]], [10.0, 10.0])
    b = math.exp(-0.5)
    assert model.S_k == pytest.approx(2 / (1 + b), abs=1e-6)
    igp = ImpreciseGpSpec(c=1.0, model=model)
    assert igp.case == 2
    assert abs(model.s_k @ model.y) / model.S_k > 1 + igp.c / model.S_k


def test_growing_imprecision_reaches_near_ignorance():
    model = fitted([[0.0], [1.0]], [10.0, 10.0])
    assert ImpreciseGpSpec(c=50.0, model=model).case == 1


def test_imprecision_degree_must_be_positive():
    model = fitted([[0.0], [1.0]], [1.0, 2.0])
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            ImpreciseGpSpec(c=bad, model=model)


def test_imprecision_degree_whose_width_factor_can_overflow_is_rejected():
    model = fitted([[0.0], [1.0]], [1.0, 2.0])
    assert np.isfinite(ImpreciseGpSpec(c=1e300, model=model).factor)
    for bad in (math.nextafter(1e300, math.inf), 1e307, 1e308):
        with pytest.raises(ConfigError,
                           match=re.escape("degree of imprecision c must lie in (0, 1e300]")
                           + f".* got {re.escape(repr(bad))}$"):
            ImpreciseGpSpec(c=bad, model=model)


@pytest.mark.parametrize("bad", ["1", True, None, [1.0], float("inf")])
def test_imprecision_degree_must_be_a_finite_real(bad):
    model = fitted([[0.0], [1.0]], [1.0, 2.0])
    with pytest.raises(ConfigError, match="c must be a finite real number"):
        ImpreciseGpSpec(c=bad, model=model)


# ------------------------------------------------------------------ bounds

def test_bounds_collapse_to_observation_at_training_points():
    model = fitted([[0.0], [1.5]], [0.3, -0.8])
    igp = ImpreciseGpSpec(c=1.0, model=model)
    lower, upper = set_bounds(igp, model.X)
    assert np.allclose(lower, [0.3, -0.8], rtol=0.0, atol=1e-8)
    assert np.allclose(upper, [0.3, -0.8], rtol=0.0, atol=1e-8)


def test_tiny_imprecision_recovers_the_precise_mean():
    rng = np.random.default_rng(20)
    model, _, _ = random_model(rng, n=6)
    igp = ImpreciseGpSpec(c=1e-12, model=model)
    P = np.linspace(-4, 4, 15)[:, None]
    lower, upper = set_bounds(igp, P)
    mu, _ = predict_batch(model, P)
    assert np.all(np.abs(upper - mu) <= 1e-8)
    assert np.all(np.abs(lower - mu) <= 1e-8)


def test_single_point_bounds_closed_form():
    # one observation y1 = 0: bounds are +/- c (sv - k(x, x1)) / sv modulo jitter
    model = fitted([[0.0]], [0.0])
    igp = ImpreciseGpSpec(c=2.0, model=model)
    assert igp.case == 1
    x = np.array([0.5, 1.0, 3.0])
    k = np.exp(-0.5 * x * x)
    lower, upper = set_bounds(igp, x[:, None])
    assert np.allclose(upper, 2.0 * (1 - k), rtol=0.0, atol=1e-8)
    assert np.allclose(lower, -2.0 * (1 - k), rtol=0.0, atol=1e-8)


def test_bounds_ordered_and_width_consistent_everywhere():
    rng = np.random.default_rng(21)
    for family in FAMILIES:
        for y_scale in (1.0, 50.0):
            model, _, _ = random_model(rng, family=family, n=5, y_scale=y_scale)
            igp = ImpreciseGpSpec(c=rng.uniform(0.1, 2.0), model=model)
            P = rng.uniform(-4, 4, size=(10, 1))
            lower, upper = set_bounds(igp, P)
            assert np.all(lower <= upper)
            assert np.allclose(mean_width_batch(igp, P), upper - lower, rtol=0.0, atol=1e-10)


# ------------------------------------------------------------------- width

def test_width_vanishes_at_training_points_both_cases():
    near = fitted([[0.0], [1.0]], [0.2, -0.1])
    extreme = fitted([[0.0], [1.0]], [10.0, 10.0])
    for model, case in ((near, 1), (extreme, 2)):
        igp = ImpreciseGpSpec(c=0.5, model=model)
        assert igp.case == case
        assert np.all(mean_width_batch(igp, model.X) <= 1e-9)


def test_width_linear_in_imprecision_degree_in_case_one():
    rng = np.random.default_rng(22)
    model, _, _ = random_model(rng, n=5)
    igp1 = ImpreciseGpSpec(c=0.3, model=model)
    igp2 = ImpreciseGpSpec(c=0.6, model=model)
    assert igp1.case == igp2.case == 1
    P = rng.uniform(-4, 4, size=(20, 1))
    assert np.allclose(mean_width_batch(igp2, P), 2 * mean_width_batch(igp1, P), rtol=0.0, atol=1e-10)


def test_width_monotone_in_imprecision_degree():
    rng = np.random.default_rng(23)
    for _ in range(30):
        y_scale = rng.choice([1.0, 30.0])
        model, _, _ = random_model(rng, n=4, y_scale=y_scale)
        c1 = rng.uniform(0.05, 1.0)
        c2 = c1 * rng.uniform(1.1, 3.0)
        igp1 = ImpreciseGpSpec(c=c1, model=model)
        igp2 = ImpreciseGpSpec(c=c2, model=model)
        x = rng.uniform(-4, 4, size=1)
        assert mean_width_batch(igp1, x)[0] <= mean_width_batch(igp2, x)[0] + 1e-12


def test_width_agrees_with_bounds_on_random_instances():
    rng = np.random.default_rng(24)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        model, _, _ = random_model(rng, n=n, y_scale=rng.choice([1.0, 40.0]))
        igp = ImpreciseGpSpec(c=rng.uniform(0.1, 2.0), model=model)
        P = rng.uniform(-4, 4, size=(5, 1))
        lower, upper = set_bounds(igp, P)
        assert np.allclose(mean_width_batch(igp, P), upper - lower, rtol=0.0, atol=1e-10)


def test_batch_width_matches_scalar_path():
    rng = np.random.default_rng(25)
    model, _, _ = random_model(rng, n=6)
    igp = ImpreciseGpSpec(c=0.7, model=model)
    P = rng.uniform(-4, 4, size=(12, 1))
    widths = mean_width_batch(igp, P)
    for i in range(12):
        assert widths[i] == pytest.approx(mean_width_batch(igp, P[i])[0], abs=1e-12)


# -------------------------------------------------------------- set oracle

@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("case, sign", [(1, 1.0), (1, -1.0), (2, 1.0), (2, -1.0)],
                         ids=["case1-positive", "case1-negative",
                              "case2-positive", "case2-negative"])
def test_width_matches_the_set_oracle(case, sign, family):
    # two close points put k_x' s_k above 1 between them; the GLS mean's
    # size sets the case at every c from 1e-12 to 100, and its sign that
    # of s_k' y
    offset = 0.3 if case == 1 else 2000.0
    model = fitted([[0.0], [1.0], [3.0]], sign * offset + np.array([0.1, -0.2, 0.05]),
                   family=family)
    P = np.linspace(-2.0, 5.0, 29)[:, None]
    assert np.sign(model.s_k @ model.y) == sign
    assert np.any(model.s_k @ kernel_matrix(model.kernel, model.X, P) > 1.0)
    for c in np.logspace(-12, 2, 15):
        igp = ImpreciseGpSpec(c=c, model=model)
        assert igp.case == case
        lower, upper = set_bounds(igp, P)
        # the oracle's width is a difference of two posterior means, each
        # exact to rounding relative to its own size
        scale = np.maximum(np.abs(lower), np.abs(upper))
        assert np.all(np.abs(mean_width_batch(igp, P) - (upper - lower)) <= 1e-12 * scale)


def test_case_boundary_continuity_probe():
    # the width is continuous in c across the case boundary, between the
    # training points (k_x' s_k > 1) as well as beyond them
    model = fitted([[0.0], [1.0]], [10.0, 10.0])
    sy = float(model.s_k @ model.y)
    c_star = abs(sy) - model.S_k
    lo = ImpreciseGpSpec(c=c_star * (1 - 1e-9), model=model)
    hi = ImpreciseGpSpec(c=c_star * (1 + 1e-9), model=model)
    assert lo.case == 2
    assert hi.case == 1
    for x in ([3.0], [0.5]):
        assert mean_width_batch(lo, x)[0] == pytest.approx(mean_width_batch(hi, x)[0],
                                                           rel=1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_rejected(bad):
    model, _, _ = random_model(np.random.default_rng(31), n=4)
    for c in (0.01, 100.0):
        igp = ImpreciseGpSpec(c=c, model=model)
        with pytest.raises(ValueError, match="finite"):
            mean_width_batch(igp, [[0.0], [bad]])
        with pytest.raises(ValueError, match="finite"):
            mean_width_batch(igp, [bad])


def test_wrong_dimension_rejected():
    model, _, _ = random_model(np.random.default_rng(32), dim=2, n=4)
    igp = ImpreciseGpSpec(c=1.0, model=model)
    for P in ([[0.0]], np.zeros((3, 3))):
        with pytest.raises(DimensionMismatchError):
            mean_width_batch(igp, P)
