"""Properties of whole runs over drawn configs, and of the kernel layer
(ROADMAP item 18).

A run either completes with one record per evaluation of its budget or
raises a ProboError: a ConfigError for a bad setting, a BoRunError for a
run that fails.  It never raises a bare ValueError or an AssertionError,
and it never warns.  The draws include the edges of every range that a
config check guards, so each rule is crossed from both sides.

kernel_matrix matches a 50-digit mpmath evaluation of the module's
formulas, with its floor rule; the extreme pair of two 1-D batches gives
their largest squared distance; and the guard that takes that distance from
its caller keeps the bits and the decisions of a pass over the batch, as
does a kernel whose lengthscales are all 1, which skips the division.

ei_values matches a 50-digit mpmath expected improvement, and predict_batch
the dense conditioning oracle of tests/oracles.py.
"""

import math
import warnings
from unittest import mock

import mpmath
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from probo import (AcquisitionSpec, FocusSearchConfig, KernelSpec, MeanSpec, ProboError,
                   RunConfig, kernels, registry_lookup, registry_names, run)
from probo.acquisition import ei_values
from probo.gp import MEAN_FORMS, fit_gp, predict_batch
from probo.kernels import (_FLOOR, _GUARD_LIMIT, FAMILIES, _correlation, _extreme_sqdist,
                           _sqdist, kernel_matrix)

from oracles import oracle_predict

TARGETS = [name for name in registry_names() if registry_lookup(name).dimension <= 4]


def pick(draw, edges, usual):
    """One of the edge values one time in eight, else a draw of usual."""
    # hypothesis leans to small integers, so the edge is the largest
    return draw(st.sampled_from(edges) if draw(st.integers(0, 7)) == 7 else usual)


@st.composite
def configs(draw):
    family = draw(st.sampled_from(FAMILIES))
    powers = [None, 0.0, 2.5] if family == "power-exponential" else [0.5]
    usual_power = st.floats(0.1, 2.0) if family == "power-exponential" else st.none()
    kernel = dict(family=family,
                  lengthscales=(pick(draw, [0.0, -1.0, 1e-320, 1e300], st.floats(0.05, 5.0)),),
                  signal_variance=pick(draw, [0.0, 1e-160, 1e301], st.floats(0.1, 10.0)),
                  power=pick(draw, powers, usual_power))
    form = draw(st.sampled_from(MEAN_FORMS))
    size = MEAN_FORMS.index(form)  # the coefficients of a 1-D mean of this form
    count = pick(draw, [0, 1, 2, 3], st.just(size))
    mean = dict(form=form, coefficients=tuple(draw(st.lists(st.floats(-2.0, 2.0),
                                                            min_size=count, max_size=count))))
    kind = draw(st.sampled_from(["ei", "lcb", "glcb"]))
    acquisition = dict(kind=kind)
    if kind != "ei":
        acquisition["tau"] = pick(draw, [-1.0, 0.0], st.floats(0.0, 3.0))
    if kind == "glcb":
        acquisition["rho"] = pick(draw, [-1.0, 0.0], st.floats(0.0, 3.0))
        acquisition["c"] = pick(draw, [0.0, -1.0, 1e300, 1.0000000000000002e300, 1e301],
                                st.floats(1e-3, 1e3))
    infill = dict(evals_per_round=draw(st.integers(1, 20)), rounds=draw(st.integers(1, 2)),
                  restarts=draw(st.integers(1, 2)))
    n_init = draw(st.integers(1, 12))
    run_settings = dict(n_init=n_init, budget=pick(draw, [1], st.integers(n_init, 12)),
                        seed=draw(st.integers(0, 1000)), hyperparameter_fit=draw(st.booleans()),
                        hyperparameter_budget=draw(st.integers(1, 8)))
    return kernel, mean, acquisition, infill, run_settings


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(drawn=configs(), target=st.sampled_from(TARGETS))
def test_a_run_completes_or_raises_a_probo_error(drawn, target):
    kernel, mean, acquisition, infill, run_settings = drawn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            config = RunConfig(kernel=KernelSpec(**kernel), mean=MeanSpec(**mean),
                               acquisition=AcquisitionSpec(**acquisition),
                               infill=FocusSearchConfig(**infill), **run_settings)
            trace = run(config, registry_lookup(target))
        except ProboError:
            return
    assert trace.budget == config.budget


# ------------------------------------------------------------ kernel layer

#: a settings profile for the kernel properties: each runs well under a second
KERNEL_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def kernel_specs(family, dim, lengthscale):
    """A KernelSpec of this family and dimension, with its power drawn for
    power-exponential and its signal variance 1 or drawn."""
    power = st.floats(0.25, 2.0) if family == "power-exponential" else st.none()
    return st.builds(KernelSpec, family=st.just(family),
                     lengthscales=st.tuples(*[lengthscale] * dim),
                     signal_variance=st.sampled_from([1.0, 0.5]) | st.floats(0.1, 10.0),
                     power=power)


def batch(draw, rows, dim, value):
    """A (rows, dim) float array of values drawn from the strategy value."""
    return np.array(draw(st.lists(st.lists(value, min_size=dim, max_size=dim),
                                  min_size=rows, max_size=rows)), dtype=float).reshape(rows, dim)


def mp_correlation(family, power, a, b, ls):
    """The correlation of the module docstring's formula at one pair of
    points, in 50-digit arithmetic, and the exp factor that the floor tests:
    the correlation itself for the exponential families, exp(-a) for
    Matern."""
    d2 = mpmath.fsum(((mpmath.mpf(x) - mpmath.mpf(y)) / mpmath.mpf(l)) ** 2
                     for x, y, l in zip(a, b, ls))
    if family == "squared-exponential":
        arg = d2 / 2
    elif family == "power-exponential":
        arg = mpmath.sqrt(d2) ** mpmath.mpf(power) / 2
    else:
        arg = mpmath.sqrt((3 if family == "matern-3/2" else 5) * d2)
    factor = mpmath.exp(-arg)
    if family == "matern-3/2":
        return (1 + arg) * factor, factor, arg
    if family == "matern-5/2":
        return (1 + arg + arg**2 / 3) * factor, factor, arg
    return factor, factor, arg


@KERNEL_SETTINGS
@given(data=st.data(), family=st.sampled_from(FAMILIES), dim=st.integers(1, 3),
       n=st.integers(0, 4), m=st.integers(0, 4))
def test_kernel_matrix_matches_a_50_digit_reference(data, family, dim, n, m):
    # short lengthscales put many pairs past the floor, and some near it;
    # 2^-40 (1 + arg) bounds the error of the exp argument's roundings
    # (the scaling, each difference and square, the sum, the root and the
    # power), a few units of 2^-53 times arg, with a wide margin
    spec = data.draw(kernel_specs(family, dim, st.just(1.0) | st.floats(0.01, 3.0)))
    A = batch(data.draw, n, dim, st.floats(-3.0, 3.0))
    B = batch(data.draw, m, dim, st.floats(-3.0, 3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernel_matrix(spec, A, B)
    assert got.shape == (n, m)
    with mpmath.workdps(50):
        for (i, j), value in np.ndenumerate(got):
            corr, factor, arg = mp_correlation(family, spec.power, A[i], B[j],
                                               spec.lengthscales)
            tol = 2.0**-40 * (1 + float(arg))
            want = float(corr * mpmath.mpf(spec.signal_variance))
            close = abs(value - want) <= tol * want
            if factor > _FLOOR * (1 + tol):
                assert close, (i, j, value, want)
            elif factor < _FLOOR * (1 - tol):
                assert value == 0.0 and not np.signbit(value), (i, j, value)
            else:  # at the floor, within the rounding
                assert value == 0.0 or close, (i, j, value, want)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(a=st.lists(st.floats(allow_nan=False), max_size=5),
       b=st.lists(st.floats(allow_nan=False) | st.sampled_from([math.inf, -math.inf]),
                  max_size=5))
def test_the_extreme_pair_gives_the_largest_1d_distance(a, b):
    # infinities of both signs (inf - inf is NaN), differences and squares
    # past the double range, signed zeros and subnormals, and empty batches
    A, B = np.array(a).reshape(-1, 1), np.array(b).reshape(-1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.float64(_extreme_sqdist(A, B))
        with np.errstate(invalid="ignore"):
            want = _sqdist(A, B).max(initial=0.0)
    assert got.view(np.int64) == want.view(np.int64) or (np.isnan(got) and np.isnan(want))


def parent_guard(d2, family, power):
    """Whether the floor guard runs on the squared scaled distances d2, by a
    pass over the batch's exp arguments (K.min) or Matern's a (K.max), as
    kernel_matrix decided before it took the largest distance from its
    caller."""
    K = d2.copy()
    if family in ("squared-exponential", "power-exponential"):
        if family == "power-exponential":
            np.sqrt(K, out=K)
            K **= power
        K *= -0.5
        return bool(K.min(initial=0.0) < _GUARD_LIMIT)
    np.sqrt(K, out=K)
    K *= math.sqrt(3.0) if family == "matern-3/2" else math.sqrt(5.0)
    return bool(-K.max(initial=0.0) < _GUARD_LIMIT)


def parent_kernel_matrix(spec, A, B):
    """kernel_matrix with a division by every lengthscale, 1 included, and
    the guard decided by parent_guard; _correlation is given inf or 0 so
    that it takes that decision.  Returns the matrix and the decision."""
    with np.errstate(over="ignore"):
        d2 = _sqdist(A / np.asarray(spec.lengthscales), B / np.asarray(spec.lengthscales))
    guard = parent_guard(d2, spec.family, spec.power)
    K = _correlation(d2, spec.family, spec.power, math.inf if guard else 0.0)
    return K * spec.signal_variance, guard


def guarded_kernel_matrix(spec, A, B):
    """kernel_matrix and whether it ran the floor guard."""
    calls = []
    real = kernels._floored_exp
    with mock.patch.object(kernels, "_floored_exp",
                           lambda E: calls.append(E.shape) or real(E)):
        K = kernel_matrix(spec, A, B)
    return K, bool(calls)


def guard_edge(family, power):
    """The squared scaled distance whose exp argument is _GUARD_LIMIT."""
    if family == "squared-exponential":
        return -2.0 * _GUARD_LIMIT
    if family == "power-exponential":
        return (-2.0 * _GUARD_LIMIT) ** (2.0 / power)
    return _GUARD_LIMIT**2 / (3.0 if family == "matern-3/2" else 5.0)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@KERNEL_SETTINGS
@given(data=st.data(), family=st.sampled_from(FAMILIES), dim=st.integers(1, 3),
       ulps=st.integers(-300, 300), swap=st.booleans())
def test_the_guard_keeps_the_bits_and_decisions_of_a_pass(data, family, dim, ulps, swap):
    # the batch's farthest pair is the origin and a point whose squared
    # scaled distance lies a few hundred units in the last place from the
    # guard's edge; the other points lie near the middle, closer than it
    spec = data.draw(kernel_specs(family, dim, st.sampled_from([1.0, 0.5]) | st.floats(0.2, 2.0)))
    ls = np.asarray(spec.lengthscales)
    reach = math.sqrt(guard_edge(family, spec.power)) * (1.0 + ulps * 2.0**-52)
    far = np.zeros(dim)
    far[0] = reach
    middle = st.floats(0.3 * reach, 0.7 * reach)
    A = np.vstack([np.zeros(dim), batch(data.draw, data.draw(st.integers(0, 3)), dim, middle)])
    B = np.vstack([batch(data.draw, data.draw(st.integers(0, 3)), dim, middle), far])
    A, B = (B, A) if swap else (A, B)
    A, B = A * ls, B * ls
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, guarded = guarded_kernel_matrix(spec, A, B)
        want, parent_guarded = parent_kernel_matrix(spec, A, B)
    assert same_bits(got, want)
    assert guarded == parent_guarded


@KERNEL_SETTINGS
@given(data=st.data(), family=st.sampled_from(FAMILIES), dim=st.integers(1, 4),
       n=st.integers(0, 6), m=st.integers(0, 70), seed=st.integers(0, 2**32 - 1),
       special=st.lists(st.sampled_from([0.0, -0.0, 1e-300, 1e200, -1e200, 3e153]),
                        max_size=4))
def test_unit_lengthscales_skip_a_division_that_keeps_every_bit(data, family, dim, n, m, seed,
                                                                 special):
    # up to 70 points, so that a divided batch goes through _by_rows's
    # block copies, drawn from a generator for speed; the drawn special
    # coordinates (squares that underflow or overflow, signed zeros) replace
    # some of them
    spec = data.draw(kernel_specs(family, dim, st.just(1.0)))
    rng = np.random.default_rng(seed)
    A, B = rng.uniform(-30.0, 30.0, size=(n, dim)), rng.uniform(-30.0, 30.0, size=(m, dim))
    for value in special:
        P = A if rng.integers(2) and n else B
        if P.size:
            P.flat[rng.integers(P.size)] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, guarded = guarded_kernel_matrix(spec, A, B)
        want, parent_guarded = parent_kernel_matrix(spec, A, B)
    assert same_bits(got, want)
    assert guarded == parent_guarded


# ----------------------------------------------------- scores and posterior

#: z = (psi - mu) / sd across ei_values' erf band, at its edges (|z| just
#: under and over sqrt(2) * 5.9216) and far past them
EI_Z = st.floats(-40.0, 40.0) | st.sampled_from([0.0, 8.374, -8.374, 8.3745, -8.3745,
                                                  1e160, -1e160])


@st.composite
def ei_batches(draw):
    """One batch of mu and var and the incumbent psi; each mu is drawn freely
    or placed at a drawn z from psi."""
    psi = draw(st.floats(-1e6, 1e6))
    var = draw(st.lists(st.sampled_from([0.0, 5e-324, 1e-300]) | st.floats(0.0, 1e8),
                        min_size=1, max_size=8))
    mu = [draw(st.floats(-1e6, 1e6)) if draw(st.booleans()) else psi - draw(EI_Z) * math.sqrt(v)
          for v in var]
    return np.array(mu), np.array(var), psi


def mp_ei(mu, var, psi):
    """Expected improvement below psi, in 50-digit arithmetic, and its scale
    |psi - mu| + sd."""
    improve = mpmath.mpf(psi) - mpmath.mpf(mu)
    sd = mpmath.sqrt(mpmath.mpf(var))
    if sd == 0:
        return max(improve, 0), abs(improve)
    z = improve / sd
    # past |z| = 1e3 the tail, below exp(-5e5) relative, is far under 50
    # digits; mpmath's erfc overflows on the largest z
    if abs(z) > 1e3:
        return max(improve, 0), abs(improve) + sd
    return improve * mpmath.ncdf(z) + sd * mpmath.npdf(z), abs(improve) + sd


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(drawn=ei_batches())
def test_ei_matches_a_50_digit_reference(drawn):
    mu, var, psi = drawn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ei_values(mu, var, psi)
    assert got.shape == mu.shape
    with mpmath.workdps(50):
        for score, m, v in zip(got, mu, var):
            want, scale = mp_ei(m, v, psi)
            assert abs(-mpmath.mpf(score) - want) <= 1e-12 * scale, (m, v, psi, score)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(data=st.data(), family=st.sampled_from(FAMILIES), form=st.sampled_from(MEAN_FORMS),
       dim=st.integers(1, 3), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_predict_batch_matches_the_conditioning_oracle(data, family, form, dim, n, seed):
    # criterion 1's setting and tolerance: lengthscales 0.4-1.2, sv 0.5-1.5,
    # and training points apart in their first coordinate by a stratified
    # draw, so that the oracle's dense inverse is accurate
    power = data.draw(st.floats(0.5, 2.0)) if family == "power-exponential" else None
    rng = np.random.default_rng(seed)
    spec = KernelSpec(family=family, lengthscales=tuple(rng.uniform(0.4, 1.2, dim)),
                      signal_variance=rng.uniform(0.5, 1.5), power=power)
    # a mean written for one dimension, repeated to dim as a run does
    mean = MeanSpec(form, tuple(rng.uniform(-2.0, 2.0, MEAN_FORMS.index(form)))).broadcast(dim)
    X = rng.uniform(-3.0, 3.0, size=(n, dim))
    X[:, 0] = rng.permutation(-3.0 + (np.arange(n) + rng.uniform(0.2, 0.8, n)) * 6.0 / n)
    y = rng.normal(size=n)
    P = rng.uniform(-3.0, 3.0, size=(4, dim))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mu, var = predict_batch(fit_gp(spec, mean, X, y), P)
    for i, x in enumerate(P):
        mu_o, var_o = oracle_predict(spec, mean, X, y, x)
        assert abs(mu[i] - mu_o) <= 1e-8 and abs(var[i] - var_o) <= 1e-8, (i, mu[i], mu_o)
