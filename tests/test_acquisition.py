import math

import numpy as np
import pytest
from scipy.special import erf

import probo.acquisition
from probo.acquisition import (
    AcquisitionSpec,
    ei_values,
    glcb_values,
    lcb_values,
)
from probo.errors import ConfigError


# --------------------------------------------------------------------- lcb

def test_lcb_zero_variance_is_the_mean():
    assert lcb_values(2.0, 0.0, tau=5.0) == 2.0


def test_lcb_arithmetic():
    assert lcb_values(2.0, 4.0, tau=1.0) == 0.0


def test_lcb_tau_zero_ignores_variance():
    assert np.array_equal(lcb_values([2.0] * 3, [0.0, 1.0, 100.0], tau=0.0), [2.0] * 3)


# ---------------------------------------------------------------------- ei

def test_ei_degenerate_variance():
    assert ei_values(1.0, 0.0, psi_min=1.0) == 0.0
    # a deterministic one-unit improvement scores -1 (lower is better)
    assert ei_values(0.0, 0.0, psi_min=1.0) == -1.0
    # no improvement possible
    assert ei_values(2.0, 0.0, psi_min=1.0) == 0.0


def test_ei_standard_normal_value():
    # E max(-Z, 0) = 1 / sqrt(2 pi) for Z standard normal
    got = -ei_values(0.0, 1.0, psi_min=0.0)
    assert got == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)


def test_ei_matches_monte_carlo():
    rng = np.random.default_rng(30)
    n = 100_000
    for _ in range(5):
        mu = rng.uniform(-2, 2)
        var = rng.uniform(0.1, 4.0)
        psi_min = rng.uniform(-2, 2)
        draws = rng.normal(mu, math.sqrt(var), size=n)
        samples = np.maximum(psi_min - draws, 0.0)
        mc = samples.mean()
        se = samples.std(ddof=1) / math.sqrt(n)
        closed = -ei_values(mu, var, psi_min=psi_min)
        assert abs(closed - mc) <= 3 * se


def test_ei_nonnegative_and_monotone_in_mean():
    rng = np.random.default_rng(31)
    for _ in range(50):
        var = rng.uniform(0, 2)
        psi_min = rng.uniform(-1, 1)
        mus = np.sort(rng.uniform(-3, 3, size=4))
        eis = -ei_values(mus, np.full(4, var), psi_min=psi_min)
        assert all(e >= 0 for e in eis)
        assert all(a >= b - 1e-12 for a, b in zip(eis, eis[1:]))


def masked_ei(mu, var, psi_min):
    """Negated EI with every entry masked on sd > 0: the reference for the
    mask-free path of ei_values."""
    mu = np.asarray(mu, dtype=float)
    sd = np.sqrt(np.asarray(var, dtype=float))
    improve = psi_min - mu
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sd > 0, improve / np.where(sd > 0, sd, 1.0), 0.0)
        cdf = 0.5 * (1.0 + erf(np.asarray(z) / math.sqrt(2.0)))
        pdf = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * z * z)
        ei = np.where(sd > 0, improve * cdf + sd * pdf, np.maximum(improve, 0.0))
    return -ei


def same_bits(a, b) -> bool:
    """Equal bit for bit: signed zeros and NaNs included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture
def erf_outs(monkeypatch):
    """Whether each erf call of ei_values wrote in place (the mask-free path)."""
    outs = []

    def recording(x, **kwargs):
        outs.append("out" in kwargs)
        return erf(x, **kwargs)

    monkeypatch.setattr(probo.acquisition, "erf", recording)
    return outs


def test_ei_without_masks_matches_the_masked_formula(erf_outs):
    rng = np.random.default_rng(32)
    for _ in range(300):
        m = int(rng.integers(1, 200))
        scale = 10.0 ** rng.uniform(-8, 8)
        mu = rng.normal(0.0, scale, size=m)
        var = (scale * 10.0 ** rng.uniform(-6, 2, size=m)) ** 2
        psi_min = float(rng.normal(0.0, scale))
        got = ei_values(mu, var, psi_min)
        assert same_bits(got, masked_ei(mu, var, psi_min))
    assert all(erf_outs) and len(erf_outs) == 300


def test_ei_far_tails_without_masks():
    mu = np.array([-1e6, -40.0, 0.0, 40.0, 1e6, 1e-300, np.inf])
    var = np.array([1e-6, 1.0, 1e300, 1.0, 1e-6, 1e-300, 1.0])
    got = ei_values(mu, var, 0.0)
    assert same_bits(got, masked_ei(mu, var, 0.0))


def test_scalars_and_zero_variances_keep_the_masked_path(erf_outs):
    got = ei_values(0.0, 1.0, psi_min=0.5)
    assert np.ndim(got) == 0 and got == masked_ei(0.0, 1.0, 0.5)
    mu, var = np.array([0.0, 2.0, -1.0]), np.array([1.0, 0.0, 0.0])
    assert same_bits(ei_values(mu, var, 1.0), masked_ei(mu, var, 1.0))
    assert np.array_equal(ei_values(mu, var, 1.0), [masked_ei(0.0, 1.0, 1.0), 0.0, -2.0])
    assert erf_outs == [False, False, False]


# -------------------------------------------------------------------- glcb

def test_glcb_zero_rho_is_lcb():
    rng = np.random.default_rng(32)
    mu, var = rng.normal(size=50), rng.uniform(0, 3, size=50)
    width = rng.uniform(0, 5, size=50)
    for tau in rng.uniform(0, 3, size=5):
        assert np.allclose(glcb_values(mu, var, width, tau=tau, rho=0.0),
                           lcb_values(mu, var, tau), rtol=0.0, atol=1e-12)


def test_glcb_zero_width_is_lcb():
    assert glcb_values(0.7, 2.0, 0.0, tau=1.3, rho=4.0) == lcb_values(0.7, 2.0, 1.3)


def test_glcb_arithmetic():
    assert glcb_values(1.0, 1.0, width=2.0, tau=1.0, rho=0.5) == -1.0


def test_glcb_rewards_imprecision():
    widths = np.array([0.0, 0.5, 1.0, 2.0])
    scores = glcb_values(np.zeros(4), np.ones(4), widths, tau=1.0, rho=0.7)
    assert all(a > b for a, b in zip(scores, scores[1:]))


def test_constant_mean_shift_preserves_the_argmin():
    rng = np.random.default_rng(33)
    mu = rng.normal(size=20)
    var = rng.uniform(0.1, 2.0, size=20)
    width = rng.uniform(0.0, 3.0, size=20)
    shift = 7.3
    psi_min = float(mu.min())
    for values, kwargs in (
        (lcb_values, {"tau": 1.0}),
        (glcb_values, {"width": width, "tau": 1.0, "rho": 0.5}),
    ):
        base = values(mu, var, **kwargs)
        moved = values(mu + shift, var, **kwargs)
        assert np.allclose(moved - base, shift, atol=1e-12)
        assert np.argmin(moved) == np.argmin(base)
    # EI's incumbent shifts along with the surface
    base = ei_values(mu, var, psi_min)
    moved = ei_values(mu + shift, var, psi_min + shift)
    assert np.allclose(moved, base, atol=1e-12)
    assert np.argmin(moved) == np.argmin(base)


# ----------------------------------------------------------------- parsing

parse = AcquisitionSpec.from_dict


def test_parse_plain_forms():
    assert parse("ei") == AcquisitionSpec(kind="ei")
    assert parse("lcb:tau=2.5") == AcquisitionSpec(kind="lcb", tau=2.5)
    got = parse("glcb:tau=1,rho=1,c=100")
    assert got == AcquisitionSpec(kind="glcb", tau=1.0, rho=1.0, c=100.0)


def test_parse_shorthand():
    for text, rho, c in (("glcb-1-100", 1.0, 100.0), ("GLCB-10-50", 10.0, 50.0),
                         ("glcb-1-1e-3", 1.0, 0.001), ("glcb-1e-1-100", 0.1, 100.0)):
        assert parse(text) == AcquisitionSpec(kind="glcb", tau=1.0, rho=rho, c=c)


def test_parse_rejects_garbage():
    for bad in ("ucb", "lcb:tau=x", "glcb:beta=1", "glcb-1", "lcb:tau",
                "ei:tau=1", "lcb:tau=1,rho=5,c=3", "lcb:c=3"):
        with pytest.raises(ConfigError):
            parse(bad)


def test_spec_validation_and_labels():
    with pytest.raises(ConfigError):
        AcquisitionSpec(kind="glcb", c=0.0)
    with pytest.raises(ConfigError):
        AcquisitionSpec(kind="lcb", tau=-1.0)
    assert AcquisitionSpec(kind="ei").label == "ei"
    assert AcquisitionSpec(kind="lcb", tau=1.0).label == "lcb_tau1"
    assert AcquisitionSpec(kind="glcb", tau=1.0, rho=1.0, c=100.0).label == "glcb_tau1_rho1_c100"


@pytest.mark.parametrize("field", ["tau", "rho", "c"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_spec_parameters_must_be_finite(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be a finite real number"):
        AcquisitionSpec(kind="glcb", **{field: value})


@pytest.mark.parametrize("kind, name, value", [("ei", "tau", 7), ("lcb", "rho", 2),
                                               ("lcb", "c", 3)])
def test_spec_rejects_parameters_of_another_kind(kind, name, value):
    with pytest.raises(ConfigError, match=f"{kind} acquisition takes no {name}"):
        AcquisitionSpec(kind, **{name: value})


def test_spec_holds_only_its_kinds_parameters():
    assert AcquisitionSpec("glcb") == AcquisitionSpec("glcb", tau=1.0, rho=1.0, c=1.0)
    lcb = AcquisitionSpec("lcb")
    assert (lcb.tau, lcb.rho, lcb.c) == (1.0, None, None)
    ei = AcquisitionSpec("ei")
    assert (ei.tau, ei.rho, ei.c) == (None, None, None)


def test_spec_dict_round_trip():
    spec = AcquisitionSpec(kind="glcb", tau=0.5, rho=2.0, c=10.0)
    assert spec.to_dict() == {"kind": "glcb", "tau": 0.5, "rho": 2.0, "c": 10.0}
    assert AcquisitionSpec(kind="lcb", tau=2.0).to_dict() == {"kind": "lcb", "tau": 2.0}
    assert AcquisitionSpec(kind="ei").to_dict() == {"kind": "ei"}
    assert AcquisitionSpec.from_dict(spec.to_dict()) == spec
    assert AcquisitionSpec.from_dict("glcb:tau=0.5,rho=2,c=10") == spec
    with pytest.raises(ConfigError, match="beta"):
        AcquisitionSpec.from_dict({"kind": "glcb", "beta": 1.0})
    # each kind takes only its own parameters
    for bad, named in (({"kind": "ei", "tau": 7}, "tau"),
                       ({"kind": "lcb", "tau": 1, "rho": 2}, "rho")):
        with pytest.raises(ConfigError, match=named):
            AcquisitionSpec.from_dict(bad)
    for bad in (["ei"], 3, {"tau": 1.0}):
        with pytest.raises(ConfigError):
            AcquisitionSpec.from_dict(bad)
