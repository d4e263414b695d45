"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line (visible under pytest -s) and enforces
its runtime ceiling.  Protocol-level regressions run through the CLI with
pinned master seeds; their expected orderings were calibrated once and are
frozen here.
"""

import csv
import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest

from probo.acquisition import AcquisitionSpec, ei_values, glcb_values, lcb_values
from probo.bench import (
    AXES,
    accumulated_difference,
    mean_optimization_path,
    relative_ad_summary,
)
from probo.cli import main
from probo.engine import RunConfig, run
from probo.functions import registry_lookup
from probo.gp import MeanSpec, fit_gp, predict_batch
from probo.igp import ImpreciseGpSpec, mean_width_batch
from probo.kernels import FAMILIES, KernelSpec, kernel_matrix
from probo.optimizer import BoxBounds, FocusSearchConfig, focus_search, latin_hypercube

from oracles import set_bounds


def spec_for(family, ls, sv=1.0):
    power = 1.5 if family == "power-exponential" else None
    return KernelSpec(family=family, lengthscales=ls, signal_variance=sv, power=power)


def sample_separated(rng, n, dim, lo=-3.0, hi=3.0):
    """Training inputs with pairwise separation that keeps the Gram matrix
    comfortably conditioned (stratified in 1-D, rejection otherwise)."""
    if dim == 1:
        h = (hi - lo) / n
        pts = lo + (np.arange(n) + rng.uniform(0.2, 0.8, size=n)) * h
        return rng.permutation(pts)[:, None]
    for _ in range(1000):
        X = rng.uniform(lo, hi, size=(n, dim))
        d = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
        if n == 1 or d[np.triu_indices(n, 1)].min() > 0.5:
            return X
    raise RuntimeError("point sampler failed")


def random_instance(rng, family, dim=None, n_max=10):
    dim = dim or int(rng.integers(1, 4))
    n = int(rng.integers(2, 7)) if dim == 1 else int(rng.integers(2, n_max + 1))
    X = sample_separated(rng, n, dim)
    spec = spec_for(family, tuple(rng.uniform(0.4, 1.2, dim)), rng.uniform(0.5, 1.5))
    y = rng.normal(size=n)
    return spec, X, y


def dense_conditioning_oracle(spec, X, y, x):
    """Brute-force GP conditioning at one point x via dense inversion; only
    the kernel entries come from the package."""
    n = len(X)
    K = kernel_matrix(spec, X, X)
    kx = kernel_matrix(spec, X, x[None, :])[:, 0]
    kxx = kernel_matrix(spec, x[None, :], x[None, :])[0, 0]
    Kinv = np.linalg.inv(K)
    ones = np.ones(n)
    S = ones @ Kinv @ ones
    beta = (ones @ Kinv @ y) / S
    mu = beta + kx @ Kinv @ (y - beta * ones)
    var = kxx - kx @ Kinv @ kx + (1 - kx @ Kinv @ ones) ** 2 / S
    return float(mu), float(max(var, 0.0))


def test_criterion_01_gp_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(77)
    checked = 0
    for i in range(50):
        family = FAMILIES[i % 4]
        dim = int(rng.integers(1, 4))
        n = int(rng.integers(1, 6))
        X = sample_separated(rng, n, dim)
        spec = spec_for(family, tuple(rng.uniform(0.4, 1.2, dim)), rng.uniform(0.5, 1.5))
        y = rng.normal(size=n)
        model = fit_gp(spec, MeanSpec(), X, y)
        P = rng.uniform(-3, 3, size=(4, dim))
        mu, var = predict_batch(model, P)
        for i, x in enumerate(P):
            mu_o, var_o = dense_conditioning_oracle(spec, X, y, x)
            assert abs(mu[i] - mu_o) <= 1e-8
            assert abs(var[i] - var_o) <= 1e-8
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 1 PASS: {checked} predictions match dense conditioning "
          f"within 1e-8 ({elapsed:.1f}s)")


def test_criterion_02_noiseless_interpolation_and_width_collapse():
    start = time.time()
    rng = np.random.default_rng(2024)
    checked = 0
    for family in FAMILIES:
        for _ in range(20):
            spec, X, y = random_instance(rng, family)
            model = fit_gp(spec, MeanSpec(), X, y)
            igp = ImpreciseGpSpec(c=rng.uniform(0.05, 0.25), model=model)
            mu, var = predict_batch(model, X)
            assert np.all(np.abs(mu - y) <= 1e-8)
            assert np.all(var <= 1e-8)
            assert np.all(mean_width_batch(igp, X) <= 1e-10)
            checked += len(X)
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 2 PASS: interpolation and width collapse at {checked} "
          f"training points ({elapsed:.1f}s)")


def test_criterion_03_vanishing_imprecision_recovers_precise_model():
    start = time.time()
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(10):
        spec, X, y = random_instance(rng, "squared-exponential", dim=1)
        model = fit_gp(spec, MeanSpec(), X, y)
        igp = ImpreciseGpSpec(c=1e-12, model=model)
        P = np.linspace(-4.0, 4.0, 40)[:, None]
        lower, upper = set_bounds(igp, P)
        mu, _ = predict_batch(model, P)
        worst = max(worst, np.max(np.abs(upper - mu)), np.max(np.abs(lower - mu)))
    assert worst <= 1e-6
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 3 PASS: c=1e-12 bounds within {worst:.2e} of the "
          f"precise mean ({elapsed:.1f}s)")


def test_criterion_04_width_linear_and_monotone_in_imprecision():
    start = time.time()
    rng = np.random.default_rng(48)
    linear_checked = 0
    for _ in range(100):
        y_scale = float(rng.choice([1.0, 25.0], p=[0.8, 0.2]))
        family = FAMILIES[int(rng.integers(0, 4))]
        spec, X, y = random_instance(rng, family, dim=1)
        y = y * y_scale
        model = fit_gp(spec, MeanSpec(), X, y)
        c1 = float(rng.uniform(0.05, 2.0))
        c2 = c1 * float(rng.uniform(1.2, 4.0))
        igp1 = ImpreciseGpSpec(c=c1, model=model)
        igp2 = ImpreciseGpSpec(c=c2, model=model)
        x = rng.uniform(-4, 4, size=1)
        (w1,) = mean_width_batch(igp1, x)
        (w2,) = mean_width_batch(igp2, x)
        assert w1 <= w2 + 1e-12  # monotone in c, on every triple
        if igp1.case == 1:
            doubled = ImpreciseGpSpec(c=2 * c1, model=model)
            assert mean_width_batch(doubled, x)[0] == pytest.approx(2 * w1, abs=1e-10)
            linear_checked += 1
    elapsed = time.time() - start
    assert elapsed < 5.0
    print("ACCEPTANCE 4 PASS: width monotone on 100 triples, "
          f"linear in c on {linear_checked} near-ignorance cases ({elapsed:.1f}s)")


def test_criterion_05_glcb_reduction_to_lcb():
    start = time.time()
    rng = np.random.default_rng(5)
    for _ in range(200):
        mu, var = float(rng.normal()), float(rng.uniform(0, 4))
        width = float(rng.uniform(0, 5))
        tau = float(rng.uniform(0, 3))
        assert abs(glcb_values(mu, var, width, tau=tau, rho=0.0)
                   - lcb_values(mu, var, tau)) <= 1e-12

    for name in ("sphere-1d", "sphere-2d", "gramacy-lee"):
        target = registry_lookup(name)
        kernel = KernelSpec(family="squared-exponential",
                            lengthscales=(1.0,) * target.dimension)
        lcb_cfg = RunConfig(kernel=kernel, acquisition=AcquisitionSpec(kind="lcb", tau=1.0),
                            n_init=10, budget=30, seed=123)
        glcb_cfg = RunConfig(kernel=kernel,
                             acquisition=AcquisitionSpec(kind="glcb", tau=1.0,
                                                         rho=0.0, c=100.0),
                             n_init=10, budget=30, seed=123)
        a = run(lcb_cfg, target)
        b = run(glcb_cfg, target)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.point, rb.point)
            assert ra.psi == rb.psi
            assert ra.incumbent == rb.incumbent
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 5 PASS: rho=0 reduces to LCB pointwise and trace-exactly "
          f"on 3 targets ({elapsed:.1f}s)")


def test_criterion_06_ei_closed_form_vs_monte_carlo():
    start = time.time()
    rng = np.random.default_rng(66)
    n = 100_000
    for _ in range(10):
        mu = float(rng.uniform(-2, 2))
        var = float(rng.uniform(0.05, 4.0))
        # keep the incumbent within a few deviations so the Monte Carlo
        # estimate actually sees improvements
        psi_min = mu + float(rng.uniform(-3, 2)) * math.sqrt(var)
        draws = rng.normal(mu, math.sqrt(var), size=n)
        samples = np.maximum(psi_min - draws, 0.0)
        se = samples.std(ddof=1) / math.sqrt(n)
        assert se > 0
        closed = -ei_values(mu, var, psi_min=psi_min)
        assert abs(closed - samples.mean()) <= 3 * se
    # degenerate variance is exact
    assert ei_values(1.0, 0.0, psi_min=3.0) == -2.0
    assert ei_values(1.0, 0.0, psi_min=0.5) == 0.0
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 6 PASS: EI within 3 standard errors of Monte Carlo on "
          f"10 settings ({elapsed:.1f}s)")


def test_criterion_07_latin_hypercube_stratification():
    start = time.time()
    bounds = BoxBounds(lower=[0.0, -2.0, 10.0], upper=[1.0, 2.0, 30.0])
    for n in (5, 10, 50):
        pts = latin_hypercube(n, bounds, seed=n)
        for j in range(3):
            unit = (pts[:, j] - bounds.lower[j]) / (bounds.upper[j] - bounds.lower[j])
            assert sorted(np.floor(unit * n).astype(int)) == list(range(n))
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 7 PASS: one point per stratum for n in (5, 10, 50) "
          f"({elapsed:.1f}s)")


def test_criterion_08_focus_search_accuracy():
    start = time.time()
    config = FocusSearchConfig()  # benchmark defaults
    assert config.evals_per_round == 1000 and config.restarts == 5
    worst = 0.0
    for dim, target in ((1, np.array([0.37])), (2, np.array([0.3, 0.7]))):
        bounds = BoxBounds(lower=[0.0] * dim, upper=[1.0] * dim)

        def objective(P):
            return np.sum((P - target) ** 2, axis=1)

        for seed in range(10):
            point, _ = focus_search(objective, bounds, config, seed=seed)
            worst = max(worst, float(np.linalg.norm(point - target)))
    assert worst < 1e-3
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 8 PASS: focus search within {worst:.2e} of the optimum "
          f"over 20 searches ({elapsed:.1f}s)")


def test_criterion_09_mop_ad_arithmetic():
    start = time.time()
    mop = mean_optimization_path([[3.0, 2.0, 2.0], [1.0, 1.0, 0.0]])
    assert np.array_equal(mop, [2.0, 1.5, 1.0])
    assert accumulated_difference(np.array([[1.0, 3.0], [2.0, 2.0]])) == 2.0
    rng = np.random.default_rng(9)
    ads = {f"f{i}": dict(zip(AXES, rng.uniform(0.1, 4.0, 4))) for i in range(5)}
    rel, _, _ = relative_ad_summary(ads)
    for per_function in rel.values():
        assert sum(per_function.values()) == pytest.approx(4.0, abs=1e-10)
    elapsed = time.time() - start
    print(f"ACCEPTANCE 9 PASS: MOP/AD micro-examples and relative-AD "
          f"normalization exact ({elapsed:.1f}s)")


def test_criterion_10_acquisition_comparison_protocol(tmp_path):
    start = time.time()
    out = tmp_path / "cmp"
    code = main([
        "compare", "--functions", "gramacy-lee",
        "--acq", "lcb:tau=1", "--acq", "ei", "--acq", "glcb:tau=1,rho=1,c=100",
        "--override", "reps=20", "--override", "budget=60",
        "--override", "n_init=10", "--override", "kernel.lengthscale=0.1",
        "--seed", "2024", "--jobs", "1", "--out", str(out),
    ])
    assert code == 0
    with open(out / "comparison.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 50  # budget - n_init iterations
    labels = ("lcb_tau1", "ei", "glcb_tau1_rho1_c100")
    for label in labels:
        column = np.array([float(r[f"mop_{label}"]) for r in rows])
        assert np.all(np.diff(column) <= 1e-12)  # monotone nonincreasing
        ci = np.array([float(r[f"ci_{label}"]) for r in rows])
        assert np.all(ci >= 0)
    final = {label: float(rows[-1][f"mop_{label}"]) for label in labels}
    # frozen regression for this master seed: the robust variant ends lowest
    assert final["glcb_tau1_rho1_c100"] <= final["lcb_tau1"]
    elapsed = time.time() - start
    assert elapsed < 600.0
    print(f"ACCEPTANCE 10 PASS: comparison protocol emits well-formed CSV, "
          f"final MOPs {final} ({elapsed:.0f}s)")


def _tree_digest(root: Path) -> dict:
    digest = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digest


def test_criterion_11_sensitivity_protocol(tmp_path):
    start = time.time()
    functions = ["gramacy-lee", "ackley-2d", "rosenbrock-3d", "schwefel-4d",
                 "sphere-7d"]
    args = ["sensitivity"]
    for name in functions:
        args += ["--functions", name]
    args += ["--override", "reps=5", "--override", "iterations=10",
             "--seed", "2024", "--jobs", "1"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    with open(out_a / "relative_ad_sums.csv") as fh:
        sums = {row["axis"]: float(row["sum_relative_ad"])
                for row in csv.DictReader(fh)}
    assert set(sums) == set(AXES)
    for axis, total in sums.items():
        assert math.isfinite(total) and total > 0
    # identical rerun is byte-identical across every emitted file
    assert main(args + ["--out", str(out_b)]) == 0
    assert _tree_digest(out_a) == _tree_digest(out_b)
    elapsed = time.time() - start
    assert elapsed < 600.0
    print(f"ACCEPTANCE 11 PASS: 4-axis sensitivity sums {sums} reproducible "
          f"byte-for-byte ({elapsed:.0f}s)")
