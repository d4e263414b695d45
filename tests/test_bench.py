import numpy as np
import pytest

from probo.acquisition import AcquisitionSpec
from probo.bench import (
    AXES,
    MopMatrix,
    PriorVariant,
    SensitivityPlan,
    accumulated_difference,
    default_sensitivity_plans,
    mean_optimization_path,
    relative_ad_summary,
    run_acquisition_comparison,
    run_sensitivity_experiment,
)
from probo.engine import RunConfig, derive_seed, run
from probo.errors import ConfigError
from probo.functions import registry_lookup
from probo.optimizer import FocusSearchConfig

FAST_INFILL = FocusSearchConfig(evals_per_round=150, rounds=3, restarts=2)


# --------------------------------------------------------------------- MOP

def test_single_repetition_is_the_path_itself():
    assert np.array_equal(mean_optimization_path([[5.0, 4.0, 4.0]]), [5.0, 4.0, 4.0])


def test_mop_hand_computed():
    mop = mean_optimization_path([[3.0, 2.0, 2.0], [1.0, 1.0, 0.0]])
    assert np.array_equal(mop, [2.0, 1.5, 1.0])


def test_mop_permutation_invariant():
    rng = np.random.default_rng(40)
    paths = [np.sort(rng.normal(size=6))[::-1] for _ in range(5)]
    a = mean_optimization_path(paths)
    b = mean_optimization_path([paths[i] for i in rng.permutation(5)])
    assert np.allclose(a, b, atol=0)


def test_mop_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        mean_optimization_path([[1.0, 2.0], [1.0]])


# ---------------------------------------------------------------------- AD

def test_ad_zero_for_identical_columns():
    col = np.array([3.0, 2.0, 1.0])
    assert accumulated_difference(np.column_stack([col, col])) == 0.0


def test_ad_hand_computed():
    mop = np.array([[1.0, 3.0], [2.0, 2.0]])  # columns [1,2] and [3,2]
    assert accumulated_difference(mop) == 2.0


def test_ad_invariant_under_constant_shift():
    rng = np.random.default_rng(41)
    mop = rng.normal(size=(7, 3))
    assert accumulated_difference(mop + 11.5) == pytest.approx(
        accumulated_difference(mop), abs=1e-9)


def test_ad_needs_two_settings():
    with pytest.raises(ValueError):
        accumulated_difference(np.ones((5, 1)))


def test_mop_matrix_validation():
    with pytest.raises(ValueError):
        MopMatrix(values=np.ones((3, 2)), labels=("only-one",), repetitions=4)


# ------------------------------------------------------------- relative AD

def test_uniform_ads_normalize_to_one():
    rel, sums, excluded = relative_ad_summary(
        {"f": dict(zip(AXES, (1.0, 1.0, 1.0, 1.0)))})
    assert all(v == 1.0 for v in rel["f"].values())
    assert all(s == 1.0 for s in sums.values())
    assert excluded == []


def test_relative_ads_hand_computed():
    rel, _, _ = relative_ad_summary({"f": dict(zip(AXES, (2.0, 0.0, 0.0, 2.0)))})
    assert list(rel["f"].values()) == [2.0, 0.0, 0.0, 2.0]


def test_relative_ads_sum_to_axis_count():
    rng = np.random.default_rng(42)
    ads = {f"f{i}": dict(zip(AXES, rng.uniform(0.1, 5.0, size=4))) for i in range(6)}
    rel, sums, _ = relative_ad_summary(ads)
    for per_function in rel.values():
        assert sum(per_function.values()) == pytest.approx(4.0, abs=1e-10)
    assert sum(sums.values()) == pytest.approx(4.0 * 6, abs=1e-9)


def test_relative_ads_scale_free_per_function():
    base = {"f": dict(zip(AXES, (1.0, 2.0, 3.0, 4.0))),
            "g": dict(zip(AXES, (0.5, 0.5, 1.0, 2.0)))}
    scaled = {"f": {a: 10.0 * v for a, v in base["f"].items()}, "g": base["g"]}
    rel_a, sums_a, _ = relative_ad_summary(base)
    rel_b, sums_b, _ = relative_ad_summary(scaled)
    for axis in AXES:
        assert rel_a["f"][axis] == pytest.approx(rel_b["f"][axis], abs=1e-12)
        assert sums_a[axis] == pytest.approx(sums_b[axis], abs=1e-12)


def test_all_zero_function_excluded_with_warning():
    ads = {"dead": dict(zip(AXES, (0.0, 0.0, 0.0, 0.0))),
           "live": dict(zip(AXES, (1.0, 2.0, 3.0, 4.0)))}
    with pytest.warns(UserWarning, match="dead"):
        rel, sums, excluded = relative_ad_summary(ads)
    assert excluded == ["dead"]
    assert "dead" not in rel
    assert all(np.isfinite(v) for v in sums.values())


# ------------------------------------------------------------------- plans

def test_default_plans_cover_all_axes():
    plans = default_sensitivity_plans(["sphere-1d"], repetitions=2, iterations=2)
    assert [p.axis for p in plans] == list(AXES)
    for plan in plans:
        assert len(plan.variants) >= 2


def test_plan_requires_two_variants():
    v = PriorVariant(name="only")
    with pytest.raises(ConfigError, match="two variants"):
        SensitivityPlan(axis="mean-parameters", variants=(v,), functions=("sphere-1d",))


def test_plan_rejects_unknown_axis():
    v = PriorVariant(name="a")
    w = PriorVariant(name="b", lengthscale=2.0)
    with pytest.raises(ConfigError, match="axis"):
        SensitivityPlan(axis="noise", variants=(v, w), functions=("sphere-1d",))


def test_variant_broadcasts_to_dimension():
    v = PriorVariant(name="v", lengthscale=0.5, mean_form="quadratic-fixed",
                     mean_intercept=1.0, mean_slope=0.2, mean_quad=0.05)
    k = v.kernel_for(3)
    assert k.lengthscales == (0.5, 0.5, 0.5)
    m = v.mean_for(3)
    assert m.coefficients == (1.0, 0.2, 0.2, 0.2, 0.05, 0.05, 0.05)
    m1 = PriorVariant(name="c", mean_form="constant-fixed", mean_intercept=2.0).mean_for(4)
    assert m1.coefficients == (2.0,)


# ------------------------------------------------------------- sensitivity

def micro_plan(variants, reps=2, iters=3):
    return SensitivityPlan(axis="kernel-parameters", variants=variants,
                           functions=("sphere-1d",), repetitions=reps,
                           iterations=iters, n_init=4,
                           acquisition=AcquisitionSpec(kind="lcb", tau=1.0),
                           infill=FAST_INFILL)


def test_identical_variants_give_exactly_zero_ad():
    twins = (PriorVariant(name="a"), PriorVariant(name="b"))
    result = run_sensitivity_experiment(micro_plan(twins), master_seed=5)
    assert result.ads["sphere-1d"]["kernel-parameters"] == 0.0
    mop = result.mops[("sphere-1d", "kernel-parameters")]
    assert np.array_equal(mop.values[:, 0], mop.values[:, 1])


def test_sensitivity_matches_hand_assembled_runs():
    variants = (PriorVariant(name="narrow", lengthscale=0.5),
                PriorVariant(name="wide", lengthscale=2.0))
    plan = micro_plan(variants)
    result = run_sensitivity_experiment(plan, master_seed=9)

    target = registry_lookup("sphere-1d")
    columns = []
    for variant in variants:
        paths = []
        for rep in range(plan.repetitions):
            cfg = RunConfig(kernel=variant.kernel_for(1), mean=variant.mean_for(1),
                            acquisition=plan.acquisition, infill=plan.infill,
                            n_init=plan.n_init, budget=plan.n_init + plan.iterations,
                            seed=derive_seed(9, target.name, rep))
            paths.append(run(cfg, target).incumbent_path())
        columns.append(np.mean(paths, axis=0))
    expected = np.column_stack(columns)
    mop = result.mops[("sphere-1d", "kernel-parameters")]
    assert np.array_equal(mop.values, expected)
    hand_ad = float(np.sum(expected.max(axis=1) - expected.min(axis=1)))
    assert result.ads["sphere-1d"]["kernel-parameters"] == hand_ad


def test_sensitivity_deterministic_under_master_seed():
    variants = (PriorVariant(name="a", lengthscale=0.7),
                PriorVariant(name="b", lengthscale=1.4))
    r1 = run_sensitivity_experiment(micro_plan(variants), master_seed=3)
    r2 = run_sensitivity_experiment(micro_plan(variants), master_seed=3)
    assert r1.ads == r2.ads


def test_paired_initial_designs_across_variants():
    variants = (PriorVariant(name="a", lengthscale=0.7),
                PriorVariant(name="b", lengthscale=1.4))
    plan = micro_plan(variants)
    result = run_sensitivity_experiment(plan, master_seed=7)
    for rep in range(plan.repetitions):
        a = result.traces[("kernel-parameters", "sphere-1d", "a", rep)]
        b = result.traces[("kernel-parameters", "sphere-1d", "b", rep)]
        for ra, rb in zip(a.records[:plan.n_init], b.records[:plan.n_init]):
            assert np.array_equal(ra.point, rb.point)


# -------------------------------------------------------------- comparison

def test_comparison_reduction_has_zero_ad():
    result = run_acquisition_comparison(
        functions=["sphere-1d"],
        acquisitions=[AcquisitionSpec(kind="lcb", tau=1.0),
                      AcquisitionSpec(kind="glcb", tau=1.0, rho=0.0, c=100.0)],
        repetitions=2, budget=8, n_init=5, master_seed=21, infill=FAST_INFILL)
    mop = result.mops["sphere-1d"]
    assert np.array_equal(mop.values[:, 0], mop.values[:, 1])
    assert accumulated_difference(mop) == 0.0


def test_comparison_defaults_follow_the_protocol():
    import inspect

    sig = inspect.signature(run_acquisition_comparison)
    assert sig.parameters["repetitions"].default == 60
    assert sig.parameters["budget"].default == 90
    assert sig.parameters["n_init"].default == 10


def test_ci_half_width_shrinks_with_more_repetitions():
    acqs = [AcquisitionSpec(kind="lcb", tau=1.0), AcquisitionSpec(kind="ei")]
    small = run_acquisition_comparison(["gramacy-lee"], acqs, repetitions=10,
                                       budget=8, n_init=5, master_seed=2,
                                       kernel={"lengthscale": 0.2}, infill=FAST_INFILL)
    # seeds are derived per repetition index, so the first 10 runs coincide
    big = run_acquisition_comparison(["gramacy-lee"], acqs, repetitions=40,
                                     budget=8, n_init=5, master_seed=2,
                                     kernel={"lengthscale": 0.2}, infill=FAST_INFILL)
    assert big.ci_half_widths["gramacy-lee"].mean() < small.ci_half_widths["gramacy-lee"].mean()


def test_comparison_requires_two_settings():
    with pytest.raises(ConfigError):
        run_acquisition_comparison(["sphere-1d"], [AcquisitionSpec(kind="ei")],
                                   repetitions=2, budget=6, n_init=4)


def test_comparison_rejects_duplicate_labels():
    with pytest.raises(ConfigError, match="distinct"):
        run_acquisition_comparison(
            ["sphere-1d"],
            [AcquisitionSpec(kind="lcb", tau=1.0), AcquisitionSpec(kind="lcb", tau=1.0)],
            repetitions=2, budget=6, n_init=4)


def test_process_pool_matches_serial_results():
    acqs = [AcquisitionSpec(kind="lcb", tau=1.0), AcquisitionSpec(kind="ei")]
    kw = dict(functions=["sphere-1d"], acquisitions=acqs, repetitions=2,
              budget=7, n_init=4, master_seed=13, infill=FAST_INFILL)
    serial = run_acquisition_comparison(jobs=1, **kw)
    pooled = run_acquisition_comparison(jobs=2, **kw)
    assert np.array_equal(serial.mops["sphere-1d"].values,
                          pooled.mops["sphere-1d"].values)
