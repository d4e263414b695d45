from dataclasses import replace

import numpy as np
import pytest

import probo.bench
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
    write_traces,
)
from probo.engine import RunConfig, TargetFunction, derive_seed, run
from probo.errors import ConfigError, ProboError
from probo.functions import registry_lookup
from probo.gp import MeanSpec
from probo.kernels import KernelSpec
from probo.optimizer import FocusSearchConfig

FAST_INFILL = FocusSearchConfig(evals_per_round=150, rounds=3, restarts=2)


def se(lengthscale):
    """A one-dimensional squared-exponential kernel."""
    return KernelSpec(family="squared-exponential", lengthscales=(lengthscale,))


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
        MopMatrix(values=np.ones((3, 2)), labels=("only-one",))


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


@pytest.mark.parametrize("order", [("short", "full"), ("full", "short")])
def test_function_missing_an_axis_excluded_with_warning(order):
    given = {"short": {"a": 1.0}, "full": {"a": 1.0, "b": 3.0}}
    with pytest.warns(UserWarning, match="'short' has no AD on b"):
        rel, sums, excluded = relative_ad_summary({f: given[f] for f in order})
    assert excluded == ["short"]
    assert rel == {"full": {"a": 0.5, "b": 1.5}}
    assert sums == {"a": 0.5, "b": 1.5}


# ------------------------------------------------------------------- plans

def test_default_plans_cover_all_axes():
    plans = default_sensitivity_plans(["sphere-1d"], repetitions=2, iterations=2)
    assert [p.axis for p in plans] == list(AXES)
    for plan in plans:
        assert len(plan.variants) >= 2
    # settings left out take the SensitivityPlan defaults
    plan = default_sensitivity_plans(["sphere-1d"])[0]
    assert (plan.repetitions, plan.iterations, plan.n_init) == (40, 20, 10)
    assert plan.acquisition == AcquisitionSpec(kind="ei")
    assert plan.infill == FocusSearchConfig()


def test_plan_requires_two_variants():
    v = PriorVariant(name="only")
    with pytest.raises(ConfigError, match="two variants"):
        SensitivityPlan(axis="mean-parameters", variants=(v,), functions=("sphere-1d",))


def test_plan_rejects_duplicate_variant_names():
    # a second variant of the same name would overwrite the first one's runs
    a1 = PriorVariant(name="a", kernel=se(1.0))
    a2 = PriorVariant(name="a", kernel=se(2.0))
    with pytest.raises(ConfigError, match="distinct"):
        SensitivityPlan(axis="kernel-parameters", variants=(a1, a2),
                        functions=("sphere-1d",))


def test_plan_rejects_unknown_axis():
    v = PriorVariant(name="a")
    w = PriorVariant(name="b", kernel=se(2.0))
    with pytest.raises(ConfigError, match="axis"):
        SensitivityPlan(axis="noise", variants=(v, w), functions=("sphere-1d",))


@pytest.mark.parametrize("field", ["repetitions", "iterations", "n_init"])
@pytest.mark.parametrize("value", [1.5, 2.0, "3", True])
def test_plan_counts_must_be_integers(field, value):
    v = PriorVariant(name="a")
    w = PriorVariant(name="b", kernel=se(2.0))
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        SensitivityPlan(axis="kernel-parameters", variants=(v, w),
                        functions=("sphere-1d",), **{field: value})
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        default_sensitivity_plans(["sphere-1d"], **{field: value})


def test_variant_broadcasts_to_dimension():
    v = PriorVariant(name="v", kernel=se(0.5), mean=MeanSpec("quadratic-fixed", (1.0, 0.2, 0.05)))
    assert v.kernel.broadcast(3).lengthscales == (0.5, 0.5, 0.5)
    assert v.mean.broadcast(3).coefficients == (1.0, 0.2, 0.2, 0.2, 0.05, 0.05, 0.05)
    assert MeanSpec("constant-fixed", (2.0,)).broadcast(4).coefficients == (2.0,)
    assert MeanSpec().broadcast(4) == MeanSpec()
    # a spec already written for several dimensions comes back unchanged
    wide = KernelSpec(family="matern-3/2", lengthscales=(0.5, 2.0))
    assert wide.broadcast(3) == wide
    linear = MeanSpec("linear-fixed", (0.0, 1.0, 2.0))
    assert linear.broadcast(3) == linear


@pytest.mark.parametrize("spec", [
    {"kernel": KernelSpec(family="squared-exponential", lengthscales=(1.0, 1.0))},
    {"mean": MeanSpec("linear-fixed", (0.0, 1.0, 2.0))},
])
def test_variant_must_be_written_for_one_dimension(spec):
    with pytest.raises(ConfigError, match="prior variant 'wide' .* one input dimension"):
        PriorVariant(name="wide", **spec)


# ------------------------------------------------------------- sensitivity

def micro_plan(variants, reps=2, iters=3):
    return SensitivityPlan(axis="kernel-parameters", variants=variants,
                           functions=("sphere-1d",), repetitions=reps,
                           iterations=iters, n_init=4,
                           acquisition=AcquisitionSpec(kind="lcb", tau=1.0),
                           infill=FAST_INFILL)


def test_identical_variants_give_exactly_zero_ad():
    twins = (PriorVariant(name="a"), PriorVariant(name="b"))
    with pytest.warns(UserWarning, match="'sphere-1d' has all-zero ADs"):
        result = run_sensitivity_experiment([micro_plan(twins)], master_seed=5)
    assert result.ads["sphere-1d"]["kernel-parameters"] == 0.0
    mop = result.mops[("sphere-1d", "kernel-parameters")]
    assert np.array_equal(mop.values[:, 0], mop.values[:, 1])


def test_sensitivity_matches_hand_assembled_runs():
    variants = (PriorVariant(name="narrow", kernel=se(0.5)),
                PriorVariant(name="wide", kernel=se(2.0),
                             mean=MeanSpec("linear-fixed", (0.0, 0.1))))
    plan = replace(micro_plan(variants), functions=("sphere-2d",))
    result = run_sensitivity_experiment([plan], master_seed=9)

    target = registry_lookup("sphere-2d")
    columns = []
    for variant in variants:
        paths = []
        for rep in range(plan.repetitions):
            cfg = RunConfig(kernel=variant.kernel.broadcast(2), mean=variant.mean.broadcast(2),
                            acquisition=plan.acquisition, infill=plan.infill,
                            n_init=plan.n_init, budget=plan.n_init + plan.iterations,
                            seed=derive_seed(9, target.name, rep))
            paths.append(run(cfg, target).incumbent_path())
        columns.append(np.mean(paths, axis=0))
    expected = np.column_stack(columns)
    mop = result.mops[("sphere-2d", "kernel-parameters")]
    assert np.array_equal(mop.values, expected)
    hand_ad = float(np.sum(expected.max(axis=1) - expected.min(axis=1)))
    assert result.ads["sphere-2d"]["kernel-parameters"] == hand_ad


def test_sensitivity_deterministic_under_master_seed():
    variants = (PriorVariant(name="a", kernel=se(0.7)),
                PriorVariant(name="b", kernel=se(1.4)))
    r1 = run_sensitivity_experiment([micro_plan(variants)], master_seed=3)
    r2 = run_sensitivity_experiment([micro_plan(variants)], master_seed=3)
    assert r1.ads == r2.ads


@pytest.mark.parametrize("failing_first", [True, False])
def test_function_whose_runs_fail_on_one_axis_is_excluded(failing_first):
    # "flaky" works on the kernel-parameters axis and fails on mean-parameters
    sphere = registry_lookup("sphere-1d")

    def unavailable(x):
        raise ProboError("target unavailable")

    def with_flaky(evaluate):
        flaky = TargetFunction(name="flaky", evaluate=evaluate, bounds=sphere.bounds)
        return (flaky, sphere) if failing_first else (sphere, flaky)

    variants = (PriorVariant(name="a", kernel=se(0.7)),
                PriorVariant(name="b", kernel=se(1.4)))
    plan = micro_plan(variants)
    plans = [replace(plan, functions=with_flaky(sphere.evaluate)),
             replace(plan, axis="mean-parameters", functions=with_flaky(unavailable))]
    with pytest.warns(UserWarning, match="runs failed for mean-parameters/flaky"), \
            pytest.warns(UserWarning, match="'flaky' has no AD on mean-parameters"):
        result = run_sensitivity_experiment(plans, master_seed=4)
    assert set(result.ads["flaky"]) == {"kernel-parameters"}
    assert result.excluded == ["flaky"]
    assert list(result.relative) == ["sphere-1d"]
    assert set(result.axis_sums) == {"kernel-parameters", "mean-parameters"}


def test_paired_initial_designs_across_variants():
    variants = (PriorVariant(name="a", kernel=se(0.7)),
                PriorVariant(name="b", kernel=se(1.4)))
    plan = micro_plan(variants)
    result = run_sensitivity_experiment([plan], master_seed=7)
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
    assert accumulated_difference(mop.values) == 0.0


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
                                       kernel=se(0.2), infill=FAST_INFILL)
    # seeds are derived per repetition index, so the first 10 runs coincide
    big = run_acquisition_comparison(["gramacy-lee"], acqs, repetitions=40,
                                     budget=8, n_init=5, master_seed=2,
                                     kernel=se(0.2), infill=FAST_INFILL)
    assert big.ci_half_widths["gramacy-lee"].mean() < small.ci_half_widths["gramacy-lee"].mean()


def test_comparison_requires_two_settings():
    with pytest.raises(ConfigError):
        run_acquisition_comparison(["sphere-1d"], [AcquisitionSpec(kind="ei")],
                                   repetitions=2, budget=6, n_init=4)


@pytest.mark.parametrize("value", [1.5, 2.0, "3", True])
def test_comparison_repetitions_must_be_an_integer(value):
    with pytest.raises(ConfigError, match="repetitions must be an integer"):
        run_acquisition_comparison(
            ["sphere-1d"], [AcquisitionSpec(kind="lcb", tau=1.0), AcquisitionSpec(kind="ei")],
            repetitions=value, budget=6, n_init=4)


def test_comparison_rejects_duplicate_labels():
    with pytest.raises(ConfigError, match="distinct"):
        run_acquisition_comparison(
            ["sphere-1d"],
            [AcquisitionSpec(kind="lcb", tau=1.0), AcquisitionSpec(kind="lcb", tau=1.0)],
            repetitions=2, budget=6, n_init=4)


def run_protocol(protocol, functions=("sphere-1d",), **kw):
    """A small run of either protocol on functions."""
    if protocol == "compare":
        return run_acquisition_comparison(
            functions, [AcquisitionSpec(kind="lcb", tau=1.0), AcquisitionSpec(kind="ei")],
            repetitions=1, budget=6, n_init=4, infill=FAST_INFILL, **kw)
    variants = (PriorVariant(name="a"), PriorVariant(name="b", kernel=se(2.0)))
    return run_sensitivity_experiment([replace(micro_plan(variants), functions=functions)],
                                      **kw)


@pytest.fixture
def runs(monkeypatch):
    """The targets the protocols run on; probo.bench.run only records them."""
    ran = []
    monkeypatch.setattr(probo.bench, "run", lambda config, target: ran.append(target))
    return ran


@pytest.mark.parametrize("protocol", ["compare", "sensitivity"])
def test_repeated_functions_are_rejected_before_any_run(runs, protocol):
    with pytest.raises(ConfigError, match="function names must be distinct"):
        run_protocol(protocol, functions=("sphere-1d", "sphere-2d", "sphere-1d"))
    assert runs == []


@pytest.mark.parametrize("protocol", ["compare", "sensitivity"])
@pytest.mark.parametrize("name, value", [("master_seed", 2.7), ("master_seed", "2"),
                                         ("master_seed", True), ("jobs", 1.5),
                                         ("master_seed", -1), ("master_seed", 2**63)])
def test_seed_and_jobs_must_be_integers_before_any_run(runs, protocol, name, value):
    # a seed must also lie in [0, 2**63)
    problem = "must lie in" if value in (-1, 2**63) else "must be an integer"
    with pytest.raises(ConfigError, match=f"{name} {problem}"):
        run_protocol(protocol, **{name: value})
    assert runs == []


def test_two_plans_that_vary_one_axis_on_one_function_are_rejected(runs):
    # the second plan's runs would replace the first plan's
    first = micro_plan((PriorVariant(name="a"), PriorVariant(name="b", kernel=se(2.0))))
    second = micro_plan((PriorVariant(name="c", kernel=se(0.5)),
                         PriorVariant(name="d", kernel=se(3.0))))
    with pytest.raises(ConfigError, match="two plans vary kernel-parameters on sphere-1d"):
        run_sensitivity_experiment([first, second])
    assert runs == []


@pytest.mark.parametrize("protocol", ["compare", "sensitivity"])
def test_protocol_with_no_complete_group_is_a_run_error(monkeypatch, protocol):
    def unavailable(config, target):
        raise ProboError("target unavailable")

    monkeypatch.setattr(probo.bench, "run", unavailable)
    with pytest.warns(UserWarning, match="runs failed for"), \
            pytest.raises(ProboError, match="every group has a failed run") as info:
        run_protocol(protocol)
    assert not isinstance(info.value, ConfigError)


def test_comparison_broadcasts_its_kernel():
    result = run_protocol("compare", functions=("sphere-2d",), kernel=se(0.3))
    assert {trace.config.kernel for trace in result.traces.values()} == {
        KernelSpec(family="squared-exponential", lengthscales=(0.3, 0.3))}


def test_process_pool_matches_serial_results():
    acqs = [AcquisitionSpec(kind="lcb", tau=1.0), AcquisitionSpec(kind="ei")]
    kw = dict(functions=["sphere-1d"], acquisitions=acqs, repetitions=2,
              budget=7, n_init=4, master_seed=13, infill=FAST_INFILL)
    serial = run_acquisition_comparison(jobs=1, **kw)
    pooled = run_acquisition_comparison(jobs=2, **kw)
    assert np.array_equal(serial.mops["sphere-1d"].values,
                          pooled.mops["sphere-1d"].values)


# ------------------------------------------------------------ trace files

def tiny_trace():
    config = RunConfig(kernel=se(1.0), n_init=3, budget=3)
    return run(config, registry_lookup("sphere-1d"))


def test_trace_paths_contain_no_slash_from_a_label(tmp_path):
    trace = tiny_trace()
    keys = [("kernel-functional-form", "sphere-1d", family, 0)
            for family in ("squared-exponential", "matern-3/2", "matern-5/2")]
    write_traces({key: trace for key in keys}, tmp_path)
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                     if p.is_file())
    assert written == [f"kernel-functional-form/sphere-1d/{label}/rep0.csv"
                       for label in ("matern-3_2", "matern-5_2", "squared-exponential")]


def test_trace_keys_that_share_a_file_are_rejected(tmp_path):
    trace = tiny_trace()
    traces = {("sphere-1d", "x/y", 0): trace, ("sphere-1d", "x_y", 0): trace}
    with pytest.raises(ConfigError, match="x_y"):
        write_traces(traces, tmp_path)
    assert not any(tmp_path.iterdir())
