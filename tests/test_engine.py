import csv
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

import probo.engine as engine
from probo.acquisition import AcquisitionSpec
from probo.bench import CompareConfig, SensitivityConfig
from probo.engine import (
    BoRunError,
    RunConfig,
    TargetFunction,
    _nudge_duplicate,
    run,
    save_trace_csv,
)
from probo.errors import ConfigError, ConfigObject, ProboError
from probo.functions import registry_lookup, registry_names
from probo.gp import MeanSpec, _training_data
from probo.kernels import DUPLICATE_TOL, KernelSpec
from probo.optimizer import BoxBounds, FocusSearchConfig

FAST_INFILL = FocusSearchConfig(evals_per_round=200, rounds=3, restarts=2)


def inside(bounds, x):
    """Whether point x lies in the closed box."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return bool(np.all(x >= bounds.lower) and np.all(x <= bounds.upper))


def kernel_1d(ls=1.0):
    return KernelSpec(family="squared-exponential", lengthscales=(ls,))


def lcb_config(**kw):
    defaults = dict(kernel=kernel_1d(), acquisition=AcquisitionSpec(kind="lcb", tau=1.0),
                    infill=FAST_INFILL, n_init=6, budget=16, seed=0)
    defaults.update(kw)
    return RunConfig(**defaults)


def traces_equal(a, b):
    return all(np.array_equal(ra.point, rb.point)
               and ra.psi == rb.psi and ra.incumbent == rb.incumbent
               for ra, rb in zip(a.records, b.records))


# ------------------------------------------------------------------ config

def test_budget_must_cover_initial_design():
    with pytest.raises(ConfigError):
        lcb_config(n_init=10, budget=9)


@pytest.mark.parametrize("field", ["n_init", "budget", "seed", "hyperparameter_budget"])
@pytest.mark.parametrize("value", ["abc", 2.5, True])
def test_integer_fields_reject_other_types(field, value):
    with pytest.raises(ConfigError, match=field):
        lcb_config(**{field: value})


@pytest.mark.parametrize("seed", [-1, 2**63])
def test_seed_must_lie_in_range(seed):
    with pytest.raises(ConfigError, match=r"seed must lie in \[0, 2\*\*63\)"):
        lcb_config(seed=seed)
    assert lcb_config(seed=2**63 - 1).seed == 2**63 - 1


@pytest.mark.parametrize("value", ["no", 1, 0, None])
def test_hyperparameter_fit_must_be_a_bool(value):
    with pytest.raises(ConfigError, match="hyperparameter_fit"):
        lcb_config(hyperparameter_fit=value)


@pytest.mark.parametrize("fit", [True, False])
def test_hyperparameter_budget_must_be_positive(fit):
    with pytest.raises(ConfigError, match="hyperparameter_budget"):
        lcb_config(hyperparameter_fit=fit, hyperparameter_budget=0)


def test_target_dimension_follows_bounds():
    base = registry_lookup("sphere-2d")
    assert base.dimension == 2
    # replacing the evaluator keeps the bounds, hence the dimension
    assert replace(base, evaluate=lambda x: 0.0).dimension == 2
    one_d = TargetFunction(name="line", evaluate=base.evaluate,
                           bounds=BoxBounds(lower=[0.0], upper=[1.0]))
    assert one_d.dimension == 1


def test_kernel_dimension_must_match_target():
    tf = registry_lookup("sphere-2d")
    kernel = KernelSpec(family="squared-exponential", lengthscales=(1.0, 1.0, 1.0))
    with pytest.raises(ConfigError, match="dimension 2 but the kernel carries 3 lengthscales"):
        run(lcb_config(kernel=kernel), tf)


def test_mean_must_fit_target_dimension():
    evaluated = []
    base = registry_lookup("sphere-2d")
    tf = replace(base, evaluate=lambda x: evaluated.append(x) or base.evaluate(x))
    cfg = lcb_config(mean=MeanSpec(form="linear-fixed", coefficients=(0.0, 1.0, 2.0, 3.0)))
    with pytest.raises(ConfigError, match="sphere-2d.* needs 3 coefficients, got 4"):
        run(cfg, tf)
    assert evaluated == []


@pytest.mark.parametrize("name", registry_names())
def test_default_config_runs_on_every_registry_target(name):
    target = registry_lookup(name)
    config = RunConfig(infill=FocusSearchConfig(evals_per_round=20, rounds=2, restarts=1),
                       n_init=3, budget=4)
    trace = run(config, target)
    assert trace.budget == 4
    assert trace.config.kernel.lengthscales == (1.0,) * target.dimension
    assert trace.config.mean == MeanSpec()


def test_run_records_the_config_broadcast_to_the_target():
    target = registry_lookup("sphere-2d")
    one_d = lcb_config(kernel=kernel_1d(0.5), mean=MeanSpec("linear-fixed", (0.0, 0.1)),
                       budget=9)
    written = lcb_config(kernel=KernelSpec(lengthscales=(0.5, 0.5)),
                         mean=MeanSpec("linear-fixed", (0.0, 0.1, 0.1)), budget=9)
    broadcast, given = run(one_d, target), run(written, target)
    assert broadcast.config == given.config == written
    assert traces_equal(broadcast, given)
    # on a one-dimensional target the config comes back equal
    assert run(one_d, registry_lookup("sphere-1d")).config == one_d


def test_lengthscale_must_scale_the_box_within_range():
    tf = registry_lookup("sphere-2d")
    # 5.12 / 1e-307 is finite, 5.12 / 1e-308 is not
    engine._check_target(lcb_config(kernel=kernel_1d(1e-307).broadcast(2)), tf)
    with pytest.raises(ConfigError, match=r"lengthscales .* scale its bound 5\.12"):
        run(lcb_config(kernel=kernel_1d(1e-308).broadcast(2)), tf)


@pytest.mark.parametrize("obj", [
    KernelSpec(family="squared-exponential", lengthscales=(0.5, 2.0), signal_variance=1.5),
    KernelSpec(family="power-exponential", lengthscales=(0.5,), power=1.2),
    KernelSpec(family="matern-3/2", lengthscales=(3.0,)),
    KernelSpec(family="matern-5/2", lengthscales=(0.1, 0.2, 0.3), signal_variance=2.0),
    MeanSpec(),
    MeanSpec(form="constant-fixed", coefficients=(0.5,)),
    MeanSpec(form="linear-fixed", coefficients=(0.0, 0.1, -0.2)),
    MeanSpec(form="quadratic-fixed", coefficients=(1.0, 0.1, 0.01)),
    AcquisitionSpec(kind="ei"),
    AcquisitionSpec(kind="lcb", tau=2.5),
    AcquisitionSpec(kind="glcb", tau=0.5, rho=2.0, c=10.0),
    FocusSearchConfig(evals_per_round=7, rounds=2, restarts=3, shrink_factor=0.25),
    RunConfig(kernel=KernelSpec(family="power-exponential", lengthscales=(0.5, 2.0), power=1.5),
              mean=MeanSpec(form="linear-fixed", coefficients=(1.0, 0.5, 0.25)),
              acquisition=AcquisitionSpec(kind="glcb", tau=1.0, rho=2.0, c=100.0),
              infill=FAST_INFILL, n_init=3, budget=5, seed=2**63 - 1,
              hyperparameter_fit=True, hyperparameter_budget=7),
    CompareConfig(functions=("sphere-1d", "gramacy-lee"),
                  acquisitions=(AcquisitionSpec(kind="ei"), AcquisitionSpec(kind="lcb", tau=2.0)),
                  reps=3, budget=12, n_init=4, seed=5,
                  kernel=KernelSpec(family="matern-5/2", lengthscales=(0.3,)),
                  mean=MeanSpec(form="constant-fixed", coefficients=(1.0,)), infill=FAST_INFILL),
    SensitivityConfig(functions=("sphere-2d",), reps=2, iterations=3, n_init=4, seed=9,
                      acquisition=AcquisitionSpec(kind="glcb", tau=1.0, rho=0.5, c=10.0),
                      infill=FAST_INFILL),
], ids=lambda obj: type(obj).__name__)
def test_config_objects_round_trip_through_json(obj):
    assert type(obj).from_dict(json.loads(json.dumps(obj.to_dict()))) == obj


@pytest.mark.parametrize("cls, given, names", [
    (RunConfig, {}, ["n_init", "budget", "seed", "hyperparameter_budget"]),
    (FocusSearchConfig, {}, ["evals_per_round", "rounds", "restarts"]),
    (CompareConfig, {"acquisitions": ("ei", "lcb")}, ["reps", "budget", "n_init", "seed"]),
    (SensitivityConfig, {}, ["reps", "iterations", "n_init", "seed"]),
], ids=lambda x: getattr(x, "__name__", ""))
def test_numpy_integer_fields_are_written_as_json_integers(cls, given, names):
    # the integer checks accept numpy integers, so to_dict must write them
    assert names == [f.name for f in fields(cls) if type(f.default) is int]
    config = cls(**given, **{name: np.int64(getattr(cls, name)) for name in names})
    data = json.loads(json.dumps(config.to_dict()))
    assert all(type(data[name]) is int for name in names)
    assert cls.from_dict(data) == config


def test_a_run_with_numpy_integer_settings_writes_its_config(tmp_path):
    config = lcb_config(n_init=np.int64(3), budget=np.int64(4), seed=np.int64(2))
    save_trace_csv(run(config, registry_lookup("sphere-1d")), tmp_path / "trace.csv",
                   tmp_path / "config.json")
    written = json.loads((tmp_path / "config.json").read_text())
    assert (written["n_init"], written["budget"], written["seed"]) == (3, 4, 2)


CONFIGS = {RunConfig: {}, SensitivityConfig: {},
           CompareConfig: {"acquisitions": ("ei", "lcb")}}
NESTED = [(cls, f.name) for cls in CONFIGS for f in fields(cls)
          if isinstance(f.default, ConfigObject)]


def test_every_config_object_field_is_covered():
    assert [(cls.__name__, name) for cls, name in NESTED] == [
        ("RunConfig", "kernel"), ("RunConfig", "mean"), ("RunConfig", "acquisition"),
        ("RunConfig", "infill"), ("SensitivityConfig", "acquisition"),
        ("SensitivityConfig", "infill"), ("CompareConfig", "kernel"),
        ("CompareConfig", "mean"), ("CompareConfig", "infill")]


@pytest.mark.parametrize("cls, name", NESTED, ids=lambda x: getattr(x, "__name__", x))
def test_config_object_field_must_hold_its_class(cls, name):
    default = getattr(cls(**CONFIGS[cls]), name)
    for bad in ("ei", default.to_dict(), None, MeanSpec() if name != "mean" else KernelSpec()):
        with pytest.raises(ConfigError, match=f"{cls.section} config field {name} must be "
                                              f"an instance of {type(default).__name__}"):
            cls(**CONFIGS[cls], **{name: bad})


def test_config_dict_round_trip():
    cfg = lcb_config(acquisition=AcquisitionSpec(kind="glcb", tau=1.0, rho=2.0, c=10.0))
    assert RunConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError, match="wat"):
        RunConfig.from_dict(dict(cfg.to_dict(), wat=1))


# ----------------------------------------------------------------- the loop

def test_degenerate_budget_is_initial_design_only():
    tf = registry_lookup("sphere-1d")
    cfg = lcb_config(n_init=8, budget=8, seed=3)
    trace = run(cfg, tf)
    assert trace.budget == 8
    assert all(math.isnan(r.acq_value) for r in trace.records)
    assert trace.best_value() == min(r.psi for r in trace.records)


def test_identical_seeds_give_identical_traces():
    tf = registry_lookup("sphere-1d")
    a = run(lcb_config(seed=11), tf)
    b = run(lcb_config(seed=11), tf)
    assert traces_equal(a, b)
    c = run(lcb_config(seed=12), tf)
    assert not traces_equal(a, c)


def test_budget_accounting_and_containment():
    calls = []
    base = registry_lookup("sphere-1d")

    def counting(x):
        calls.append(float(x[0]))
        return base.evaluate(x)

    tf = TargetFunction(name="counted", evaluate=counting, bounds=base.bounds)
    trace = run(lcb_config(budget=14, seed=2), tf)
    assert len(calls) == 14
    assert trace.budget == 14
    for r in trace.records:
        assert inside(base.bounds, r.point)
    # no two design points collide
    pts = np.array([r.point for r in trace.records])
    gaps = np.abs(pts[:, None, :] - pts[None, :, :]).sum(-1)
    iu = np.triu_indices(len(pts), k=1)
    assert gaps[iu].min() > DUPLICATE_TOL


def test_incumbent_is_monotone():
    tf = registry_lookup("gramacy-lee")
    trace = run(lcb_config(kernel=kernel_1d(0.2), seed=5, budget=20), tf)
    path = [r.incumbent for r in trace.records]
    assert all(a >= b for a, b in zip(path, path[1:]))
    assert np.array_equal(trace.incumbent_path(include_init=True), path)
    assert len(trace.incumbent_path()) == 20 - 6


def test_sphere_converges_near_optimum():
    # frozen regression: default infill, pinned seed
    tf = registry_lookup("sphere-1d")
    cfg = RunConfig(kernel=kernel_1d(), acquisition=AcquisitionSpec(kind="lcb", tau=1.0),
                    n_init=10, budget=30, seed=0)
    trace = run(cfg, tf)
    assert trace.best_value() <= 1e-2


# ------------------------------------------------------------ robust variant

def test_probo_zero_rho_reproduces_lcb_exactly():
    tf = registry_lookup("sphere-1d")
    lcb = run(lcb_config(seed=9), tf)
    glcb = run(lcb_config(
        acquisition=AcquisitionSpec(kind="glcb", tau=1.0, rho=0.0, c=100.0), seed=9), tf)
    assert traces_equal(lcb, glcb)
    assert all(ra.acq_value == rb.acq_value or (math.isnan(ra.acq_value)
               and math.isnan(rb.acq_value))
               for ra, rb in zip(lcb.records, glcb.records))


def test_probo_vanishing_imprecision_matches_lcb_proposals():
    tf = registry_lookup("sphere-1d")
    lcb = run(lcb_config(seed=4, budget=20), tf)
    tiny = run(lcb_config(
        acquisition=AcquisitionSpec(kind="glcb", tau=1.0, rho=1.0, c=1e-12),
        seed=4, budget=20), tf)
    for ra, rb in zip(lcb.records, tiny.records):
        assert np.max(np.abs(ra.point - rb.point)) <= 1e-6


def test_probo_records_case_and_clamps(monkeypatch):
    cases = []
    fit = engine.ImpreciseGpSpec

    def recording(c, model):
        igp = fit(c=c, model=model)
        cases.append(igp.case)
        return igp

    monkeypatch.setattr(engine, "ImpreciseGpSpec", recording)
    tf = registry_lookup("gramacy-lee")
    cfg = lcb_config(kernel=kernel_1d(1.0),
                     acquisition=AcquisitionSpec(kind="glcb", tau=1.0, rho=1.0, c=100.0),
                     seed=1)
    trace = run(cfg, tf)
    bo_records = trace.records[cfg.n_init:]
    # each record carries the case of its own iteration's fit (this run
    # enters both); clamped is always 0
    assert [r.igp_case for r in bo_records] == cases
    assert set(cases) == {1, 2}
    assert all(r.igp_case == 0 for r in trace.records[:cfg.n_init])
    assert all(r.clamped == 0 for r in trace.records)


def test_glcb_beats_lcb_on_wiggly_target():
    # seeded regression mirroring the late-iteration ordering on multimodal
    # wiggly targets; configuration frozen after one calibration
    tf = registry_lookup("gramacy-lee")
    kernel = kernel_1d(0.1)
    infill = FocusSearchConfig(evals_per_round=300, rounds=4, restarts=3)
    finals = {"lcb": [], "glcb": []}
    for seed in range(20):
        lcb = run(RunConfig(kernel=kernel, acquisition=AcquisitionSpec(kind="lcb", tau=1.0),
                            infill=infill, n_init=10, budget=40, seed=seed), tf)
        glcb = run(RunConfig(kernel=kernel,
                             acquisition=AcquisitionSpec(kind="glcb", tau=1.0,
                                                         rho=1.0, c=100.0),
                             infill=infill, n_init=10, budget=40, seed=seed), tf)
        finals["lcb"].append(lcb.best_value())
        finals["glcb"].append(glcb.best_value())
    assert np.mean(finals["glcb"]) <= np.mean(finals["lcb"])


# ------------------------------------------------------------------ failure

def test_fit_failure_carries_partial_trace(monkeypatch):
    tf = registry_lookup("sphere-1d")

    def explode(*args, **kwargs):
        raise ValueError("forced fit failure")

    monkeypatch.setattr(engine, "fit_gp", explode)
    with pytest.raises(BoRunError) as err:
        run(lcb_config(n_init=5, budget=9, seed=0), tf)
    partial = err.value.partial_trace
    assert partial.budget == 5  # the initial design survived
    assert all(math.isnan(r.acq_value) for r in partial.records)


def test_a_bug_in_the_fit_is_not_a_failed_run(monkeypatch):
    # only the failures the fits document (ProboError, ValueError) end a run
    # as a BoRunError; an AssertionError is a bug and must surface as one
    def broken(*args, **kwargs):
        raise AssertionError("broken invariant")

    monkeypatch.setattr(engine, "fit_gp", broken)
    with pytest.raises(AssertionError, match="broken invariant"):
        run(lcb_config(n_init=5, budget=9, seed=0), registry_lookup("sphere-1d"))


@pytest.mark.parametrize("stage", ["focus_search", "_nudge_duplicate"])
def test_search_failure_carries_partial_trace(monkeypatch, stage):
    tf = registry_lookup("sphere-1d")
    real = getattr(engine, stage)
    calls = {"n": 0}

    def fail_second_call(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise ProboError("forced search failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, stage, fail_second_call)
    with pytest.raises(BoRunError, match="proposal search failed at iteration 2: forced") as err:
        run(lcb_config(n_init=5, budget=9, seed=0), tf)
    assert err.value.partial_trace.budget == 6  # the design and the first proposal


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("hyperparameter_fit, at", [
    # evaluation 7 is mid-run, 3 is in the design and 12 is the last
    pytest.param(False, 7, id="False"), pytest.param(True, 7, id="True"),
    pytest.param(False, 3, id="False-at3"), pytest.param(True, 3, id="True-at3"),
    pytest.param(False, 12, id="False-at12"), pytest.param(True, 12, id="True-at12"),
])
def test_non_finite_target_value_is_a_run_error(bad, hyperparameter_fit, at):
    tf = registry_lookup("sphere-1d")
    calls = {"n": 0}

    def bad_at(x):
        calls["n"] += 1
        return bad if calls["n"] == at else tf.evaluate(x)

    config = lcb_config(n_init=5, budget=12, hyperparameter_fit=hyperparameter_fit,
                        hyperparameter_budget=3)
    with pytest.raises(BoRunError, match=f"evaluation {at}: .* not finite") as err:
        run(config, replace(tf, evaluate=bad_at))
    partial = err.value.partial_trace
    assert partial.budget == at  # the trace up to and including the bad value
    assert np.array_equal([partial.records[-1].psi], [bad], equal_nan=True)


def test_a_nudge_that_gives_up_ends_the_run(monkeypatch):
    # every proposal reads as a near-duplicate of the design; the fit's own
    # duplicate check looks the rule up in probo.gp, so it still passes
    monkeypatch.setattr(engine, "_near_duplicate", lambda d2: 0.0)
    with pytest.raises(BoRunError, match="proposal search failed at iteration 1: could not "
                                         "nudge a duplicate proposal") as err:
        run(lcb_config(n_init=5, budget=9, seed=0), registry_lookup("sphere-1d"))
    assert err.value.partial_trace.budget == 5


def test_nudge_moves_duplicates_inside_bounds():
    bounds = BoxBounds(lower=[0.0], upper=[1.0])
    X = np.array([[0.5], [0.9]])
    rng = np.random.default_rng(0)
    moved = _nudge_duplicate(np.array([0.5]), X, bounds, rng)
    assert np.abs(moved - X).min() > DUPLICATE_TOL
    assert inside(bounds, moved)
    assert abs(moved[0] - 0.5) <= engine.NUDGE_RADIUS
    untouched = _nudge_duplicate(np.array([0.2]), X, bounds, rng)
    assert untouched[0] == 0.2


def closest_gap(P, Q):
    """Smallest Euclidean distance between a row of P and a row of Q, through
    the (n, m, d) difference tensor."""
    diff = P[:, None, :] - Q[None, :, :]
    return float(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)).min())


@pytest.mark.parametrize("dim", [1, 2, 3, 7])
def test_duplicate_decisions_follow_the_euclidean_rule(dim):
    # the training-data check and the nudge call a point a duplicate
    # exactly when its brute-force distance to the design is below the
    # tolerance; X[3] = 0 puts gaps of exactly DUPLICATE_TOL on the boundary
    rng = np.random.default_rng(40 + dim)
    X = rng.uniform(0.0, 1.0, size=(6, dim))
    X[3] = 0.0
    bounds = BoxBounds(lower=[-1.0] * dim, upper=[2.0] * dim)
    decisions = []
    for k in (2, 3):
        for scale in (0.0, 0.5, 1.0 - 1e-14, 1.0, 1.0 + 1e-14, 2.0):
            for u in (np.eye(dim)[0], rng.normal(size=dim)):
                point = X[k] + scale * DUPLICATE_TOL * u / np.linalg.norm(u)
                duplicate = closest_gap(point[None], X) < DUPLICATE_TOL
                decisions.append(duplicate)
                data = ((1.0,) * dim, MeanSpec(), np.vstack([X, point]), np.zeros(len(X) + 1))
                if duplicate:
                    with pytest.raises(ValueError, match="near-duplicate"):
                        _training_data(*data)
                else:
                    _training_data(*data)
                moved = _nudge_duplicate(point, X, bounds, np.random.default_rng(0))
                assert np.array_equal(moved, point) != duplicate
    assert any(decisions) and not all(decisions)


# ---------------------------------------------------------------- trace I/O

def test_trace_csv_and_snapshot(tmp_path):
    tf = registry_lookup("sphere-2d")
    cfg = RunConfig(kernel=KernelSpec(family="matern-3/2", lengthscales=(1.0, 1.0)),
                    acquisition=AcquisitionSpec(kind="glcb", tau=1.0, rho=1.0, c=10.0),
                    infill=FAST_INFILL, n_init=5, budget=9, seed=6)
    trace = run(cfg, tf)
    save_trace_csv(trace, tmp_path / "trace.csv", tmp_path / "config.json")

    with open(tmp_path / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    assert list(rows[0]) == ["iter", "x_1", "x_2", "psi", "incumbent",
                             "acq_value", "igp_case", "clamped"]
    assert rows[0]["acq_value"] == ""  # init rows carry no score
    assert rows[-1]["igp_case"] in ("1", "2")
    # values round-trip through repr
    assert float(rows[3]["psi"]) == trace.records[3].psi

    snapshot = json.loads((tmp_path / "config.json").read_text())
    assert snapshot.pop("target") == "sphere-2d"
    assert RunConfig.from_dict(snapshot) == cfg
