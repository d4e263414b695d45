"""Properties of whole runs over drawn configs (ROADMAP item 18).

A run either completes with one record per evaluation of its budget or
raises a ProboError: a ConfigError for a bad setting, a BoRunError for a
run that fails.  It never raises a bare ValueError or an AssertionError,
and it never warns.  The draws include the edges of every range that a
config check guards, so each rule is crossed from both sides.
"""

import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from probo import (AcquisitionSpec, FocusSearchConfig, KernelSpec, MeanSpec, ProboError,
                   RunConfig, registry_lookup, registry_names, run)
from probo.gp import MEAN_FORMS
from probo.kernels import FAMILIES

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
