"""Every rejection of a config object is a ConfigError: one table row per
rule of KernelSpec, MeanSpec, FocusSearchConfig, AcquisitionSpec and
ImpreciseGpSpec, so that `except probo.ConfigError` catches each of them.
Bad array data, such as a non-finite point, stays a plain ValueError."""

import math

import pytest

from probo.acquisition import AcquisitionSpec
from probo.engine import RunConfig
from probo.errors import ConfigError
from probo.gp import MeanSpec, fit_gp
from probo.igp import ImpreciseGpSpec
from probo.kernels import KernelSpec, _as_points
from probo.optimizer import BoxBounds, FocusSearchConfig

MODEL = fit_gp(KernelSpec(), MeanSpec(), [[0.0], [1.0]], [1.0, 2.0])

REJECTIONS = [
    (lambda: KernelSpec(family="exponential"), "unknown kernel family"),
    (lambda: KernelSpec(lengthscales=1.0), "lengthscales must be a list"),
    (lambda: KernelSpec(lengthscales=(math.nan,)), "lengthscales must be a finite real"),
    (lambda: KernelSpec(lengthscales=()), "at least one lengthscale"),
    (lambda: KernelSpec(lengthscales=(0.0,)), "lengthscales must be positive"),
    (lambda: KernelSpec(lengthscales=(1.0, -1.0)), "lengthscales must be positive"),
    (lambda: KernelSpec(lengthscales=(1e-320,)), "with a finite reciprocal"),
    (lambda: KernelSpec(signal_variance="1"), "signal_variance must be a finite real"),
    (lambda: KernelSpec(signal_variance=0.0), r"signal_variance must lie in \[2\^-511, 1e300\]"),
    (lambda: KernelSpec(signal_variance=-1.0), r"signal_variance must lie in \["),
    (lambda: KernelSpec(signal_variance=1e-160), r"signal_variance must lie in \["),
    (lambda: KernelSpec(signal_variance=1e301), r"signal_variance must lie in \["),
    (lambda: KernelSpec(family="power-exponential"), "requires a power exponent"),
    (lambda: KernelSpec(family="power-exponential", power=True), "power must be a finite real"),
    (lambda: KernelSpec(family="power-exponential", power=0.0), r"power exponent must lie in"),
    (lambda: KernelSpec(family="power-exponential", power=2.5), r"power exponent must lie in"),
    (lambda: KernelSpec(family="matern-3/2", power=1.0), "takes no power exponent"),
    (lambda: MeanSpec(form="cubic-fixed"), "unknown mean form"),
    (lambda: MeanSpec("constant-fixed", 5.0), "coefficients must be a list"),
    (lambda: MeanSpec("constant-fixed", (math.inf,)), "coefficients must be a finite real"),
    (lambda: MeanSpec("constant-estimated", (1.0,)), "carries no coefficients"),
    (lambda: MeanSpec("linear-fixed", (0.0, 1.0)).validate_for_dimension(2),
     "linear-fixed mean in dimension 2 needs 3 coefficients, got 2"),
    (lambda: FocusSearchConfig(evals_per_round=0), "evals_per_round must be positive"),
    (lambda: FocusSearchConfig(rounds=1.5), "rounds must be an integer"),
    (lambda: FocusSearchConfig(restarts=True), "restarts must be an integer"),
    (lambda: FocusSearchConfig(shrink_factor="x"), "shrink_factor must be a finite real"),
    (lambda: FocusSearchConfig(shrink_factor=0.0), r"shrink_factor must lie in \(0, 1\)"),
    (lambda: FocusSearchConfig(shrink_factor=1.0), r"shrink_factor must lie in \(0, 1\)"),
    (lambda: AcquisitionSpec(kind="ucb"), "unknown acquisition"),
    (lambda: AcquisitionSpec(kind="ei", tau=1.0), "ei acquisition takes no tau"),
    (lambda: AcquisitionSpec(kind="lcb", tau=math.inf), "tau must be a finite real"),
    (lambda: AcquisitionSpec(kind="lcb", tau=-1.0), "tau must be nonnegative"),
    (lambda: AcquisitionSpec(kind="glcb", rho=-1.0), "rho must be nonnegative"),
    (lambda: AcquisitionSpec(kind="glcb", c=0.0), r"degree of imprecision c must lie in \(0, "),
    (lambda: AcquisitionSpec(kind="glcb", c=-1.0), r"degree of imprecision c must lie in \(0, "),
    (lambda: AcquisitionSpec(kind="glcb", c=1e301), r"degree of imprecision c must lie in \(0, "),
    (lambda: ImpreciseGpSpec(c="1", model=MODEL), "c must be a finite real"),
    (lambda: ImpreciseGpSpec(c=0.0, model=MODEL), r"degree of imprecision c must lie in \(0, "),
    (lambda: ImpreciseGpSpec(c=-1.0, model=MODEL), r"degree of imprecision c must lie in \(0, "),
    (lambda: ImpreciseGpSpec(c=1e301, model=MODEL), r"degree of imprecision c must lie in \(0, "),
    (lambda: RunConfig(kernel={}), "field kernel must be an instance of KernelSpec"),
]


@pytest.mark.parametrize("build, message", REJECTIONS, ids=[
    f"{build.__code__.co_names[0]}-{row}" for row, (build, _) in enumerate(REJECTIONS)])
def test_each_config_rule_rejects_with_a_config_error(build, message):
    with pytest.raises(ConfigError, match=message):
        build()


def test_the_acquisition_and_the_model_state_one_rule_for_c():
    for c in (0.0, -1.0, 1e301):
        with pytest.raises(ConfigError) as spec_error:
            AcquisitionSpec(kind="glcb", c=c)
        with pytest.raises(ConfigError) as model_error:
            ImpreciseGpSpec(c=c, model=MODEL)
        assert str(spec_error.value) == str(model_error.value)


@pytest.mark.parametrize("build", [
    lambda: _as_points([[0.0, math.nan]], 2, "points"),
    lambda: BoxBounds(lower=[1.0], upper=[0.0]),
])
def test_bad_array_data_stays_a_plain_value_error(build):
    with pytest.raises(ValueError) as err:
        build()
    assert not isinstance(err.value, ConfigError)
