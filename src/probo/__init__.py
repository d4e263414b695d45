"""Prior-mean-robust Bayesian optimization over Gaussian-process surrogates.

The package couples a precise GP surrogate with posterior mean bounds from a
constant-mean prior near-ignorance set.  The generalized lower confidence
bound (GLCB) acquisition spends part of its score on the gap between those
bounds, which makes the optimizer seek out regions where the prior mean
choice still matters.  A benchmark harness reproduces prior-sensitivity and
acquisition-comparison protocols on built-in test functions or tabulated
targets.
"""

from .acquisition import AcquisitionSpec, parse_acquisition
from .bench import (
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
from .engine import (
    BoRunError,
    IterationRecord,
    OptimizationTrace,
    RunConfig,
    TargetFunction,
    run,
    save_trace_csv,
)
from .errors import ConditioningError, ConfigError, DimensionMismatchError, ProboError
from .functions import (
    TabulatedTarget,
    load_tabulated_target,
    registry_lookup,
    registry_names,
)
from .gp import (
    GpModel,
    MeanSpec,
    fit_gp,
    fit_hyperparameters,
    log_marginal_likelihood,
    predict_batch,
)
from .igp import (
    CASE_EXTREME,
    CASE_NEAR_IGNORANCE,
    ImpreciseGpSpec,
    mean_bounds,
    mean_width_batch,
)
from .kernels import (
    BaseKernelMatrix,
    KernelSpec,
    build_base_kernel_matrix,
    kernel_matrix,
)
from .optimizer import BoxBounds, FocusSearchConfig, focus_search, latin_hypercube

__version__ = "0.1.0"

__all__ = [
    "AcquisitionSpec", "parse_acquisition",
    "MopMatrix", "PriorVariant", "SensitivityPlan",
    "accumulated_difference", "default_sensitivity_plans",
    "mean_optimization_path", "relative_ad_summary",
    "run_acquisition_comparison", "run_sensitivity_experiment",
    "BoRunError", "IterationRecord", "OptimizationTrace", "RunConfig",
    "TargetFunction", "run", "save_trace_csv",
    "ConditioningError", "ConfigError", "DimensionMismatchError", "ProboError",
    "TabulatedTarget", "load_tabulated_target", "registry_lookup", "registry_names",
    "GpModel", "MeanSpec", "fit_gp", "fit_hyperparameters",
    "log_marginal_likelihood", "predict_batch",
    "CASE_EXTREME", "CASE_NEAR_IGNORANCE", "ImpreciseGpSpec",
    "mean_bounds", "mean_width_batch",
    "BaseKernelMatrix", "KernelSpec", "build_base_kernel_matrix", "kernel_matrix",
    "BoxBounds", "FocusSearchConfig", "focus_search", "latin_hypercube",
]
