"""Prior-mean-robust Bayesian optimization over Gaussian-process surrogates.

The package couples a precise GP surrogate with the width of the posterior
mean bounds from a constant-mean prior near-ignorance set.  The generalized
lower confidence bound (GLCB) acquisition spends part of its score on that
width, which makes the optimizer seek out regions where the prior mean
choice still matters.  A benchmark harness reproduces prior-sensitivity and
acquisition-comparison protocols on built-in test functions or tabulated
targets.
"""

from .acquisition import AcquisitionSpec
from .bench import (
    CompareConfig,
    MopMatrix,
    PriorVariant,
    SensitivityConfig,
    SensitivityPlan,
    accumulated_difference,
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
from .functions import load_tabulated_target, registry_lookup, registry_names
from .gp import GpModel, MeanSpec, fit_gp, fit_hyperparameters, predict_batch
from .igp import ImpreciseGpSpec, mean_width_batch
from .kernels import KernelSpec
from .optimizer import BoxBounds, FocusSearchConfig, focus_search, latin_hypercube

__version__ = "0.1.0"

__all__ = [
    "AcquisitionSpec",
    "CompareConfig", "MopMatrix", "PriorVariant", "SensitivityConfig", "SensitivityPlan",
    "accumulated_difference",
    "mean_optimization_path", "relative_ad_summary",
    "run_acquisition_comparison", "run_sensitivity_experiment",
    "BoRunError", "IterationRecord", "OptimizationTrace", "RunConfig",
    "TargetFunction", "run", "save_trace_csv",
    "ConditioningError", "ConfigError", "DimensionMismatchError", "ProboError",
    "load_tabulated_target", "registry_lookup", "registry_names",
    "GpModel", "MeanSpec", "fit_gp", "fit_hyperparameters", "predict_batch",
    "ImpreciseGpSpec", "mean_width_batch",
    "KernelSpec",
    "BoxBounds", "FocusSearchConfig", "focus_search", "latin_hypercube",
]
