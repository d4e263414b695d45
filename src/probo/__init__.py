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
    PriorVariant,
    SensitivityConfig,
    SensitivityPlan,
    run_acquisition_comparison,
    run_sensitivity_experiment,
)
from .engine import BoRunError, OptimizationTrace, RunConfig, TargetFunction, run, save_trace_csv
from .errors import ConditioningError, ConfigError, ProboError
from .functions import load_tabulated_target, registry_lookup, registry_names
from .gp import MeanSpec, fit_gp, fit_hyperparameters, predict_batch
from .kernels import KernelSpec
from .optimizer import BoxBounds, FocusSearchConfig, focus_search

__version__ = "0.1.0"

__all__ = [
    "AcquisitionSpec",
    "CompareConfig", "PriorVariant", "SensitivityConfig", "SensitivityPlan",
    "run_acquisition_comparison", "run_sensitivity_experiment",
    "BoRunError", "OptimizationTrace", "RunConfig",
    "TargetFunction", "run", "save_trace_csv",
    "ConditioningError", "ConfigError", "ProboError",
    "load_tabulated_target", "registry_lookup", "registry_names",
    "MeanSpec", "fit_gp", "fit_hyperparameters", "predict_batch",
    "KernelSpec",
    "BoxBounds", "FocusSearchConfig", "focus_search",
]
