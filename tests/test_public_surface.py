import importlib
import types

import pytest

import probo

#: every public name; adding or removing one is a deliberate edit here
PUBLIC_NAMES = [
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

#: names that left ``probo.__all__`` and are reached through their modules
MODULE_ONLY_NAMES = [
    ("bench", "MopMatrix"), ("bench", "accumulated_difference"),
    ("bench", "mean_optimization_path"), ("bench", "relative_ad_summary"),
    ("engine", "IterationRecord"), ("gp", "GpModel"),
    ("igp", "ImpreciseGpSpec"), ("igp", "mean_width_batch"),
    ("errors", "DimensionMismatchError"), ("optimizer", "latin_hypercube"),
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 27
    assert probo.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    missing = [name for name in probo.__all__ if not hasattr(probo, name)]
    assert missing == []


def test_every_other_public_attribute_is_a_submodule():
    stray = [name for name in dir(probo)
             if not name.startswith("_") and name not in probo.__all__
             and not isinstance(getattr(probo, name), types.ModuleType)]
    assert stray == []


@pytest.mark.parametrize("module, name", MODULE_ONLY_NAMES)
def test_module_only_name_imports_from_its_module(module, name):
    assert not hasattr(probo, name)
    assert hasattr(importlib.import_module(f"probo.{module}"), name)
