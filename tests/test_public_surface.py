import probo

#: every public name; adding or removing one is a deliberate edit here
PUBLIC_NAMES = [
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


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 37
    assert probo.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    missing = [name for name in probo.__all__ if not hasattr(probo, name)]
    assert missing == []
