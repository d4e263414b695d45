"""Benchmark metrics and experiment protocols.

Metrics: the mean optimization path (per-iteration mean of incumbent bests
across repetitions), the accumulated difference (summed per-iteration range
across compared settings), and scale-free relative ADs (each AD divided by
the mean AD of its function across the compared axes).

Protocols: a prior-sensitivity experiment (vary one prior component at a
time, everything else fixed) and an acquisition comparison.  Both pair their
repetitions: at repetition index r every compared setting reuses the same
run seed, hence the same initial design, which removes design noise from the
comparison without biasing means.  Iteration paths are measured over the
adaptive iterations, after the initial design.
"""

from __future__ import annotations

import logging
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .acquisition import AcquisitionSpec
from .engine import (
    OptimizationTrace,
    RunConfig,
    TargetFunction,
    derive_seed,
    run,
    save_trace_csv,
    _check_seed,
    _check_target,
    _fmt,
    _write_csv,
)
from .errors import ConfigError, ConfigObject, ProboError, check_count, check_distinct, check_list
from .functions import registry_lookup
from .gp import MeanSpec
from .kernels import KernelSpec
from .optimizer import FocusSearchConfig

log = logging.getLogger(__name__)

AXES = (
    "mean-functional-form",
    "mean-parameters",
    "kernel-functional-form",
    "kernel-parameters",
)


# ---------------------------------------------------------------- metrics

def mean_optimization_path(paths) -> np.ndarray:
    """Elementwise mean of R incumbent paths of equal length T."""
    lengths = {len(p) for p in paths}
    if not lengths:
        raise ValueError("need at least one path")
    if len(lengths) != 1:
        raise ValueError(f"paths differ in length: {sorted(lengths)}")
    return np.mean(paths, axis=0)


@dataclass(frozen=True)
class MopMatrix:
    """T x S matrix of mean optimization paths, one column per setting."""

    values: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(self.labels):
            raise ValueError("values must be T x S with one label per column")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", tuple(self.labels))


def accumulated_difference(values) -> float:
    """Sum over iterations of the spread across the settings (the columns of a
    T x S array); zero iff the columns agree."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] < 2:
        raise ValueError("need a T x S matrix with at least two settings")
    return float(np.sum(values.max(axis=1) - values.min(axis=1)))


def relative_ad_summary(
    ads_by_function: Mapping[str, Mapping[str, float]],
) -> tuple[dict[str, dict[str, float]], dict[str, float], list[str]]:
    """Divide each function's ADs by their mean across axes and sum per axis.

    Returns (relative ADs per function, per-axis sums, excluded functions).
    Functions that lack an AD on an axis another function has (their runs
    there failed), or whose ADs are all zero, cannot be normalized and are
    excluded with a warning.  For the rest, the relative values of one
    function sum to the number of axes by construction.
    """
    relative: dict[str, dict[str, float]] = {}
    excluded: list[str] = []
    axes = list(dict.fromkeys(axis for ads in ads_by_function.values() for axis in ads))
    for fname, ads in ads_by_function.items():
        missing = [axis for axis in axes if axis not in ads]
        mean_ad = 0.0 if missing else float(np.mean(list(ads.values())))
        if mean_ad == 0.0:
            why = f"no AD on {', '.join(missing)}" if missing else "all-zero ADs"
            warnings.warn(f"function {fname!r} has {why}; excluded from sums")
            excluded.append(fname)
            continue
        relative[fname] = {axis: ad / mean_ad for axis, ad in ads.items()}
    sums = {axis: float(sum(rel[axis] for rel in relative.values())) for axis in axes}
    return relative, sums, excluded


# ------------------------------------------------------- experiment plans

@dataclass(frozen=True)
class PriorVariant:
    """One GP prior in a sensitivity plan; each run repeats a single
    lengthscale, and a mean written for one dimension, to its function's
    dimension (see RunConfig).  The defaults are the baseline prior of
    default_sensitivity_plans."""

    name: str
    kernel: KernelSpec = KernelSpec()
    mean: MeanSpec = MeanSpec()


@dataclass(frozen=True)
class SensitivityPlan:
    """Vary one prior component across >= 2 variants on a set of functions."""

    axis: str
    variants: tuple[PriorVariant, ...]
    functions: tuple[str, ...]
    repetitions: int = 40
    iterations: int = 20
    n_init: int = 10
    acquisition: AcquisitionSpec = AcquisitionSpec(kind="ei")
    infill: FocusSearchConfig = FocusSearchConfig()

    def __post_init__(self):
        if self.axis not in AXES:
            raise ConfigError(f"unknown sensitivity axis {self.axis!r}; choose from {AXES}")
        if len(self.variants) < 2:
            raise ConfigError("a sensitivity plan needs at least two variants")
        check_distinct("variant names", [v.name for v in self.variants])
        object.__setattr__(self, "functions", check_list("functions", self.functions))
        if not self.functions:
            raise ConfigError("a sensitivity plan needs at least one function")
        for name in ("repetitions", "iterations", "n_init"):
            check_count(name, getattr(self, name))


def default_sensitivity_plans(functions: Sequence[str], **settings) -> list[SensitivityPlan]:
    """The default four-axis plan set; settings (repetitions, iterations,
    n_init, acquisition, infill) override the SensitivityPlan defaults.

    Baseline prior: squared-exponential kernel, unit lengthscale and signal
    variance, estimated constant mean.  One component varies per plan; the
    parameter grids are +/- 25% and 50% around the baseline.
    """
    mean_forms = (
        PriorVariant(name="constant-estimated"),
        PriorVariant(name="constant-0", mean=MeanSpec("constant-fixed", (0.0,))),
        PriorVariant(name="linear-0.1", mean=MeanSpec("linear-fixed", (0.0, 0.1))),
        PriorVariant(name="quadratic-0.1-0.01",
                     mean=MeanSpec("quadratic-fixed", (0.0, 0.1, 0.01))),
    )
    mean_params = tuple(
        PriorVariant(name=f"constant-{v:g}", mean=MeanSpec("constant-fixed", (v,)))
        for v in (-1.0, -0.5, 0.0, 0.5, 1.0)
    )
    kernel_forms = tuple(
        PriorVariant(name=fam, kernel=KernelSpec(fam))
        for fam in ("squared-exponential", "matern-3/2", "matern-5/2")
    )
    kernel_params = tuple(
        PriorVariant(name=f"lengthscale-{s:g}", kernel=KernelSpec(lengthscales=(s,)))
        for s in (0.5, 0.75, 1.0, 1.25, 1.5)
    )
    return [
        SensitivityPlan(axis=axis, variants=variants, functions=functions, **settings)
        for axis, variants in zip(AXES, (mean_forms, mean_params, kernel_forms, kernel_params))
    ]


# ------------------------------------------------------------ paired grid

def _run_cell(cell: tuple) -> tuple[tuple, OptimizationTrace | None]:
    key, config, target = cell
    try:
        return key, run(config, target)
    except ProboError as exc:
        log.warning("run %s failed: %s", key, exc)
        return key, None


def _run_grid(groups: Mapping[tuple, tuple], master_seed: int, jobs: int):
    """Run R paired repetitions of every labelled setting of each group.

    groups maps a key to (target, {label: RunConfig}, R).  Repetition r of
    every setting in a group runs on derive_seed(master_seed, target name, r),
    so compared settings face identical initial designs.  Runs go through a
    process pool of one worker per chunk of 4 runs, at most jobs; results are
    keyed, so they do not depend on the pool.  Before the first run, every
    setting is checked against its target; an error names group and label.
    Returns the traces keyed group + (label, r), and per group the
    MopMatrix with each setting's R x T paths, or None (with a warning) if
    any of the group's runs failed; raises ProboError if every group has
    a failed run.
    """
    _check_seed("master_seed", master_seed)
    check_count("jobs", jobs)
    for group, (target, configs, _) in groups.items():
        for label, config in configs.items():
            try:
                _check_target(config, target)
            except ConfigError as exc:
                raise ConfigError(f"{'/'.join(group + (label,))}: {exc}") from None
    cells = [(group + (label, rep),
              replace(config, seed=derive_seed(master_seed, target.name, rep)), target)
             for group, (target, configs, reps) in groups.items()
             for label, config in configs.items() for rep in range(reps)]
    workers = min(jobs, (len(cells) + 3) // 4)  # a forked pool starts every worker up front
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_cell, cells, chunksize=4))
    else:
        done = map(_run_cell, cells)
    traces = {key: trace for key, trace in done if trace is not None}

    built: dict[tuple, tuple[MopMatrix, list[np.ndarray]] | None] = {}
    for group, (_, configs, reps) in groups.items():
        keys = [[group + (label, rep) for rep in range(reps)] for label in configs]
        if not all(key in traces for row in keys for key in row):
            warnings.warn(f"runs failed for {'/'.join(group)}; skipped")
            built[group] = None
            continue
        paths = [np.array([traces[key].incumbent_path() for key in row]) for row in keys]
        mop = np.column_stack([mean_optimization_path(p) for p in paths])
        built[group] = MopMatrix(values=mop, labels=tuple(configs)), paths
    if all(cell is None for cell in built.values()):
        raise ProboError("every group has a failed run; there are no results")
    return traces, built


def _resolve(functions: Sequence) -> list[TargetFunction]:
    targets = [f if isinstance(f, TargetFunction) else registry_lookup(f)
               for f in functions]
    if not targets:
        raise ConfigError("need at least one function")
    check_distinct("function names", [t.name for t in targets])
    return targets


# ----------------------------------------------------- sensitivity runner

@dataclass(frozen=True)
class SensitivityConfig(ConfigObject, section="sensitivity"):
    """The settings of the sensitivity protocol: the default plan set on
    functions, each setting repeated reps times with paired seeds derived
    from seed.  The seed defaults to that of RunConfig and every other
    setting but functions to that of SensitivityPlan."""

    functions: tuple = ()
    reps: int = SensitivityPlan.repetitions
    iterations: int = SensitivityPlan.iterations
    n_init: int = SensitivityPlan.n_init
    seed: int = RunConfig.seed
    acquisition: AcquisitionSpec = SensitivityPlan.acquisition
    infill: FocusSearchConfig = SensitivityPlan.infill

    def __post_init__(self):
        object.__setattr__(self, "functions", check_list("functions", self.functions))
        for name in ("reps", "iterations", "n_init"):
            check_count(name, getattr(self, name))
        _check_seed("seed", self.seed)

    def plans(self) -> list[SensitivityPlan]:
        return default_sensitivity_plans(
            self.functions, repetitions=self.reps, iterations=self.iterations,
            n_init=self.n_init, acquisition=self.acquisition, infill=self.infill)


@dataclass
class SensitivityResult:
    ads: dict[str, dict[str, float]]
    relative: dict[str, dict[str, float]]
    axis_sums: dict[str, float]
    excluded: list[str]
    mops: dict[tuple[str, str], MopMatrix]
    traces: dict[tuple, OptimizationTrace] = field(repr=False, default_factory=dict)


def run_sensitivity_experiment(
    plans: Sequence[SensitivityPlan],
    master_seed: int = 0,
    jobs: int = 1,
) -> SensitivityResult:
    """Execute one plan per prior component and aggregate ADs.

    Repetition r of every (function, variant) cell across all plans shares
    one derived seed, so compared settings face identical initial designs.
    A failed run voids its function for the affected axis with a warning.
    Two plans that vary one axis on one function, or that differ on it in
    any run setting but the prior, raise ConfigError.
    """
    if not plans:
        raise ConfigError("need at least one sensitivity plan")

    groups = {}
    shared: dict[str, tuple] = {}
    for plan in plans:
        configs = {v.name: RunConfig(kernel=v.kernel, mean=v.mean,
                                     acquisition=plan.acquisition, infill=plan.infill,
                                     n_init=plan.n_init, budget=plan.n_init + plan.iterations)
                   for v in plan.variants}
        settings = (plan.repetitions, plan.iterations, plan.n_init, plan.acquisition, plan.infill)
        for target in _resolve(plan.functions):
            if (plan.axis, target.name) in groups:
                raise ConfigError(f"two plans vary {plan.axis} on {target.name}")
            if shared.setdefault(target.name, settings) != settings:
                raise ConfigError(f"plans on {target.name} differ in repetitions, "
                                  "iterations, n_init, acquisition or infill")
            groups[(plan.axis, target.name)] = (target, configs, plan.repetitions)
    traces, built = _run_grid(groups, master_seed, jobs)

    ads: dict[str, dict[str, float]] = {}
    mops: dict[tuple[str, str], MopMatrix] = {}
    for (axis, fname), cell in built.items():
        if cell is not None:
            mops[(fname, axis)] = cell[0]
            ads.setdefault(fname, {})[axis] = accumulated_difference(cell[0].values)

    relative, axis_sums, excluded = relative_ad_summary(ads)
    return SensitivityResult(ads=ads, relative=relative, axis_sums=axis_sums,
                             excluded=excluded, mops=mops, traces=traces)


# ------------------------------------------------------ comparison runner

@dataclass(frozen=True)
class CompareConfig(ConfigObject, section="compare"):
    """The settings of the acquisition comparison: every acquisition on
    every function, reps paired repetitions with seeds derived from seed.
    An acquisition may be given as a spec, its mapping or its string
    (AcquisitionSpec.from_dict); kernel and mean are broadcast to each
    function's dimension as in every run (RunConfig).  Every setting but
    the three lists defaults to that of RunConfig."""

    functions: tuple = ()
    acquisitions: tuple[AcquisitionSpec, ...] = ()
    reps: int = 60
    budget: int = RunConfig.budget
    n_init: int = RunConfig.n_init
    seed: int = RunConfig.seed
    kernel: KernelSpec = RunConfig.kernel
    mean: MeanSpec = RunConfig.mean
    infill: FocusSearchConfig = RunConfig.infill

    def __post_init__(self):
        object.__setattr__(self, "functions", check_list("functions", self.functions))
        acquisitions = tuple(a if isinstance(a, AcquisitionSpec) else AcquisitionSpec.from_dict(a)
                             for a in check_list("acquisitions", self.acquisitions))
        object.__setattr__(self, "acquisitions", acquisitions)
        if len(acquisitions) < 2:
            raise ConfigError("need at least two acquisition settings to compare")
        check_distinct("acquisition settings", [a.label for a in acquisitions])
        for name in ("reps", "budget", "n_init"):
            check_count(name, getattr(self, name))
        if self.budget <= self.n_init:
            raise ConfigError(f"budget ({self.budget}) must exceed n_init ({self.n_init}): "
                              "a comparison needs at least one adaptive iteration")
        _check_seed("seed", self.seed)


@dataclass
class ComparisonResult:
    mops: dict[str, MopMatrix]
    ci_half_widths: dict[str, np.ndarray]
    traces: dict[tuple, OptimizationTrace] = field(repr=False, default_factory=dict)


def run_acquisition_comparison(config: CompareConfig, jobs: int = 1) -> ComparisonResult:
    """Paired acquisition-function comparison on each target.

    All acquisitions share the derived seed of each repetition index, hence
    its initial design.  Alongside each mean optimization path the pointwise
    0.95 normal-approximation half-width 1.96 * sd / sqrt(R) is reported.
    """
    configs = {acq.label: RunConfig(kernel=config.kernel, mean=config.mean, acquisition=acq,
                                    infill=config.infill, n_init=config.n_init,
                                    budget=config.budget)
               for acq in config.acquisitions}
    groups = {(target.name,): (target, configs, config.reps)
              for target in _resolve(config.functions)}
    traces, built = _run_grid(groups, config.seed, jobs)

    reps = config.reps
    mops: dict[str, MopMatrix] = {}
    cis: dict[str, np.ndarray] = {}
    for (fname,), cell in built.items():
        if cell is None:
            continue
        mops[fname], paths = cell
        sds = [p.std(axis=0, ddof=1) if reps > 1 else np.zeros(p.shape[1]) for p in paths]
        cis[fname] = np.column_stack([1.96 * sd / np.sqrt(reps) for sd in sds])
    return ComparisonResult(mops=mops, ci_half_widths=cis, traces=traces)


# ------------------------------------------------------------ CSV output

def write_mop_csv(mop: MopMatrix, path) -> None:
    """One row per iteration, one column per setting."""
    _write_csv(path, ["iteration"] + [f"mop_{label}" for label in mop.labels],
               ([t + 1] + [_fmt(v) for v in row] for t, row in enumerate(mop.values)))


def write_comparison_csv(result: ComparisonResult, path) -> None:
    """Long-format comparison: function, iteration, then MOP and CI per setting."""
    labels = next(iter(result.mops.values())).labels
    header = ["function", "iteration"] + [f"{kind}_{label}" for label in labels
                                          for kind in ("mop", "ci")]
    rows = ([fname, t + 1] + [_fmt(v) for pair in zip(row, ci) for v in pair]
            for fname, mop in result.mops.items()
            for t, (row, ci) in enumerate(zip(mop.values, result.ci_half_widths[fname])))
    _write_csv(path, header, rows)


def write_ad_summary_csv(result: SensitivityResult, path) -> None:
    """Per (function, axis): AD and relative AD."""
    rows = []
    for fname in sorted(result.ads):
        relative = result.relative.get(fname, {})
        for axis, ad in result.ads[fname].items():
            rows.append([fname, axis, _fmt(ad), _fmt(relative[axis]) if axis in relative else ""])
    _write_csv(path, ["function", "axis", "ad", "relative_ad"], rows)


def write_relative_ad_sums_csv(result: SensitivityResult, path) -> None:
    """Per-axis sums of relative ADs across functions."""
    _write_csv(path, ["axis", "sum_relative_ad"],
               ([axis, _fmt(total)] for axis, total in result.axis_sums.items()))


def write_traces(traces: Mapping[tuple, OptimizationTrace], out_dir) -> None:
    """One CSV per run under out_dir: each key segment but the last names a
    directory, with every '/' in it written as '_' (the variant matern-3/2
    goes under matern-3_2), and the last, the repetition r, names rep{r}.csv.
    Keys that would share a file raise ConfigError before anything is
    written."""
    out_dir = Path(out_dir)
    files: dict[Path, tuple] = {}
    for key in sorted(traces, key=str):
        *segments, rep = key
        folder = out_dir.joinpath(*[str(s).replace("/", "_") for s in segments])
        path = folder / f"rep{rep}.csv"
        if path in files:
            raise ConfigError(f"traces {files[path]} and {key} would both be written "
                              f"to {path}")
        files[path] = key
    for path, key in files.items():
        save_trace_csv(traces[key], path)
