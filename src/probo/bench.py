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

import csv
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
)
from .errors import ConfigError, ProboError
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

def _as_path(trace) -> np.ndarray:
    if isinstance(trace, OptimizationTrace):
        return trace.incumbent_path()
    return np.asarray(trace, dtype=float)


def mean_optimization_path(traces: Sequence) -> np.ndarray:
    """Elementwise mean of R incumbent paths of equal length T."""
    paths = [_as_path(t) for t in traces]
    if not paths:
        raise ValueError("need at least one path")
    lengths = {p.shape[0] for p in paths}
    if len(lengths) != 1:
        raise ValueError(f"paths differ in length: {sorted(lengths)}")
    return np.mean(paths, axis=0)


@dataclass(frozen=True)
class MopMatrix:
    """T x S matrix of mean optimization paths, one column per setting."""

    values: np.ndarray
    labels: tuple[str, ...]
    repetitions: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(self.labels):
            raise ValueError("values must be T x S with one label per column")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", tuple(self.labels))


def accumulated_difference(mop) -> float:
    """Sum over iterations of the spread across settings; zero iff columns agree."""
    values = mop.values if isinstance(mop, MopMatrix) else np.asarray(mop, dtype=float)
    if values.ndim != 2 or values.shape[1] < 2:
        raise ValueError("need a T x S matrix with at least two settings")
    return float(np.sum(values.max(axis=1) - values.min(axis=1)))


def relative_ad_summary(
    ads_by_function: Mapping[str, Mapping[str, float]],
) -> tuple[dict[str, dict[str, float]], dict[str, float], list[str]]:
    """Divide each function's ADs by their mean across axes and sum per axis.

    Returns (relative ADs per function, per-axis sums, excluded functions).
    Functions whose ADs are all zero cannot be normalized and are excluded
    with a warning.  For the rest, the relative values of one function sum
    to the number of axes by construction.
    """
    relative: dict[str, dict[str, float]] = {}
    excluded: list[str] = []
    axes: list[str] = []
    for fname, ads in ads_by_function.items():
        if not axes:
            axes = list(ads)
        mean_ad = float(np.mean(list(ads.values())))
        if mean_ad == 0.0:
            warnings.warn(f"function {fname!r} has all-zero ADs; excluded from sums")
            excluded.append(fname)
            continue
        relative[fname] = {axis: ad / mean_ad for axis, ad in ads.items()}
    sums = {axis: float(sum(rel[axis] for rel in relative.values())) for axis in axes}
    return relative, sums, excluded


# ------------------------------------------------------- experiment plans

@dataclass(frozen=True)
class PriorVariant:
    """One GP prior in a sensitivity plan, broadcast to any input dimension.

    Scalar lengthscale and mean parameters are expanded per dimension when
    the variant is attached to a concrete function (slope and quad apply to
    every coordinate).
    """

    name: str
    family: str = "squared-exponential"
    lengthscale: float = 1.0
    signal_variance: float = 1.0
    power: float | None = None
    mean_form: str = "constant-estimated"
    mean_intercept: float = 0.0
    mean_slope: float = 0.0
    mean_quad: float = 0.0

    def kernel_for(self, dim: int) -> KernelSpec:
        return KernelSpec(family=self.family, lengthscales=(self.lengthscale,) * dim,
                          signal_variance=self.signal_variance, power=self.power)

    def mean_for(self, dim: int) -> MeanSpec:
        if self.mean_form == "constant-estimated":
            return MeanSpec()
        if self.mean_form == "constant-fixed":
            coeffs = (self.mean_intercept,)
        elif self.mean_form == "linear-fixed":
            coeffs = (self.mean_intercept,) + (self.mean_slope,) * dim
        else:
            coeffs = ((self.mean_intercept,) + (self.mean_slope,) * dim
                      + (self.mean_quad,) * dim)
        return MeanSpec(form=self.mean_form, coefficients=coeffs)

    def to_dict(self) -> dict:
        d = {"name": self.name, "family": self.family,
             "lengthscale": self.lengthscale,
             "signal_variance": self.signal_variance,
             "mean_form": self.mean_form,
             "mean_intercept": self.mean_intercept,
             "mean_slope": self.mean_slope, "mean_quad": self.mean_quad}
        if self.power is not None:
            d["power"] = self.power
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PriorVariant":
        return cls(**d)


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
        if not self.functions:
            raise ConfigError("a sensitivity plan needs at least one function")
        if self.repetitions < 1 or self.iterations < 1:
            raise ConfigError("repetitions and iterations must be positive")


def default_sensitivity_plans(
    functions: Sequence[str],
    repetitions: int = 40,
    iterations: int = 20,
    n_init: int = 10,
    acquisition: AcquisitionSpec = AcquisitionSpec(kind="ei"),
    infill: FocusSearchConfig = FocusSearchConfig(),
) -> list[SensitivityPlan]:
    """The default four-axis plan set.

    Baseline prior: squared-exponential kernel, unit lengthscale and signal
    variance, estimated constant mean.  One component varies per plan; the
    parameter grids are +/- 25% and 50% around the baseline.
    """
    base = dict(family="squared-exponential", lengthscale=1.0, signal_variance=1.0)
    mean_forms = (
        PriorVariant(name="constant-estimated", **base),
        PriorVariant(name="constant-0", mean_form="constant-fixed", **base),
        PriorVariant(name="linear-0.1", mean_form="linear-fixed", mean_slope=0.1, **base),
        PriorVariant(name="quadratic-0.1-0.01", mean_form="quadratic-fixed",
                     mean_slope=0.1, mean_quad=0.01, **base),
    )
    mean_params = tuple(
        PriorVariant(name=f"constant-{v:g}", mean_form="constant-fixed",
                     mean_intercept=v, **base)
        for v in (-1.0, -0.5, 0.0, 0.5, 1.0)
    )
    kernel_forms = tuple(
        PriorVariant(name=fam, family=fam)
        for fam in ("squared-exponential", "matern-3/2", "matern-5/2")
    )
    kernel_params = tuple(
        PriorVariant(name=f"lengthscale-{s:g}", lengthscale=s)
        for s in (0.5, 0.75, 1.0, 1.25, 1.5)
    )
    shared = dict(functions=tuple(functions), repetitions=repetitions,
                  iterations=iterations, n_init=n_init,
                  acquisition=acquisition, infill=infill)
    return [
        SensitivityPlan(axis="mean-functional-form", variants=mean_forms, **shared),
        SensitivityPlan(axis="mean-parameters", variants=mean_params, **shared),
        SensitivityPlan(axis="kernel-functional-form", variants=kernel_forms, **shared),
        SensitivityPlan(axis="kernel-parameters", variants=kernel_params, **shared),
    ]


# ------------------------------------------------------------ job running

@dataclass(frozen=True)
class _Job:
    key: tuple
    config: RunConfig
    target: TargetFunction


def _run_job(job: _Job) -> tuple[tuple, OptimizationTrace | None]:
    try:
        return job.key, run(job.config, job.target)
    except ProboError as exc:
        log.warning("run %s failed: %s", job.key, exc)
        return job.key, None


def _execute(jobs: list[_Job], n_workers: int) -> dict[tuple, OptimizationTrace]:
    """Run jobs, possibly in a process pool; results keyed, not ordered.
    Failed runs are dropped (the aggregation voids anything incomplete)."""
    results: dict[tuple, OptimizationTrace] = {}
    if n_workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            pairs = pool.map(_run_job, jobs, chunksize=4)
    else:
        pairs = map(_run_job, jobs)
    for key, trace in pairs:
        if trace is not None:
            results[key] = trace
    return results


def _resolve(functions: Sequence) -> list[TargetFunction]:
    return [f if isinstance(f, TargetFunction) else registry_lookup(f)
            for f in functions]


def _mop(traces: Mapping[tuple, OptimizationTrace], cells: Sequence[tuple],
         labels: Sequence[str], repetitions: int):
    """Mean optimization path of each cell (a job key without its repetition
    index) over its repetitions, with each cell's R x T paths; None if any
    run of the cells failed."""
    if any(cell + (rep,) not in traces for cell in cells for rep in range(repetitions)):
        return None
    paths = [np.array([traces[cell + (rep,)].incumbent_path() for rep in range(repetitions)])
             for cell in cells]
    mop = MopMatrix(values=np.column_stack([np.mean(p, axis=0) for p in paths]),
                    labels=tuple(labels), repetitions=repetitions)
    return mop, paths


# ----------------------------------------------------- sensitivity runner

@dataclass
class SensitivityResult:
    ads: dict[str, dict[str, float]]
    relative: dict[str, dict[str, float]]
    axis_sums: dict[str, float]
    excluded: list[str]
    mops: dict[tuple[str, str], MopMatrix]
    traces: dict[tuple, OptimizationTrace] = field(repr=False, default_factory=dict)


def run_sensitivity_experiment(
    plans: Sequence[SensitivityPlan] | SensitivityPlan,
    master_seed: int = 0,
    jobs: int = 1,
) -> SensitivityResult:
    """Execute one plan per prior component and aggregate ADs.

    Repetition r of every (function, variant) cell across all plans shares
    one derived seed, so compared settings face identical initial designs.
    A failed run voids its function for the affected axis with a warning.
    """
    if isinstance(plans, SensitivityPlan):
        plans = [plans]
    if not plans:
        raise ConfigError("need at least one sensitivity plan")

    jobs_list: list[_Job] = []
    for plan in plans:
        for target in _resolve(plan.functions):
            budget = plan.n_init + plan.iterations
            for variant in plan.variants:
                config = RunConfig(
                    kernel=variant.kernel_for(target.dimension),
                    mean=variant.mean_for(target.dimension),
                    acquisition=plan.acquisition,
                    infill=plan.infill,
                    n_init=plan.n_init,
                    budget=budget,
                    seed=0,
                )
                for rep in range(plan.repetitions):
                    seed = derive_seed(master_seed, target.name, rep)
                    jobs_list.append(_Job(
                        key=(plan.axis, target.name, variant.name, rep),
                        config=replace(config, seed=seed),
                        target=target,
                    ))

    traces = _execute(jobs_list, jobs)

    ads: dict[str, dict[str, float]] = {}
    mops: dict[tuple[str, str], MopMatrix] = {}
    for plan in plans:
        for fname in plan.functions:
            cells = [(plan.axis, fname, variant.name) for variant in plan.variants]
            built = _mop(traces, cells, [v.name for v in plan.variants], plan.repetitions)
            if built is None:
                warnings.warn(f"runs failed for {fname!r} on axis {plan.axis!r}; skipped")
                continue
            mop, _ = built
            mops[(fname, plan.axis)] = mop
            ads.setdefault(fname, {})[plan.axis] = accumulated_difference(mop)

    relative, axis_sums, excluded = relative_ad_summary(ads) if ads else ({}, {}, [])
    return SensitivityResult(ads=ads, relative=relative, axis_sums=axis_sums,
                             excluded=excluded, mops=mops, traces=traces)


# ------------------------------------------------------ comparison runner

@dataclass
class ComparisonResult:
    mops: dict[str, MopMatrix]
    ci_half_widths: dict[str, np.ndarray]
    repetitions: int
    n_init: int
    traces: dict[tuple, OptimizationTrace] = field(repr=False, default_factory=dict)


def run_acquisition_comparison(
    functions: Sequence,
    acquisitions: Sequence[AcquisitionSpec],
    repetitions: int = 60,
    budget: int = 90,
    n_init: int = 10,
    master_seed: int = 0,
    jobs: int = 1,
    kernel: Mapping | None = None,
    mean: MeanSpec = MeanSpec(),
    infill: FocusSearchConfig = FocusSearchConfig(),
) -> ComparisonResult:
    """Paired acquisition-function comparison on each target.

    All acquisitions share the derived seed of each repetition index, hence
    its initial design.  Alongside each mean optimization path the pointwise
    0.95 normal-approximation half-width 1.96 * sd / sqrt(R) is reported.
    kernel is a KernelSpec config mapping, resolved per target dimension
    (default: squared-exponential, unit lengthscales and signal variance).
    """
    if len(acquisitions) < 2:
        raise ConfigError("need at least two acquisition settings to compare")
    targets = _resolve(functions)
    labels = [a.label for a in acquisitions]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"acquisition settings must be distinct, got {labels}")

    jobs_list: list[_Job] = []
    for target in targets:
        spec = KernelSpec.from_dict(kernel or {}, target.dimension)
        for acq in acquisitions:
            config = RunConfig(kernel=spec, mean=mean, acquisition=acq,
                               infill=infill, n_init=n_init, budget=budget, seed=0)
            for rep in range(repetitions):
                seed = derive_seed(master_seed, target.name, rep)
                jobs_list.append(_Job(key=(target.name, acq.label, rep),
                                      config=replace(config, seed=seed),
                                      target=target))

    traces = _execute(jobs_list, jobs)

    mops: dict[str, MopMatrix] = {}
    cis: dict[str, np.ndarray] = {}
    for target in targets:
        cells = [(target.name, label) for label in labels]
        built = _mop(traces, cells, labels, repetitions)
        if built is None:
            warnings.warn(f"runs failed for {target.name!r}; function skipped")
            continue
        mops[target.name], paths = built
        half_widths = []
        for p in paths:
            sd = p.std(axis=0, ddof=1) if repetitions > 1 else np.zeros(p.shape[1])
            half_widths.append(1.96 * sd / np.sqrt(repetitions))
        cis[target.name] = np.column_stack(half_widths)
    return ComparisonResult(mops=mops, ci_half_widths=cis, repetitions=repetitions,
                            n_init=n_init, traces=traces)


# ------------------------------------------------------------ CSV output

def _fmt(v) -> str:
    return repr(float(v))


def write_mop_csv(mop: MopMatrix, path) -> None:
    """One row per iteration, one column per setting."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration"] + [f"mop_{label}" for label in mop.labels])
        for t in range(mop.values.shape[0]):
            writer.writerow([t + 1] + [_fmt(v) for v in mop.values[t]])


def write_comparison_csv(result: ComparisonResult, path) -> None:
    """Long-format comparison: function, iteration, then MOP and CI per setting."""
    if not result.mops:
        raise ConfigError("comparison produced no results; nothing to write")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    first = next(iter(result.mops.values()))
    header = ["function", "iteration"]
    for label in first.labels:
        header += [f"mop_{label}", f"ci_{label}"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for fname, mop in result.mops.items():
            ci = result.ci_half_widths[fname]
            for t in range(mop.values.shape[0]):
                row = [fname, t + 1]
                for s in range(len(mop.labels)):
                    row += [_fmt(mop.values[t, s]), _fmt(ci[t, s])]
                writer.writerow(row)


def write_ad_summary_csv(result: SensitivityResult, path) -> None:
    """Per (function, axis): AD and relative AD."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["function", "axis", "ad", "relative_ad"])
        for fname in sorted(result.ads):
            for axis, ad in result.ads[fname].items():
                rel = result.relative.get(fname, {}).get(axis, "")
                writer.writerow([fname, axis, _fmt(ad), _fmt(rel) if rel != "" else ""])


def write_relative_ad_sums_csv(result: SensitivityResult, path) -> None:
    """Per-axis sums of relative ADs across functions."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "sum_relative_ad"])
        for axis, total in result.axis_sums.items():
            writer.writerow([axis, _fmt(total)])


def write_traces(traces: Mapping[tuple, OptimizationTrace], out_dir) -> None:
    """One CSV per run under out_dir, keyed path segments joined by '/'. """
    out_dir = Path(out_dir)
    for key, trace in sorted(traces.items(), key=lambda kv: str(kv[0])):
        *segments, rep = key
        path = out_dir.joinpath(*[str(s) for s in segments]) / f"rep{rep}.csv"
        save_trace_csv(trace, path)
