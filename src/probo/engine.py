"""The sequential optimization loop, for classic BO and its prior-mean-robust variant.

run evaluates a Latin hypercube design, then repeatedly fits the GP
surrogate, minimizes an acquisition surface with focus search, evaluates the
target at the proposal, and appends it to the data until the evaluation
budget is spent.  EI and LCB score the precise prediction; GLCB additionally
needs the near-ignorance mean-bound width from the imprecise model.

Everything is minimization; maximization targets are negated at ingestion.
One master seed derives independent named substreams (design, per-iteration
infill, hyperparameter search, duplicate nudging), so swapping one component
leaves the others' randomness untouched.
"""

from __future__ import annotations

import csv
import json
import logging
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .acquisition import AcquisitionSpec, ei_values, glcb_values, lcb_values
from .errors import ConfigError, ConfigObject, ProboError, check_bool, check_count, check_integer
from .gp import MeanSpec, _check_scale, fit_gp, fit_hyperparameters, predict_batch
from .igp import ImpreciseGpSpec, mean_width_batch
from .kernels import DUPLICATE_TOL, KernelSpec, _near_duplicate, _sqdist
from .optimizer import BoxBounds, FocusSearchConfig, focus_search, latin_hypercube

log = logging.getLogger(__name__)

NUDGE_RADIUS = 1e-6

#: a seed is an integer in [0, _SEED_END); derive_seed draws below it
_SEED_END = 1 << 63


def _check_seed(name: str, value) -> None:
    """Reject a seed that is not an integer in [0, 2**63)."""
    check_integer(name, value)
    if not 0 <= value < _SEED_END:
        raise ConfigError(f"{name} must lie in [0, 2**63), got {value}")


def _stream(seed: int, *key) -> np.random.Generator:
    """Named child generator of a master seed; stable across runs and platforms."""
    parts = [int(seed)]
    for k in key:
        parts.append(zlib.crc32(str(k).encode()) if isinstance(k, str) else int(k))
    return np.random.default_rng(np.random.SeedSequence(parts))


def derive_seed(master: int, *key) -> int:
    """Deterministic integer seed for a named sub-experiment of a master seed."""
    return int(_stream(master, *key).integers(0, _SEED_END - 1))


@dataclass(frozen=True)
class TargetFunction:
    """Black-box objective restricted to a box; evaluate maps a point to a float."""

    name: str
    evaluate: Callable[[np.ndarray], float]
    bounds: BoxBounds
    known_optimum: Optional[float] = None

    @property
    def dimension(self) -> int:
        return self.bounds.dimension

    def __call__(self, x) -> float:
        return float(self.evaluate(np.asarray(x, dtype=float).reshape(-1)))


@dataclass(frozen=True)
class RunConfig(ConfigObject, section="run"):
    """Everything one optimization run needs besides the target itself; run
    repeats a single lengthscale and a 1-D mean to the target's dimension."""

    kernel: KernelSpec = KernelSpec()
    mean: MeanSpec = MeanSpec()
    acquisition: AcquisitionSpec = AcquisitionSpec(kind="lcb", tau=1.0)
    infill: FocusSearchConfig = FocusSearchConfig()
    n_init: int = 10
    budget: int = 90
    seed: int = 0
    hyperparameter_fit: bool = False
    hyperparameter_budget: int = 50

    def __post_init__(self):
        for name in ("n_init", "budget", "hyperparameter_budget"):
            check_count(name, getattr(self, name))
        _check_seed("seed", self.seed)
        check_bool("hyperparameter_fit", self.hyperparameter_fit)
        # budget == n_init is the degenerate run: initial design only
        if self.budget < self.n_init:
            raise ConfigError(
                f"budget ({self.budget}) must be at least n_init ({self.n_init})"
            )


@dataclass(frozen=True)
class IterationRecord:
    """One target evaluation: where, what came back, and the incumbent after it.

    acq_value is NaN for initial-design rows; igp_case (1 or 2) is set on
    GLCB runs only.  clamped is always 0; the field and its trace column
    stay only while the benchmark reads them.
    """

    index: int
    point: np.ndarray
    psi: float
    incumbent: float
    acq_value: float = float("nan")
    igp_case: int = 0
    clamped: int = 0


@dataclass
class OptimizationTrace:
    """Per-evaluation history of a run plus the config that produced it."""

    records: list[IterationRecord]
    config: RunConfig
    target_name: str = ""

    @property
    def budget(self) -> int:
        return len(self.records)

    def incumbent_path(self, include_init: bool = False) -> np.ndarray:
        start = 0 if include_init else self.config.n_init
        return np.array([r.incumbent for r in self.records[start:]])

    def best_value(self) -> float:
        return float(self.records[-1].incumbent)

    def best_point(self) -> np.ndarray:
        best = min(self.records, key=lambda r: r.psi)
        return best.point


class BoRunError(ProboError):
    """A run failed mid-loop; carries whatever trace existed at that point."""

    def __init__(self, message: str, partial_trace: OptimizationTrace):
        self.partial_trace = partial_trace
        super().__init__(message)


def _nudge_duplicate(point: np.ndarray, X: np.ndarray, bounds: BoxBounds,
                     rng: np.random.Generator) -> np.ndarray:
    """Push a proposal off existing design points so the Gram matrix stays
    well conditioned; uniform within a NUDGE_RADIUS box, clipped to bounds."""
    for _ in range(100):
        if _near_duplicate(_sqdist(X, point[None])) is None:
            return point
        log.debug("proposal within %.0e of an existing point; nudging", DUPLICATE_TOL)
        point = bounds.clip(point + rng.uniform(-NUDGE_RADIUS, NUDGE_RADIUS,
                                                size=point.shape))
    raise ProboError("could not nudge a duplicate proposal away from the design")


def _check_target(config: RunConfig, target: TargetFunction) -> RunConfig:
    """The config with its kernel and mean broadcast to the target's dimension
    (KernelSpec.broadcast, MeanSpec.broadcast).  Reject a kernel or mean that
    still does not fit it, and a lengthscale that scales a point of the
    target's box past overflow."""
    dim = target.dimension
    config = replace(config, kernel=config.kernel.broadcast(dim), mean=config.mean.broadcast(dim))
    if dim != config.kernel.dimension:
        raise ConfigError(
            f"target {target.name!r} has dimension {dim} but the "
            f"kernel carries {config.kernel.dimension} lengthscales"
        )
    _check_scale(np.array([target.bounds.lower, target.bounds.upper]),
                 config.kernel.lengthscales, f"target {target.name!r}")
    config.mean.validate_for_dimension(dim, f"target {target.name!r}: ")
    return config


def run(config: RunConfig, target: TargetFunction) -> OptimizationTrace:
    """Minimize the target with the configured acquisition.  GLCB proposals
    also carry the imprecision bonus from the near-ignorance mean-bound width
    of the fitted model.  The trace records the config as broadcast."""
    config = _check_target(config, target)
    acq = config.acquisition
    bounds = target.bounds
    records: list[IterationRecord] = []
    trace = OptimizationTrace(records=records, config=config, target_name=target.name)

    def observe(point: np.ndarray, **scored) -> None:
        """Evaluate and record the target at point; a non-finite value ends the run."""
        psi = target(point)
        best = records[-1].incumbent if records else np.inf
        records.append(IterationRecord(index=len(records) + 1, point=point.copy(),
                                       psi=psi, incumbent=min(best, psi), **scored))
        if not np.isfinite(psi):
            raise BoRunError(f"evaluation {len(records)}: target value {psi!r} is not "
                             "finite", partial_trace=trace)

    for point in latin_hypercube(config.n_init, bounds, _stream(config.seed, "design")):
        observe(point)

    for t in range(1, config.budget - config.n_init + 1):
        X = np.array([r.point for r in records])
        y = np.array([r.psi for r in records])
        try:
            kernel = (fit_hyperparameters(config.kernel, config.mean, X, y,
                                          config.hyperparameter_budget,
                                          _stream(config.seed, "hyper", t))
                      if config.hyperparameter_fit else config.kernel)
            model = fit_gp(kernel, config.mean, X, y)
        except (ProboError, ValueError) as exc:
            raise BoRunError(f"surrogate fit failed at iteration {t}: {exc}",
                             partial_trace=trace) from exc

        igp = ImpreciseGpSpec(c=acq.c, model=model) if acq.kind == "glcb" else None

        def objective(P: np.ndarray) -> np.ndarray:
            mu, var = predict_batch(model, P)
            if acq.kind == "ei":
                return ei_values(mu, var, records[-1].incumbent)
            if acq.kind == "lcb":
                return lcb_values(mu, var, acq.tau)
            return glcb_values(mu, var, mean_width_batch(igp, P), acq.tau, acq.rho)

        try:
            point, score = focus_search(objective, bounds, config.infill,
                                        _stream(config.seed, "infill", t))
            point = _nudge_duplicate(point, X, bounds, _stream(config.seed, "dedup", t))
        except ProboError as exc:
            raise BoRunError(f"proposal search failed at iteration {t}: {exc}",
                             partial_trace=trace) from exc
        observe(point, acq_value=score, igp_case=igp.case if igp else 0)
    return trace


def _fmt(value) -> str:
    """A float as CSV text: its repr, which reads back as the same double."""
    return repr(float(value))


def _write_csv(path, header, rows) -> None:
    """Write a header row and the rows to path as CSV, creating its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, payload: dict) -> None:
    """Write payload to path as sorted, indented JSON, creating its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def save_trace_csv(trace: OptimizationTrace, csv_path, config_path=None) -> None:
    """Write the trace as CSV; optionally a JSON sidecar with the config
    snapshot, the target's name beside the run config's keys."""
    dim = trace.records[0].point.shape[0]
    header = (["iter"] + [f"x_{j + 1}" for j in range(dim)]
              + ["psi", "incumbent", "acq_value", "igp_case", "clamped"])
    rows = []
    for r in trace.records:
        acq_value = "" if np.isnan(r.acq_value) else _fmt(r.acq_value)
        rows.append([r.index, *(_fmt(v) for v in r.point), _fmt(r.psi), _fmt(r.incumbent),
                     acq_value, r.igp_case or "", r.clamped if r.igp_case else ""])
    _write_csv(csv_path, header, rows)
    if config_path is not None:
        _write_json(config_path, {"target": trace.target_name, **trace.config.to_dict()})
