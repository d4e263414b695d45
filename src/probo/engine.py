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
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .acquisition import AcquisitionSpec, ei_values, glcb_values, lcb_values
from .errors import ConfigError, ProboError, check_keys
from .gp import MeanSpec, fit_gp, fit_hyperparameters, predict_batch
from .igp import CASE_NEAR_IGNORANCE, ImpreciseGpSpec, mean_width_batch
from .kernels import DUPLICATE_TOL, KernelSpec
from .optimizer import BoxBounds, FocusSearchConfig, focus_search, latin_hypercube

log = logging.getLogger(__name__)

NUDGE_RADIUS = 1e-6

_SEED_MASK = (1 << 63) - 1


def _stream(seed: int, *key) -> np.random.Generator:
    """Named child generator of a master seed; stable across runs and platforms."""
    parts = [int(seed) & _SEED_MASK]
    for k in key:
        parts.append(zlib.crc32(str(k).encode()) if isinstance(k, str) else int(k))
    return np.random.default_rng(np.random.SeedSequence(parts))


def derive_seed(master: int, *key) -> int:
    """Deterministic integer seed for a named sub-experiment of a master seed."""
    return int(_stream(master, *key).integers(0, _SEED_MASK))


@dataclass(frozen=True)
class TargetFunction:
    """Black-box objective restricted to a box; evaluate maps a point to a float."""

    name: str
    evaluate: Callable[[np.ndarray], float]
    bounds: BoxBounds
    dimension: int
    known_optimum: Optional[float] = None

    def __call__(self, x) -> float:
        return float(self.evaluate(np.asarray(x, dtype=float).reshape(-1)))


@dataclass(frozen=True)
class RunConfig:
    """Everything one optimization run needs besides the target itself."""

    kernel: KernelSpec
    mean: MeanSpec = MeanSpec()
    acquisition: AcquisitionSpec = AcquisitionSpec(kind="lcb", tau=1.0)
    infill: FocusSearchConfig = FocusSearchConfig()
    n_init: int = 10
    budget: int = 90
    seed: int = 0
    hyperparameter_fit: bool = False
    hyperparameter_budget: int = 50

    def __post_init__(self):
        if self.n_init < 1:
            raise ConfigError("n_init must be positive")
        # budget == n_init is the degenerate run: initial design only
        if self.budget < self.n_init:
            raise ConfigError(
                f"budget ({self.budget}) must be at least n_init ({self.n_init})"
            )

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel.to_dict(),
            "mean": self.mean.to_dict(),
            "acquisition": self.acquisition.to_dict(),
            "infill": self.infill.to_dict(),
            "n_init": self.n_init,
            "budget": self.budget,
            "seed": self.seed,
            "hyperparameter_fit": self.hyperparameter_fit,
            "hyperparameter_budget": self.hyperparameter_budget,
        }

    @classmethod
    def from_dict(cls, d: dict, dim: int | None = None) -> "RunConfig":
        """Build from a config mapping; omitted keys take the field defaults.
        dim, the target's dimension, broadcasts a single kernel lengthscale."""
        check_keys(d, [f.name for f in fields(cls)], "run")
        kw = dict(d, kernel=KernelSpec.from_dict(d.get("kernel", {}), dim))
        parsers = {"mean": MeanSpec.from_dict, "acquisition": AcquisitionSpec.from_dict,
                   "infill": FocusSearchConfig.from_dict}
        kw.update({k: parse(d[k]) for k, parse in parsers.items() if k in d})
        return cls(**kw)


@dataclass(frozen=True)
class IterationRecord:
    """One target evaluation: where, what came back, and the incumbent after it.

    acq_value is NaN for initial-design rows; igp_case (1 or 2) and clamped
    (clamp events during this iteration's infill) are set on GLCB runs only.
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
        dists = np.sqrt(np.sum((X - point) ** 2, axis=1))
        if dists.min() >= DUPLICATE_TOL:
            return point
        log.debug("proposal within %.0e of an existing point; nudging", DUPLICATE_TOL)
        point = bounds.clip(point + rng.uniform(-NUDGE_RADIUS, NUDGE_RADIUS,
                                                size=point.shape))
    raise ProboError("could not nudge a duplicate proposal away from the design")


def _check_target(config: RunConfig, target: TargetFunction) -> None:
    if target.dimension != config.kernel.dimension:
        raise ConfigError(
            f"target {target.name!r} has dimension {target.dimension} but the "
            f"kernel carries {config.kernel.dimension} lengthscales"
        )


def run(config: RunConfig, target: TargetFunction) -> OptimizationTrace:
    """Minimize the target with the configured acquisition.  GLCB proposals
    also carry the imprecision bonus from the near-ignorance mean-bound width
    of the fitted model."""
    _check_target(config, target)
    acq = config.acquisition
    bounds = target.bounds
    records: list[IterationRecord] = []
    trace = OptimizationTrace(records=records, config=config, target_name=target.name)

    design = latin_hypercube(config.n_init, bounds, _stream(config.seed, "design"))
    X = design.copy()
    y = np.empty(config.n_init)
    incumbent = np.inf
    for i in range(config.n_init):
        y[i] = target(X[i])
        incumbent = min(incumbent, y[i])
        records.append(IterationRecord(index=i + 1, point=X[i].copy(), psi=y[i],
                                       incumbent=incumbent))

    kernel = config.kernel
    t = 0
    while len(records) < config.budget:
        t += 1
        try:
            if config.hyperparameter_fit:
                kernel = fit_hyperparameters(
                    config.kernel.family, config.mean, X, y,
                    budget=config.hyperparameter_budget,
                    seed=_stream(config.seed, "hyper", t),
                    power=config.kernel.power,
                )
            model = fit_gp(kernel, config.mean, X, y)
        except Exception as exc:
            raise BoRunError(f"surrogate fit failed at iteration {t}: {exc}",
                             partial_trace=trace) from exc

        igp = ImpreciseGpSpec(c=acq.c, model=model) if acq.kind == "glcb" else None
        clamped = 0

        def objective(P: np.ndarray) -> np.ndarray:
            nonlocal clamped
            mu, var = predict_batch(model, P)
            if acq.kind == "ei":
                return ei_values(mu, var, incumbent)
            if acq.kind == "lcb":
                return lcb_values(mu, var, acq.tau)
            width, n_clamped = mean_width_batch(igp, P)
            clamped += n_clamped
            return glcb_values(mu, var, width, acq.tau, acq.rho)

        point, score = focus_search(objective, bounds, config.infill,
                                    _stream(config.seed, "infill", t))
        point = _nudge_duplicate(point, X, bounds, _stream(config.seed, "dedup", t))

        psi = target(point)
        X = np.vstack([X, point])
        y = np.append(y, psi)
        incumbent = min(incumbent, psi)
        records.append(IterationRecord(
            index=len(records) + 1, point=point.copy(), psi=psi,
            incumbent=incumbent, acq_value=score,
            igp_case=(1 if igp.case == CASE_NEAR_IGNORANCE else 2) if igp else 0,
            clamped=clamped,
        ))
    return trace


def trace_rows(trace: OptimizationTrace) -> list[dict]:
    """Flat row dicts matching the trace CSV schema."""
    dim = trace.records[0].point.shape[0]
    rows = []
    for r in trace.records:
        row = {"iter": r.index}
        for j in range(dim):
            row[f"x_{j + 1}"] = repr(float(r.point[j]))
        row["psi"] = repr(float(r.psi))
        row["incumbent"] = repr(float(r.incumbent))
        row["acq_value"] = "" if np.isnan(r.acq_value) else repr(float(r.acq_value))
        row["igp_case"] = r.igp_case if r.igp_case else ""
        row["clamped"] = r.clamped if r.igp_case else ""
        rows.append(row)
    return rows


def save_trace_csv(trace: OptimizationTrace, csv_path, config_path=None) -> None:
    """Write the trace as CSV; optionally a JSON sidecar with the config snapshot."""
    rows = trace_rows(trace)
    csv_path = Path(csv_path)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    if config_path is not None:
        snapshot = {"config": trace.config.to_dict(), "target": trace.target_name}
        Path(config_path).write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
