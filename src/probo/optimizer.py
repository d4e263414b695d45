"""Focus search over cheap scoring surfaces, plus Latin hypercube designs.

Objectives are batch callables: given an (m, d) array of points they return
an (m,) array of scores, lower is better.  The search is deterministic for a
fixed seed and breaks ties by first encounter under a fixed iteration
order.  Non-finite scores are ignored unless every evaluated point is
non-finite, which is an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigObject, ProboError, check_count, check_real


@dataclass(frozen=True)
class BoxBounds:
    """Axis-aligned search box; finite lower[i] < upper[i] per dimension."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-D and the same length")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError(f"bounds must be finite, got {lower} / {upper}")
        if not np.all(lower < upper):
            raise ValueError(f"need lower < upper in every dimension, got {lower} / {upper}")
        with np.errstate(over="ignore"):
            if not np.isfinite(upper - lower).all():
                raise ValueError(f"bounds span overflows a double, got {lower} / {upper}")
        lower.flags.writeable = False
        upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    @property
    def span(self) -> np.ndarray:
        return self.upper - self.lower

    def clip(self, X: np.ndarray) -> np.ndarray:
        # np.clip on finite input, without its Python wrapper
        return np.minimum(np.maximum(X, self.lower), self.upper)


@dataclass(frozen=True)
class FocusSearchConfig(ConfigObject, section="infill"):
    """Shrinking random search: per restart, `rounds` rounds of
    `evals_per_round` uniform samples, halving (by default) the box around
    the incumbent between rounds.  Defaults follow the benchmark protocol
    (1000 evaluations per round, 5 restarts); six rounds with shrink 0.5
    leave a final box near 3% of the original range per side.
    """

    evals_per_round: int = 1000
    rounds: int = 6
    restarts: int = 5
    shrink_factor: float = 0.5

    def __post_init__(self):
        for name in ("evals_per_round", "rounds", "restarts"):
            check_count(name, getattr(self, name))
        object.__setattr__(self, "shrink_factor", check_real("shrink_factor", self.shrink_factor))
        if not 0.0 < self.shrink_factor < 1.0:
            raise ValueError(f"shrink_factor must lie in (0, 1), got {self.shrink_factor}")


def latin_hypercube(n: int, bounds: BoxBounds, seed=0) -> np.ndarray:
    """n stratified points: per dimension, one uniform draw in each of the n
    equal strata, in independently permuted order."""
    check_count("n", n)
    rng = np.random.default_rng(seed)
    d = bounds.dimension
    unit = np.empty((n, d))
    for j in range(d):
        strata = rng.permutation(n)
        unit[:, j] = (strata + rng.uniform(size=n)) / n
    return bounds.lower + unit * bounds.span


def _best_of(scores: np.ndarray):
    """Index of the smallest finite score, or None if all are non-finite."""
    finite = np.isfinite(scores)
    if finite.all():
        return int(np.argmin(scores))
    if not finite.any():
        return None
    masked = np.where(finite, scores, np.inf)
    return int(np.argmin(masked))


def focus_search(objective, bounds: BoxBounds, config: FocusSearchConfig, seed=0):
    """Iteratively shrink the sampling box around the incumbent.

    Each restart begins from the full box; after each round the box sides
    scale by shrink_factor, recentered on the overall incumbent and clipped
    back into the original bounds.  Returns the best (point, score) across
    all restarts and rounds; total evaluations are
    restarts * rounds * evals_per_round.
    """
    rng = np.random.default_rng(seed)
    size = (config.evals_per_round, bounds.dimension)
    best_point, best_score = None, np.inf
    for _ in range(config.restarts):
        lo, hi = bounds.lower.copy(), bounds.upper.copy()
        for _ in range(config.rounds):
            # rng.uniform(lo, hi, size) bit for bit, without its per-element
            # broadcast of the bounds
            pts = rng.random(size)
            pts *= hi - lo
            pts += lo
            scores = np.asarray(objective(pts), dtype=float)
            idx = _best_of(scores)
            if idx is not None and scores[idx] < best_score:
                best_point, best_score = pts[idx].copy(), float(scores[idx])
            if best_point is None:
                continue  # nothing finite yet; keep sampling the same box
            half = 0.5 * config.shrink_factor * (hi - lo)
            lo = bounds.clip(best_point - half)
            hi = bounds.clip(best_point + half)
    if best_point is None:
        raise ProboError("objective returned non-finite scores at every point")
    return best_point, best_score

