"""Focus search over cheap scoring surfaces, plus Latin hypercube designs.

Objectives are batch callables: given an (m, d) array of points they return
an (m,) array of scores, lower is better.  The search is deterministic for a
fixed seed and breaks ties by first encounter in (round, restart, point)
order.  Non-finite scores are ignored unless every evaluated point is
non-finite, which is an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConfigObject, ProboError, check_count, check_real
from .kernels import _by_rows


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
    """Shrinking random search: `restarts` independent boxes, each sampled
    with `evals_per_round` uniform points in each of `rounds` rounds and
    halved (by default) around its own round's best point between rounds.
    Defaults follow the benchmark protocol (1000 evaluations per round, 5
    restarts); six rounds with shrink 0.5 leave a final box near 3% of the
    original range per side.
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
            raise ConfigError(f"shrink_factor must lie in (0, 1), got {self.shrink_factor}")


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


def focus_search(objective, bounds: BoxBounds, config: FocusSearchConfig, seed=0):
    """Shrink one sampling box per restart around that restart's own best.

    Every restart begins from the full box.  Each round draws all restarts'
    points with one rng.random((restarts, evals_per_round, d)), scales each
    restart's slice to its box, and scores them in one objective call, in
    restart order.  After the round each restart's box sides scale by
    shrink_factor, recentred on the best finite point of its own round and
    clipped back into the original bounds; a restart whose round has no
    finite score keeps its box.  So no restart depends on another.  Returns
    the (point, score) of the smallest finite score seen, the first in
    (round, restart, point) order; rounds objective calls score
    restarts * evals_per_round points each.
    """
    rng = np.random.default_rng(seed)
    R, m, d = config.restarts, config.evals_per_round, bounds.dimension
    lo = np.broadcast_to(bounds.lower, (R, 1, d))
    hi = np.broadcast_to(bounds.upper, (R, 1, d))
    restarts = np.arange(R)
    best_point, best_score = None, np.inf
    for _ in range(config.rounds):
        pts = rng.random((R, m, d))
        _by_rows(np.multiply, pts, hi - lo, out=pts)
        _by_rows(np.add, pts, lo, out=pts)
        scores = np.asarray(objective(pts.reshape(R * m, d)), dtype=float).reshape(R, m)
        scores = np.where(np.isfinite(scores), scores, np.inf)
        idx = scores.argmin(axis=1)
        round_best = scores[restarts, idx]
        r = int(round_best.argmin())
        if round_best[r] < best_score:
            best_point, best_score = pts[r, idx[r]].copy(), float(round_best[r])
        centre = pts[restarts, idx][:, None]
        half = 0.5 * config.shrink_factor * (hi - lo)
        found = (round_best < np.inf)[:, None, None]
        lo = np.where(found, bounds.clip(centre - half), lo)
        hi = np.where(found, bounds.clip(centre + half), hi)
    if best_point is None:
        raise ProboError("objective returned non-finite scores at every point")
    return best_point, best_score
