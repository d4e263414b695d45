"""Posterior mean bounds under a constant-mean prior near-ignorance set.

Instead of one constant prior mean, the model carries the whole set of
constants M*h (M >= 0, h = +/-1) with covariance inflated by (1 + M) / c,
indexed by a single degree of imprecision c > 0.  Those set parameters are
eliminated analytically; the resulting upper/lower posterior means need only
the base kernel matrix terms already cached on a fitted :class:`GpModel`:

    central(x) = k_x' K^-1 y + (1 - k_x' s_k) * (s_k' y / S_k)

which is exactly the estimated-constant kriging mean.  Which bound pair
applies does not depend on x:

    near-ignorance case (1):  |s_k' y / S_k| <= 1 + c / S_k
        upper/lower = central(x) +/- c |1 - k_x' s_k| / S_k

    extreme case (2):         otherwise
        upper = central(x) + c (1 - k_x' s_k) / S_k        (no absolute value)
        lower = k_x' K^-1 y + (1 - k_x' s_k) * s_k' y / (c + S_k)

As c -> 0 both bounds collapse to the precise estimated-constant prediction.
In case (2) the printed formulas can produce upper < lower when
1 - k_x' s_k < 0 or the targets' GLS mean is strongly negative; widths are
clamped at zero and the number of clamped points is returned with them
rather than raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve

from .gp import GpModel
from .kernels import kernel_matrix, _as_points

CASE_NEAR_IGNORANCE = "near-ignorance-case-1"
CASE_EXTREME = "extreme-case-2"


@dataclass(frozen=True)
class ImpreciseGpSpec:
    """Degree of imprecision c attached to a fitted GP.

    The case split is x-independent, so it is evaluated once here and
    cached.
    """

    c: float
    model: GpModel
    case: str = field(init=False)

    def __post_init__(self):
        c = float(self.c)
        if not math.isfinite(c) or c <= 0.0:
            raise ValueError(f"degree of imprecision must be positive, got {c}")
        object.__setattr__(self, "c", c)
        m = self.model
        gls_mean = float(m.s_k @ m.y) / m.S_k
        if abs(gls_mean) <= 1.0 + c / m.S_k:
            object.__setattr__(self, "case", CASE_NEAR_IGNORANCE)
        else:
            object.__setattr__(self, "case", CASE_EXTREME)


def _one_minus(spec: ImpreciseGpSpec, X) -> tuple[np.ndarray, np.ndarray]:
    """k_x for each row of X, shape (n, q), and 1 - k_x' s_k per row."""
    m = spec.model
    Kx = kernel_matrix(m.kernel, m.X, _as_points(X, m.dimension, "evaluation points"))
    return Kx, 1.0 - m.s_k @ Kx


def mean_width_batch(spec: ImpreciseGpSpec, X) -> tuple[np.ndarray, int]:
    """Upper minus lower posterior mean at each row of X, clamped at zero,
    and the number of rows whose width was clamped."""
    m = spec.model
    _, one_minus = _one_minus(spec, X)
    if spec.case == CASE_NEAR_IGNORANCE:
        return 2.0 * spec.c * np.abs(one_minus) / m.S_k, 0
    sy = float(m.s_k @ m.y)
    factor = sy / m.S_k + spec.c / m.S_k - sy / (spec.c + m.S_k)
    width = one_minus * factor
    negative = width < 0.0
    return np.where(negative, 0.0, width), int(np.count_nonzero(negative))


def mean_bounds(spec: ImpreciseGpSpec, X) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper posterior mean at each row of X.

    Where the case-2 formulas cross (upper < lower), both bounds collapse to
    their midpoint, so upper - lower is the width mean_width_batch reports.
    """
    m = spec.model
    Kx, one_minus = _one_minus(spec, X)
    ky = cho_solve((m.K.cholesky, True), m.y) @ Kx  # k_x' K^-1 y
    sy = float(m.s_k @ m.y)
    if spec.case == CASE_NEAR_IGNORANCE:
        central = ky + one_minus * sy / m.S_k
        half = spec.c * np.abs(one_minus) / m.S_k
        return central - half, central + half
    upper = ky + one_minus * sy / m.S_k + spec.c * one_minus / m.S_k
    lower = ky + one_minus * sy / (spec.c + m.S_k)
    crossed = upper < lower
    mid = 0.5 * (lower + upper)
    return np.where(crossed, mid, lower), np.where(crossed, mid, upper)
