"""Width of the posterior mean bounds under a constant-mean prior near-ignorance set.

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
GLCB scores only the width upper - lower, which needs no k_x' K^-1 y term.
In case (2) the printed formulas can produce upper < lower when
1 - k_x' s_k < 0 or the targets' GLS mean is strongly negative; widths are
clamped at zero and the number of clamped points is returned with them
rather than raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gp import GpModel
from .kernels import kernel_matrix, _as_points


@dataclass(frozen=True)
class ImpreciseGpSpec:
    """Degree of imprecision c attached to a fitted GP.

    The case split is x-independent, so it is evaluated once here and
    cached as case: 1 (near-ignorance) or 2 (extreme).
    """

    c: float
    model: GpModel
    case: int = field(init=False)

    def __post_init__(self):
        c = float(self.c)
        if not math.isfinite(c) or c <= 0.0:
            raise ValueError(f"degree of imprecision must be positive, got {c}")
        object.__setattr__(self, "c", c)
        m = self.model
        gls_mean = float(m.s_k @ m.y) / m.S_k
        object.__setattr__(self, "case", 1 if abs(gls_mean) <= 1.0 + c / m.S_k else 2)


def mean_width_batch(spec: ImpreciseGpSpec, X) -> tuple[np.ndarray, int]:
    """Upper minus lower posterior mean at each row of X, clamped at zero,
    and the number of rows whose width was clamped."""
    m = spec.model
    Kx = kernel_matrix(m.kernel, m.X, _as_points(X, m.dimension, "evaluation points"))
    one_minus = 1.0 - m.s_k @ Kx  # 1 - k_x' s_k per row
    if spec.case == 1:
        return 2.0 * spec.c * np.abs(one_minus) / m.S_k, 0
    sy = float(m.s_k @ m.y)
    factor = sy / m.S_k + spec.c / m.S_k - sy / (spec.c + m.S_k)
    width = one_minus * factor
    negative = width < 0.0
    return np.where(negative, 0.0, width), int(np.count_nonzero(negative))
