"""Width of the posterior mean set of a prior near-ignorance GP.

The model (Mangili, "A prior near-ignorance Gaussian process model for
nonparametric regression", IJAR 2016) replaces the one constant prior mean
by the set of constants beta ~ N(M h, (1 + M) / c), M >= 0 and h = +/-1,
indexed by a single degree of imprecision c > 0.  With t = c / (1 + M) the
posterior mean at x is

    k_x' K^-1 y + (1 - k_x' s_k) * g,   g = (s_k' y + M h t) / (S_k + t),

in terms of the base kernel matrix terms cached on a fitted :class:`GpModel`.
For fixed h, g is monotone in M, so the range of g is spanned by
s_k' y / (S_k + c) at M = 0 and by (s_k' y +/- c) / S_k as M -> infinity.
The width of the posterior mean set at x is therefore

    |1 - k_x' s_k| * c (1 + max(1, r)) / S_k,   r = |s_k' y| / (S_k + c),

one formula that is never negative, continuous and increasing in c, and
that collapses to 0 as c -> 0, where the set shrinks to the precise
estimated-constant prediction.  The
case label records which term the max picks, x-independently: 1
(near-ignorance, r <= 1, width 2c |1 - k_x' s_k| / S_k) or 2 (extreme).
GLCB scores only this width, which needs no k_x' K^-1 y term.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, check_real
from .gp import GpModel
from .kernels import kernel_matrix, _CEILING, _as_points


def check_c(value) -> float:
    """The degree of imprecision c as a float, in (0, 1e300]: the width
    factor c (1 + max(1, r)) is inf at c = 1e308."""
    c = check_real("c", value)
    if not 0.0 < c <= _CEILING:
        raise ConfigError(f"degree of imprecision c must lie in (0, 1e300], where GLCB's "
                          f"width factor c (1 + max(1, r)) is positive and finite, got {c!r}")
    return c


@dataclass(frozen=True)
class ImpreciseGpSpec:
    """Degree of imprecision c (check_c) attached to a fitted GP.

    The x-independent part of the width, c (1 + max(1, r)), is evaluated
    once here and cached as factor, with its case: 1 (near-ignorance,
    r <= 1) or 2 (extreme).
    """

    c: float
    model: GpModel
    case: int = field(init=False)
    factor: float = field(init=False)

    def __post_init__(self):
        c = check_c(self.c)
        object.__setattr__(self, "c", c)
        m = self.model
        r = abs(float(m.s_k @ m.y)) / (m.S_k + c)
        object.__setattr__(self, "case", 1 if r <= 1.0 else 2)
        object.__setattr__(self, "factor", c * (1.0 + max(1.0, r)))


def mean_width_batch(spec: ImpreciseGpSpec, X) -> np.ndarray:
    """Width of the posterior mean set at each row of X."""
    m = spec.model
    Kx = kernel_matrix(m.kernel, m.X, _as_points(X, m.dimension, "evaluation points"))
    return spec.factor * np.abs(1.0 - m.s_k @ Kx) / m.S_k
