"""Acquisition scores: expected improvement, LCB, and the generalized LCB.

Every score is reported in a uniform lower-is-better convention so the
infill optimizers always minimize; EI is negated internally to fit.  The
generalized lower confidence bound extends LCB with an imprecision bonus,

    glcb(x) = mu(x) - tau * sqrt(var(x)) - rho * width(x),

where width is the gap between the upper and lower near-ignorance posterior
means (:mod:`probo.igp`).  tau weighs data uncertainty (risk), rho weighs
model imprecision (ambiguity); with rho = 0 the score is exactly LCB.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import ConfigError, ConfigObject, check_real

KINDS = ("ei", "lcb", "glcb")
#: the parameters each kind takes
PARAMETERS = {"ei": (), "lcb": ("tau",), "glcb": ("tau", "rho", "c")}
#: glcb-RHO-C, tau 1: glcb-1-100, or glcb-1-1e-3 (a dash after an e is an
#: exponent's sign, not a separator)
_SHORTHAND = re.compile(r"glcb-(.+?)(?<!e)-(.+)")

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _norm_cdf(z):
    return 0.5 * (1.0 + erf(np.asarray(z) / _SQRT2))


def _norm_pdf(z):
    z = np.asarray(z)
    return _INV_SQRT_2PI * np.exp(-0.5 * z * z)


@dataclass(frozen=True)
class AcquisitionSpec(ConfigObject, section="acquisition"):
    """Tagged choice of acquisition function and its parameters.

    Each kind takes only its own parameters: none for ei, tau for lcb, and
    tau, rho and c for glcb; one it takes defaults to 1.0 and is stored as
    a float, and one it does not take stays None.  glcb with rho = 0
    scores identically to lcb at the same tau.
    """

    kind: str
    tau: float | None = None
    rho: float | None = None
    c: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown acquisition {self.kind!r}; choose from {KINDS}")
        for name in PARAMETERS["glcb"]:
            value = getattr(self, name)
            if name in PARAMETERS[self.kind]:
                object.__setattr__(self, name, check_real(name, 1.0 if value is None else value))
            elif value is not None:
                raise ConfigError(f"{self.kind} acquisition takes no {name}; its "
                                  f"parameters: {', '.join(PARAMETERS[self.kind]) or 'none'}")
        if self.kind in ("lcb", "glcb") and self.tau < 0:
            raise ConfigError("tau must be nonnegative")
        if self.kind == "glcb":
            if self.rho < 0:
                raise ConfigError("rho must be nonnegative")
            if self.c <= 0:
                raise ConfigError("degree of imprecision c must be positive")

    @property
    def label(self) -> str:
        """CSV-safe identifier, e.g. lcb_tau1 or glcb_tau1_rho1_c100."""
        return "_".join([self.kind] + [f"{name}{getattr(self, name):g}"
                                       for name in PARAMETERS[self.kind]])

    @classmethod
    def from_dict(cls, d) -> "AcquisitionSpec":
        """Build from a mapping {"kind": ..., parameters} or from a string:
        "ei", "lcb:tau=1", "glcb:tau=1,rho=1,c=100", or the shorthand
        "glcb-RHO-C" (tau 1)."""
        return super().from_dict(_parse(d) if isinstance(d, str) else d)


def _parse(text: str) -> dict:
    """The mapping of an acquisition string, parameters as floats."""
    text = text.strip().lower()
    kind, _, params = text.partition(":")
    if kind not in KINDS:
        shorthand = _SHORTHAND.fullmatch(text)
        if shorthand:
            try:
                return {"kind": "glcb", "tau": 1.0, "rho": float(shorthand[1]),
                        "c": float(shorthand[2])}
            except ValueError:
                pass
        raise ConfigError(f"cannot parse acquisition {text!r}")
    d = {"kind": kind}
    for item in params.split(",") if params else ():
        if "=" not in item:
            raise ConfigError(f"malformed acquisition parameter {item!r} in {text!r}")
        key, value = item.split("=", 1)
        try:
            d[key] = float(value)
        except ValueError:
            raise ConfigError(f"non-numeric value for {key!r} in {text!r}") from None
    return d


def lcb_values(mu, var, tau: float) -> np.ndarray:
    return np.asarray(mu) - tau * np.sqrt(np.asarray(var))


def ei_values(mu, var, psi_min: float) -> np.ndarray:
    """Negated expected improvement below the incumbent (lower is better).

    Degenerate var = 0 entries reduce to -max(psi_min - mu, 0).  A batch
    whose every var is positive skips the masks and computes in place.
    """
    mu = np.asarray(mu, dtype=float)
    sd = np.sqrt(np.asarray(var, dtype=float))
    improve = psi_min - mu
    with np.errstate(divide="ignore", invalid="ignore"):
        if sd.ndim and improve.shape == sd.shape and (sd > 0).all():
            # the masked formula below in place, in its order of operations
            z = improve / sd
            cdf = np.divide(z, _SQRT2)
            erf(cdf, out=cdf)
            cdf += 1.0
            cdf *= 0.5
            pdf = np.multiply(z, -0.5)
            pdf *= z
            np.exp(pdf, out=pdf)
            pdf *= _INV_SQRT_2PI
            improve *= cdf
            pdf *= sd
            improve += pdf
            return np.negative(improve, out=improve)
        z = np.where(sd > 0, improve / np.where(sd > 0, sd, 1.0), 0.0)
        ei = np.where(sd > 0,
                      improve * _norm_cdf(z) + sd * _norm_pdf(z),
                      np.maximum(improve, 0.0))
    return -ei


def glcb_values(mu, var, width, tau: float, rho: float) -> np.ndarray:
    return np.asarray(mu) - tau * np.sqrt(np.asarray(var)) - rho * np.asarray(width)

