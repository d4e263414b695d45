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
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import ConfigError, check_keys

KINDS = ("ei", "lcb", "glcb")

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _norm_cdf(z):
    return 0.5 * (1.0 + erf(np.asarray(z) / _SQRT2))


def _norm_pdf(z):
    z = np.asarray(z)
    return _INV_SQRT_2PI * np.exp(-0.5 * z * z)


@dataclass(frozen=True)
class AcquisitionSpec:
    """Tagged choice of acquisition function and its parameters.

    tau applies to lcb and glcb, rho and c to glcb only.  glcb with rho = 0
    scores identically to lcb at the same tau.
    """

    kind: str
    tau: float = 1.0
    rho: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown acquisition {self.kind!r}; choose from {KINDS}")
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
        if self.kind == "ei":
            return "ei"
        if self.kind == "lcb":
            return f"lcb_tau{self.tau:g}"
        return f"glcb_tau{self.tau:g}_rho{self.rho:g}_c{self.c:g}"

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind in ("lcb", "glcb"):
            d["tau"] = self.tau
        if self.kind == "glcb":
            d["rho"] = self.rho
            d["c"] = self.c
        return d

    @classmethod
    def from_dict(cls, d) -> "AcquisitionSpec":
        """Build from a mapping, or from a string in a parse_acquisition form."""
        if isinstance(d, str):
            return parse_acquisition(d)
        check_keys(d, ("kind", "tau", "rho", "c"), "acquisition")
        if "kind" not in d:
            raise ConfigError("acquisition config needs a kind")
        return cls(**d)


def parse_acquisition(text: str) -> AcquisitionSpec:
    """Parse CLI forms: "ei", "lcb:tau=1", "glcb:tau=1,rho=1,c=100".

    The shorthand "glcb-RHO-C" (tau defaulting to 1) is accepted as well.
    """
    text = text.strip().lower()
    m = text.split(":", 1)
    kind = m[0]
    if kind not in KINDS:
        # shorthand glcb-1-100 means rho=1, c=100
        parts = text.split("-")
        if parts[0] == "glcb" and len(parts) == 3:
            try:
                return AcquisitionSpec(kind="glcb", tau=1.0,
                                       rho=float(parts[1]), c=float(parts[2]))
            except ValueError:
                pass
        raise ConfigError(f"cannot parse acquisition {text!r}")
    params = {}
    if len(m) == 2 and m[1]:
        for item in m[1].split(","):
            if "=" not in item:
                raise ConfigError(f"malformed acquisition parameter {item!r} in {text!r}")
            key, value = item.split("=", 1)
            if key not in ("tau", "rho", "c"):
                raise ConfigError(f"unknown acquisition parameter {key!r} in {text!r}")
            try:
                params[key] = float(value)
            except ValueError:
                raise ConfigError(f"non-numeric value for {key!r} in {text!r}") from None
    return AcquisitionSpec(kind=kind, **params)


def lcb_values(mu, var, tau: float) -> np.ndarray:
    return np.asarray(mu) - tau * np.sqrt(np.asarray(var))


def ei_values(mu, var, psi_min: float) -> np.ndarray:
    """Negated expected improvement below the incumbent (lower is better).

    Degenerate var = 0 entries reduce to -max(psi_min - mu, 0).
    """
    mu = np.asarray(mu, dtype=float)
    sd = np.sqrt(np.asarray(var, dtype=float))
    improve = psi_min - mu
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sd > 0, improve / np.where(sd > 0, sd, 1.0), 0.0)
        ei = np.where(sd > 0,
                      improve * _norm_cdf(z) + sd * _norm_pdf(z),
                      np.maximum(improve, 0.0))
    return -ei


def glcb_values(mu, var, width, tau: float, rho: float) -> np.ndarray:
    return np.asarray(mu) - tau * np.sqrt(np.asarray(var)) - rho * np.asarray(width)

