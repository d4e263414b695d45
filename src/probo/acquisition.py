"""Acquisition scores: expected improvement, LCB, and the generalized LCB.

Every score is reported in a uniform lower-is-better convention so the
infill optimizers always minimize; EI is negated internally to fit.  The
generalized lower confidence bound extends LCB with an imprecision bonus,

    glcb(x) = lcb(x) - rho * width(x),  lcb(x) = mu(x) - tau * sqrt(var(x)),

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
from .igp import check_c

KINDS = ("ei", "lcb", "glcb")
#: the parameters each kind takes
PARAMETERS = {"ei": (), "lcb": ("tau",), "glcb": ("tau", "rho", "c")}
#: glcb-RHO-C, tau 1: glcb-1-100, or glcb-1-1e-3 (a dash after an e is an
#: exponent's sign, not a separator)
_SHORTHAND = re.compile(r"glcb-(.+?)(?<!e)-(.+)")

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
#: the smallest double at which scipy's erf is exactly 1.0; erf(-x) = -erf(x)
_ERF_ONE = 5.921587195794508


@dataclass(frozen=True)
class AcquisitionSpec(ConfigObject, section="acquisition"):
    """Tagged choice of acquisition function and its parameters.

    Each kind takes only its own parameters: none for ei, tau for lcb, and
    tau, rho and c for glcb; one it takes defaults to 1.0 and is stored as
    a float, and one it does not take stays None.  tau and rho are
    nonnegative and c passes igp.check_c.  glcb with rho = 0
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
        for name in ("tau", "rho"):
            if name in PARAMETERS[self.kind] and getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.kind == "glcb":
            check_c(self.c)

    @property
    def label(self) -> str:
        """CSV-safe identifier, e.g. lcb_tau1 or glcb_tau1_rho1_c100: each
        parameter as its :g text where that reads back as the same float,
        else as its repr, so distinct settings have distinct labels."""
        return "_".join([self.kind] + [f"{name}{_label_number(getattr(self, name))}"
                                       for name in PARAMETERS[self.kind]])

    @classmethod
    def from_dict(cls, d) -> "AcquisitionSpec":
        """Build from a mapping {"kind": ..., parameters} or from a string:
        "ei", "lcb:tau=1", "glcb:tau=1,rho=1,c=100", or the shorthand
        "glcb-RHO-C" (tau 1)."""
        return super().from_dict(_parse(d) if isinstance(d, str) else d)


def _label_number(value: float) -> str:
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


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
    d = {}
    for item in params.split(",") if params else ():
        if "=" not in item:
            raise ConfigError(f"malformed acquisition parameter {item!r} in {text!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key in d:
            raise ConfigError(f"acquisition parameter {key!r} given twice in {text!r}")
        try:
            d[key] = float(value)
        except ValueError:
            raise ConfigError(f"non-numeric value for {key!r} in {text!r}") from None
    return {"kind": kind, **d}


def lcb_values(mu, var, tau: float) -> np.ndarray:
    return np.asarray(mu) - tau * np.sqrt(np.asarray(var))


def ei_values(mu, var, psi_min: float) -> np.ndarray:
    """Negated expected improvement below the incumbent (lower is better),
    one formula on mu and var broadcast to one shape, computed in place.

    A var = 0 entry reduces to -max(psi_min - mu, 0): z = +-inf gives cdf 1
    or 0 and pdf 0, and z = 0/0, at mu = psi_min, is taken as 0.  erf runs
    only where |z| / sqrt(2) < _ERF_ONE; past it, +-inf included, erf is
    exactly +-1 and is set as such, so every score keeps the bits of erf on
    the whole batch.
    """
    mu, sd = np.broadcast_arrays(np.asarray(mu, float), np.sqrt(np.asarray(var, float)))
    improve = np.atleast_1d(psi_min - mu)
    # past |z| ~ 1.3e154, -z^2/2 overflows to -inf, whose exp is the right 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = improve / sd
        z[np.isnan(z)] = 0.0
        cdf = np.divide(z, _SQRT2)
        band = np.abs(cdf) < _ERF_ONE
        inside = erf(cdf[band])
        np.copysign(1.0, cdf, out=cdf)
        cdf[band] = inside
        cdf += 1.0
        cdf *= 0.5
        pdf = np.multiply(z, -0.5)
        pdf *= z
        np.exp(pdf, out=pdf)
        pdf *= _INV_SQRT_2PI
        improve *= cdf
        pdf *= sd
        improve += pdf
        return np.negative(improve, out=improve).reshape(mu.shape)


def glcb_values(mu, var, width, tau: float, rho: float) -> np.ndarray:
    return lcb_values(mu, var, tau) - rho * np.asarray(width)

