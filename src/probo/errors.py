"""Exception types shared across the package, the config checks that raise
them, and the base class of the config objects."""

import math
import numbers
from dataclasses import MISSING, fields

import numpy as np


class ProboError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(ProboError):
    """An input point does not match the dimension a model or spec expects."""

    def __init__(self, expected: int, got: int, what: str = "point"):
        self.expected = expected
        self.got = got
        super().__init__(f"{what} has dimension {got}, expected {expected}")


class ConditioningError(ProboError):
    """Kernel matrix factorization failed even after jitter escalation."""

    def __init__(self, message: str, jitter: float):
        self.jitter = jitter
        super().__init__(message)


class ConfigError(ProboError, ValueError):
    """A run or experiment configuration is invalid.  Also a ValueError, so
    the spec classes raise it where a bad argument value raises ValueError."""


def check_keys(d, allowed, where: str) -> None:
    """Reject a config object that is not a mapping or has keys outside allowed."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} config must be an object, got {d!r}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown {where} config keys: {', '.join(sorted(unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def check_integer(name: str, value) -> None:
    """Reject a config value that is not an integer (bools included)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def check_bool(name: str, value) -> None:
    """Reject a config value that is not true or false."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")


def check_real(name: str, value) -> None:
    """Reject a config value that is not a finite real number (bools included)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite real number, got {value!r}")


def check_reals(name: str, values) -> tuple[float, ...]:
    """A flat list, tuple or 1-D array of finite real numbers, as floats."""
    if isinstance(values, np.ndarray) and values.ndim == 1:
        values = values.tolist()
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{name} must be a list of finite real numbers, got {values!r}")
    for value in values:
        check_real(name, value)
    return tuple(float(value) for value in values)


class ConfigObject:
    """Base of a frozen dataclass whose fields are its config keys; section,
    given at subclassing (class MeanSpec(ConfigObject, section="mean")),
    names the config in error messages."""

    def __init_subclass__(cls, section: str):
        cls.section = section

    def to_dict(self) -> dict:
        """Every field that is not None, a nested config object as its own
        dict and a tuple as a list."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.to_dict() if isinstance(v, ConfigObject) else
                list(v) if isinstance(v, tuple) else v
                for k, v in values.items() if v is not None}

    @classmethod
    def from_dict(cls, d):
        """Build from a mapping of field names to values; a field without a
        default must be given."""
        check_keys(d, [f.name for f in fields(cls)], cls.section)
        missing = [f.name for f in fields(cls) if f.name not in d
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ConfigError(f"{cls.section} config needs {', '.join(missing)}")
        return cls(**d)
