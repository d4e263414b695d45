"""Exception types shared across the package."""


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


class ConfigError(ProboError):
    """A run or experiment configuration is invalid."""


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
