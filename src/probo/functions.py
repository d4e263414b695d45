"""Synthetic test functions and CSV-tabulated targets.

The registry covers input dimensions 1 through 4 plus 7 and includes both
smooth unimodal bowls and multimodal, wiggly surfaces.  All functions are
deterministic and evaluated pointwise on a numpy vector.
"""

from __future__ import annotations

import codecs
import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import TargetFunction
from .errors import ConfigError, ProboError, check_bool
from .optimizer import BoxBounds


def sphere(x):
    return float(np.sum(x * x))


def ackley(x):
    d = x.size
    return float(
        -20.0 * np.exp(-0.2 * np.sqrt(np.sum(x * x) / d))
        - np.exp(np.sum(np.cos(2.0 * np.pi * x)) / d)
        + 20.0
        + math.e
    )


def rastrigin(x):
    return float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)))


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def schwefel(x):
    return float(418.9829 * x.size - np.sum(x * np.sin(np.sqrt(np.abs(x)))))


def gramacy_lee(x):
    # wiggly 1-D standard: high-frequency sinusoid over a quartic trend
    t = float(x[0])
    return math.sin(10.0 * math.pi * t) / (2.0 * t) + (t - 1.0) ** 4


def _box(lo: float, hi: float, d: int) -> BoxBounds:
    return BoxBounds(lower=np.full(d, lo), upper=np.full(d, hi))


def _entry(name, fn, lo, hi, d, optimum):
    return TargetFunction(name=name, evaluate=fn, bounds=_box(lo, hi, d),
                          known_optimum=optimum)


_REGISTRY = {
    tf.name: tf
    for tf in [
        _entry("sphere-1d", sphere, -5.12, 5.12, 1, 0.0),
        _entry("sphere-2d", sphere, -5.12, 5.12, 2, 0.0),
        _entry("sphere-3d", sphere, -5.12, 5.12, 3, 0.0),
        _entry("sphere-4d", sphere, -5.12, 5.12, 4, 0.0),
        _entry("sphere-7d", sphere, -5.12, 5.12, 7, 0.0),
        _entry("ackley-2d", ackley, -32.768, 32.768, 2, 0.0),
        _entry("rastrigin-2d", rastrigin, -5.12, 5.12, 2, 0.0),
        _entry("rosenbrock-3d", rosenbrock, -2.048, 2.048, 3, 0.0),
        _entry("rosenbrock-4d", rosenbrock, -2.048, 2.048, 4, 0.0),
        # optimum only known numerically for these two
        _entry("schwefel-4d", schwefel, -500.0, 500.0, 4, None),
        _entry("gramacy-lee", gramacy_lee, 0.5, 2.5, 1, None),
    ]
}


def registry_names() -> list[str]:
    return sorted(_REGISTRY)


def registry_lookup(name: str) -> TargetFunction:
    """Look up a built-in test function by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown function {name!r}; available: {', '.join(registry_names())}"
        ) from None


@dataclass(frozen=True)
class TabulatedTarget:
    """Piecewise-linear interpolant over (x, y) samples loaded from CSV.

    Evaluation is restricted to [min x, max x]; negate flips the sign so
    maximization targets can be minimized.
    """

    xs: np.ndarray
    ys: np.ndarray
    negate: bool = False

    def __post_init__(self):
        self.xs.flags.writeable = False
        self.ys.flags.writeable = False

    def __call__(self, point) -> float:
        t = float(np.asarray(point).reshape(-1)[0])
        if t < self.xs[0] or t > self.xs[-1]:
            raise ProboError(
                f"point {t} outside the tabulated domain [{self.xs[0]}, {self.xs[-1]}]"
            )
        value = float(np.interp(t, self.xs, self.ys))
        return -value if self.negate else value


def _read_utf8(path: Path, error: type[ProboError]) -> str:
    """The text of a UTF-8 file, with a byte-order mark dropped.  Raises
    error "path:line: not UTF-8 text" for bytes that do not decode, counting
    lines with str.splitlines, and error "cannot read path" for a file that
    cannot be read."""
    try:
        data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
        return data.decode("utf-8")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # the line of the bad byte
        lineno = len((data[: exc.start] + b"_").decode("utf-8").splitlines())
        raise error(f"{path}:{lineno}: not UTF-8 text") from None


def load_tabulated_target(csv_path, negate: bool = False) -> TargetFunction:
    """Build a 1-D target from a CSV of numeric x, y columns.

    The first non-blank row is a header, skipped only when its x cell is not
    a number.  A UTF-8 byte-order mark is dropped.  A row needs two cells and
    may add only blank ones.  Rows are sorted by x; duplicate x values and
    non-finite x or y values are rejected.  negate=True for targets that are
    to be maximized.
    """
    check_bool("negate", negate)
    csv_path = Path(csv_path)
    text = _read_utf8(csv_path, ProboError)
    rows = [(n, row) for n, row in enumerate(csv.reader(text.splitlines()), start=1)
            if any(cell.strip() for cell in row)]
    xs, ys = [], []
    for k, (lineno, row) in enumerate(rows):
        if len(row) < 2 or any(cell.strip() for cell in row[2:]):
            raise ProboError(f"{csv_path}:{lineno}: expected two columns, got {row!r}")
        x = None
        try:
            x = float(row[0])
            y = float(row[1])
        except ValueError:
            if k == 0 and x is None:  # header row
                continue
            raise ProboError(
                f"{csv_path}:{lineno}: non-numeric cell in {row!r}"
            ) from None
        for axis, value in (("x", x), ("y", y)):
            if not math.isfinite(value):
                raise ProboError(f"{csv_path}:{lineno}: non-finite {axis} in {row!r}")
        xs.append(x)
        ys.append(y)
    if len(xs) < 2:
        raise ProboError(f"{csv_path}: need at least two data rows, got {len(xs)}")
    order = np.argsort(xs)
    xs = np.asarray(xs, dtype=float)[order]
    ys = np.asarray(ys, dtype=float)[order]
    if np.any(np.diff(xs) <= 0):
        raise ProboError(f"{csv_path}: x values must be distinct")
    interp = TabulatedTarget(xs=xs, ys=ys, negate=negate)
    return TargetFunction(
        name=csv_path.stem,
        evaluate=interp,
        bounds=BoxBounds(lower=np.array([xs[0]]), upper=np.array([xs[-1]])),
        known_optimum=None,
    )
