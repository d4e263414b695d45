"""Time kernels.kernel_matrix on a fixed grid of batch shapes and write
BENCH_<short head>.json, the first slice of ROADMAP item 16's layer grid.

    OPENBLAS_NUM_THREADS=1 python3 tools/bench_grid.py [--repo PATH]

Each cell times one squared-exponential kernel_matrix call between n
training points and 5,000 scored points, both uniform in [-2, 2]^d, the
way a focus-search round scores its batch, on the grid

    n in {10, 30, 60, 100}  x  d in {1, 3, 7}  x  lengthscale in {1, 0.1}

with signal variance 1.  At lengthscale 1 no batch reaches the floor
guard; at 0.1 every batch takes it.
A cell's REPEATS calls follow one warm-up call, and each is followed by
one sample of perfbench's speed reference (workloads.SpeedReference,
imported read-only), because the speed of a shared machine drifts by tens
of percent within minutes.  The record gives each cell's median and
quartiles in microseconds, raw and scaled to the reference's nominal speed
(times NOMINAL_S over the median of the cell's reference samples), and the
environment: Python, numpy and scipy versions, the OpenBLAS kernel of
scipy's LAPACK (blas_core), the BLAS thread settings and the SIMD target
of numpy's float64 exp.

--repo names the checkout whose src/probo is timed (default: this one);
its short git head names the file, which goes to this checkout's root, and
"dirty" says whether its src/ has uncommitted changes.  BLAS threads are
pinned from outside, as perfbench pins them for its client.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

POINTS = 5_000
REPEATS = 101
SIZES = (10, 30, 60, 100)
DIMENSIONS = (1, 3, 7)
LENGTHSCALES = (1.0, 0.1)
CELLS = [(n, d, ls) for n in SIZES for d in DIMENSIONS for ls in LENGTHSCALES]


def _import_helpers(repo: Path):
    """probo from repo's src/, the speed reference from this checkout's
    perfbench/ and the environment probe from its tests/golden.py."""
    for path in (ROOT / "tests", ROOT / "perfbench", repo / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import golden
    import workloads
    from probo.kernels import KernelSpec, kernel_matrix
    return golden, workloads.SpeedReference, KernelSpec, kernel_matrix


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def environment(golden) -> dict:
    """Python's version, golden.versions() (numpy's, scipy's and the
    OpenBLAS kernel), the BLAS thread settings and the SIMD target of numpy's float64 exp, or None
    before numpy 2.0, which cannot report it."""
    env = {"python": platform.python_version(), **golden.versions(),
           "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        env["exp_dispatch"] = None
    else:
        env["exp_dispatch"] = opt_func_info("^exp$", "float64")["exp"]["dd"]["current"]
    return env


def time_cell(n: int, d: int, lengthscale: float, repeats: int, helpers) -> dict:
    """The cell's raw and scaled quartiles, in microseconds."""
    _, SpeedReference, KernelSpec, kernel_matrix = helpers
    rng = np.random.default_rng([n, d, int(lengthscale == 1.0)])
    A = rng.uniform(-2.0, 2.0, size=(n, d))
    B = rng.uniform(-2.0, 2.0, size=(POINTS, d))
    spec = KernelSpec(lengthscales=(lengthscale,) * d)
    reference = SpeedReference()
    raw = []
    kernel_matrix(spec, A, B)  # warm-up
    for _ in range(repeats):
        start = time.perf_counter()
        kernel_matrix(spec, A, B)
        raw.append(time.perf_counter() - start)
        reference.sample()
    scale = SpeedReference.NOMINAL_S / statistics.median(reference.samples)
    q = quartiles(raw)
    return {"n": n, "d": d, "lengthscale": lengthscale, "points": POINTS,
            "repeats": repeats,
            "raw_us": {"q1": q[0] * 1e6, "median": q[1] * 1e6, "q3": q[2] * 1e6},
            "scaled_us": {"q1": q[0] * scale * 1e6, "median": q[1] * scale * 1e6,
                          "q3": q[2] * scale * 1e6},
            "reference_median_us": statistics.median(reference.samples) * 1e6}


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def measure(cells, repeats: int, repo: Path = ROOT) -> dict:
    """The BENCH record of these (n, d, lengthscale) cells for repo's probo."""
    helpers = _import_helpers(repo)
    return {"layer": "kernels.kernel_matrix",
            "environment": environment(helpers[0]),
            "cells": [time_cell(n, d, ls, repeats, helpers) for n, d, ls in cells]}


def main(argv: list[str] | None = None) -> Path:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path, default=ROOT)
    repo = parser.parse_args(argv).repo.resolve()
    head = _git(repo, "rev-parse", "--short", "HEAD")
    record = {"head": head, "dirty": bool(_git(repo, "status", "--porcelain", "--", "src")),
              **measure(CELLS, REPEATS, repo)}
    path = ROOT / f"BENCH_{head}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(path)
    return path


if __name__ == "__main__":
    main()
