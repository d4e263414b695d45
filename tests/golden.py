"""Golden outputs: the sha256 of every file that a fixed set of small
`probo run`, `compare` and `sensitivity` commands writes, recorded in
golden.json with the numpy and scipy versions and the OpenBLAS kernel of
scipy's LAPACK that produced them.  The Cholesky factor, and every output
after it, can differ in its last bits under another kernel.

tests/test_golden.py reruns the commands and names each file whose bytes
moved, and any version or kernel that differs from the recorded one.
Rewrite golden.json with

    PYTHONPATH=src python tests/golden.py

only in a change that means to alter output bytes (a new column, a new
config key, a different snapshot shape, a change in floating-point
arithmetic) or that moves to other numpy or scipy versions, and list in
that change's notes every file that moved and why; the rewrite prints how
many files of each case moved and names each one under its case.  A change
that should keep the outputs must leave golden.json as it is.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import scipy

from probo.cli import main

GOLDEN = Path(__file__).with_name("golden.json")

TINY = ["--override", "infill.evals_per_round=60", "--override", "infill.rounds=2",
        "--override", "infill.restarts=2"]

GLCB_GRAMACY = ["run", "--override", "target=gramacy-lee",
                "--override", "acquisition=glcb-1-100",
                "--override", "n_init=6", "--override", "budget=14", *TINY, "--seed", "1"]

#: case name -> command line, without --jobs and --out
CASES = {
    "run-glcb-gramacy-ls0.1": GLCB_GRAMACY + ["--override", "kernel.lengthscale=0.1"],
    "run-glcb-gramacy-ls1": GLCB_GRAMACY + ["--override", "kernel.lengthscale=1"],
    "run-hyperfit-rosenbrock": [
        "run", "--override", "target=rosenbrock-3d", "--override", "acquisition=lcb:tau=1",
        "--override", "hyperparameter_fit=true", "--override", "hyperparameter_budget=8",
        "--override", "n_init=8", "--override", "budget=12", *TINY, "--seed", "2"],
    "run-ei-sphere-matern-linear": [
        "run", "--override", "target=sphere-2d", "--override", "acquisition=ei",
        "--override", "kernel.family=matern-5/2",
        "--override", 'mean={"form": "linear-fixed", "coefficients": [0, 0.1, 0.1]}',
        "--override", "n_init=6", "--override", "budget=12", *TINY, "--seed", "4"],
    # EI where erf saturates: nearly every z / sqrt(2) lies past +-5.92
    "run-ei-rosenbrock": [
        "run", "--override", "target=rosenbrock-3d", "--override", "acquisition=ei",
        "--override", "n_init=6", "--override", "budget=12", *TINY, "--seed", "5"],
    # Matern at a signal variance near the largest accepted: kept entries
    # beside ones past the correlation floor
    "run-lcb-ackley-matern-large-sv": [
        "run", "--override", "target=ackley-2d", "--override", "kernel.family=matern-5/2",
        "--override", "kernel.lengthscale=0.1", "--override", "kernel.signal_variance=1e295",
        "--override", "acquisition=lcb:tau=1",
        "--override", "n_init=6", "--override", "budget=12", *TINY, "--seed", "6"],
    # Matern at a signal variance near the smallest accepted, 2^-511: kept
    # entries near the smallest normal double beside ones past the floor
    "run-lcb-ackley-matern-small-sv": [
        "run", "--override", "target=ackley-2d", "--override", "kernel.family=matern-5/2",
        "--override", "kernel.lengthscale=0.1", "--override", "kernel.signal_variance=2e-154",
        "--override", "acquisition=lcb:tau=1",
        "--override", "n_init=6", "--override", "budget=12", *TINY, "--seed", "8"],
    # the likelihood search with Matern, a fixed mean, and a budget past one
    # chunk of draws
    "run-hyperfit-ackley-matern-linear": [
        "run", "--override", "target=ackley-2d", "--override", "kernel.family=matern-3/2",
        "--override", 'mean={"form": "linear-fixed", "coefficients": [0, 0.1, 0.1]}',
        "--override", "acquisition=lcb:tau=1",
        "--override", "hyperparameter_fit=true", "--override", "hyperparameter_budget=70",
        "--override", "n_init=6", "--override", "budget=10", *TINY, "--seed", "7"],
    # power-exponential, which no other case runs, at a signal variance of
    # neither 1 nor a floor-dominated extreme
    "run-lcb-sphere-powexp-sv": [
        "run", "--override", "target=sphere-2d",
        "--override", "kernel.family=power-exponential", "--override", "kernel.power=1.5",
        "--override", "kernel.signal_variance=2.7", "--override", "acquisition=lcb:tau=1",
        "--override", "n_init=6", "--override", "budget=12", *TINY, "--seed", "9"],
    # Matern entries kept well above the floor, times a signal variance of
    # neither 1 nor an extreme, carried through GLCB to the trace
    "run-glcb-gramacy-matern-sv": [
        "run", "--override", "target=gramacy-lee", "--override", "kernel.family=matern-3/2",
        "--override", "kernel.lengthscale=0.3", "--override", "kernel.signal_variance=2.7",
        "--override", "acquisition=glcb-1-100",
        "--override", "n_init=6", "--override", "budget=12", *TINY, "--seed", "10"],
    "compare": [
        "compare", "--functions", "gramacy-lee", "--functions", "sphere-2d",
        "--acq", "ei", "--acq", "lcb:tau=2", "--acq", "glcb-1-100",
        "--override", "kernel.lengthscale=0.3", "--override", "reps=2",
        "--override", "budget=8", "--override", "n_init=5", *TINY, "--seed", "11"],
    # a mean written for one dimension, repeated to sphere-2d's
    "compare-broadcast-mean": [
        "compare", "--functions", "gramacy-lee", "--functions", "sphere-2d",
        "--acq", "ei", "--acq", "lcb:tau=1",
        "--override", 'mean={"form": "linear-fixed", "coefficients": [0, 0.1]}',
        "--override", "reps=2", "--override", "budget=8", "--override", "n_init=5", *TINY,
        "--seed", "11"],
    "sensitivity": [
        "sensitivity", "--functions", "sphere-1d", "--functions", "gramacy-lee",
        "--override", "reps=1", "--override", "iterations=2", "--override", "n_init=4",
        *TINY, "--seed", "3"],
}

#: the protocols take worker processes; their output must not depend on them
JOBS = {"compare": ("1", "2"), "compare-broadcast-mean": ("1", "2"),
        "sensitivity": ("1", "2")}


def blas_core() -> str | None:
    """The kernel that scipy's bundled OpenBLAS picked for this CPU, as
    OpenBLAS names it ("SkylakeX", "Haswell", ...), or None where it cannot
    be read."""
    libs = Path(scipy.__file__).parent.with_name("scipy.libs")
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas_core": blas_core()}


def tree_digests(root: Path) -> dict[str, str]:
    """The sha256 of every file under root, by its path relative to root."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def case_digests(case: str, out: Path, jobs: str | None = None) -> dict[str, str]:
    """Run one case into out and return the digests of what it wrote."""
    argv = CASES[case] + (["--jobs", jobs] if jobs else []) + ["--out", str(out)]
    with redirect_stdout(StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{case} exited {code}")
    return tree_digests(out)


def moved(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """The files whose digest differs between two digest maps, or that only
    one of them has."""
    return sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))


def rewrite() -> None:
    previous = json.loads(GOLDEN.read_text())["outputs"] if GOLDEN.exists() else {}
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            runs = [case_digests(case, Path(tmp) / f"{case}-{jobs}", jobs)
                    for jobs in JOBS.get(case, (None,))]
            if any(digests != runs[0] for digests in runs):
                raise RuntimeError(f"{case}: output depends on --jobs")
            outputs[case] = runs[0]
            files = moved(previous.get(case, {}), runs[0])
            print(f"{case}: {len(files)} of {len(runs[0])} files moved", file=sys.stderr)
            for name in files:
                print(f"  {name}", file=sys.stderr)
    GOLDEN.write_text(json.dumps({**versions(), "outputs": outputs},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}: {sum(map(len, outputs.values()))} files in {len(outputs)} cases",
          file=sys.stderr)


if __name__ == "__main__":
    rewrite()
