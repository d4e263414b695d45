"""The benchmark's workloads, driven through probo's public API and CLI.

A workload is a sequence of units.  Unit i depends only on the workload
seed and i, so the same seed gives the same inputs and, for unchanged
arithmetic, byte-identical outputs.  Every target evaluation is stamped
with the clock by the benchmark's own target wrapper; the interval between
consecutive adaptive evaluations of one run is one BO iteration as a user
sees it.  In an untraced window each evaluation is followed by a sample of
the SpeedReference, whose time the workload's clock leaves out.

- glcb-gramacy: one GLCB run per unit on gramacy-lee, lengthscale
  alternating 0.1 / 1.0 so that both IGP cases run (units come in pairs).
- hyperfit-rosenbrock: one LCB run per unit on rosenbrock-3d with the
  marginal-likelihood hyperparameter search on.
- sensitivity-protocol: one ``probo sensitivity`` invocation per unit over
  the five criterion-11 functions at one repetition, writing its output tree.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy.linalg

import probo.bench
import probo.cli
import probo.engine
import probo.functions
from probo.acquisition import AcquisitionSpec
from probo.engine import RunConfig
from probo.kernels import KernelSpec

PROTOCOL_FUNCTIONS = ("gramacy-lee", "ackley-2d", "rosenbrock-3d", "schwefel-4d",
                      "sphere-7d")
PROTOCOL_REPS = 1
PROTOCOL_ITERATIONS = 10
PROTOCOL_N_INIT = 10


def unit_seed(seed: int, i: int) -> int:
    """Seed of unit i, independent streams per (workload seed, unit)."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0]
               & ((1 << 63) - 1))


@dataclass
class RunTiming:
    """One run: its shape key (same target and settings), its seconds, the
    intervals of its adaptive iterations, and the factors that scale them
    to the reference speed (1 without a reference): one for the whole run,
    one per interval from the reference samples around it."""

    key: str
    seconds: float
    intervals: list
    speed: float
    interval_speeds: list


@dataclass
class UnitResult:
    """What one unit did: planned runs, the timing of each run it executed,
    final incumbents, outputs to digest and check, and errors.

    A run lasts from the previous run's last evaluation (or the unit's
    start) to its own last evaluation; tail_s is the rest of the unit after
    the last run.
    """

    planned_runs: int
    runs: list[RunTiming] = field(default_factory=list)
    tail_s: float = 0.0
    finals: list = field(default_factory=list)
    traces: list = field(default_factory=list)   # OptimizationTrace, loop units
    out_dir: Path | None = None                 # output tree, protocol units
    errors: list = field(default_factory=list)


class SpeedReference:
    """A fixed numpy/LAPACK computation, independent of probo, timed after
    every target evaluation of an untraced window.

    On a shared 2-core x86 virtual machine the speed drifts by 20-30% over
    seconds to minutes (CPU and page-fault time alike), and the reference
    drifts with it.  Scaling a
    run's duration by NOMINAL_S over the reference's mean time during that
    run, and each iteration interval by NOMINAL_S over the mean of the
    LOCAL_SAMPLES samples on either side of it, gives durations at a fixed
    reference speed, which are steady across runs made minutes apart.  The
    reference's own time is taken out of the clock the workload reads.
    """

    NOMINAL_S = 0.38e-3

    def __init__(self):
        rng = np.random.default_rng(0)
        self.X = rng.uniform(size=(40, 1))
        self.P = rng.uniform(size=(300, 1))
        K = np.exp(-0.5 * ((self.X - self.X.T) / 0.3) ** 2) + 1e-6 * np.eye(40)
        self.L = scipy.linalg.cholesky(K, lower=True)
        self.samples: list[float] = []
        self._total = 0.0

    def sample(self) -> float:
        t = time.perf_counter()
        Kx = np.exp(-0.5 * ((self.X[:, None, :] - self.P[None, :, :]) ** 2).sum(-1) / 0.09)
        v = scipy.linalg.cho_solve((self.L, True), Kx)
        float(np.einsum("ij,ij->j", Kx, v).sum())
        d = time.perf_counter() - t
        self.samples.append(d)
        self._total += d
        return d

    def clock(self) -> float:
        """perf_counter without the time spent in the reference."""
        return time.perf_counter() - self._total


class Workload:
    """Probes a workload's units carry: the tracer and instrument of a
    traced window, or the speed reference of an untraced one."""

    group = 1

    def __init__(self):
        self.tracer = None
        self.instrument = None
        self.reference: SpeedReference | None = None

    def clock(self) -> float:
        return self.reference.clock() if self.reference else time.perf_counter()

    def stamped(self, evaluate, key: str, stamps: list):
        """Target wrapper that appends (key, completion time, reference
        seconds or None) for each evaluation.  With a tracer the evaluation
        is also a functions.evaluate span."""
        clock, reference = self.clock, self.reference
        if self.tracer is None:
            def wrapped(x):
                value = evaluate(x)
                ref = reference.sample() if reference is not None else None
                stamps.append((key, clock(), ref))
                return value
            return wrapped

        traced = self.tracer.wrap(evaluate, "functions.evaluate")
        instrument = self.instrument

        def wrapped_traced(x):
            instrument.evaluated(x)
            value = traced(x)
            stamps.append((key, clock(), None))
            return value
        return wrapped_traced


#: reference samples on each side of an interval that set its speed
LOCAL_SAMPLES = 4


def split_runs(i: int, res: UnitResult, stamps: list, start: float, end: float,
               budget: int, n_init: int) -> None:
    """Cut unit i's evaluation stamps into runs of `budget` evaluations."""
    if len(stamps) % budget:
        res.errors.append(f"unit {i}: {len(stamps)} evaluations is not a whole "
                          f"number of runs of {budget}")
        return
    prev = start
    for r in range(0, len(stamps), budget):
        keys, times, refs = zip(*stamps[r:r + budget])
        if len(set(keys)) != 1:
            res.errors.append(f"unit {i}: evaluations of different targets interleave")
            return
        adaptive = range(n_init, budget)
        if refs[0] is None:
            speed, local = 1.0, [1.0] * len(adaptive)
        else:
            nominal = SpeedReference.NOMINAL_S
            speed = nominal / float(np.mean(refs))
            local = [nominal / float(np.mean(refs[max(0, k - LOCAL_SAMPLES):k + LOCAL_SAMPLES + 1]))
                     for k in adaptive]
        res.runs.append(RunTiming(keys[0], times[-1] - prev,
                                  [times[k] - times[k - 1] for k in adaptive], speed, local))
        prev = times[-1]
    res.tail_s = end - prev


class LoopWorkload(Workload):
    """One BO run per unit through probo.engine.run."""

    def __init__(self, target: str, seed: int):
        super().__init__()
        self.seed = seed
        self.target = probo.functions.registry_lookup(target)

    def config(self, i: int) -> RunConfig:
        raise NotImplementedError

    def unit(self, i: int, out_dir: Path) -> UnitResult:
        config = self.config(i)
        stamps: list = []
        key = f"{self.target.name} ls={config.kernel.lengthscales[0]:g}"
        target = replace(self.target, evaluate=self.stamped(self.target.evaluate, key, stamps))
        res = UnitResult(planned_runs=1)
        start = self.clock()
        try:
            trace = probo.engine.run(config, target)
        except Exception as exc:  # a failed run is counted, not fatal
            res.errors.append(f"unit {i}: {type(exc).__name__}: {exc}")
            return res
        split_runs(i, res, stamps, start, self.clock(), config.budget, config.n_init)
        res.finals = [trace.best_value()]
        res.traces = [trace]
        return res


class GlcbGramacy(LoopWorkload):
    group = 2

    def __init__(self, seed: int):
        super().__init__("gramacy-lee", seed)

    def config(self, i: int) -> RunConfig:
        ls = (0.1, 1.0)[i % 2]
        return RunConfig(
            kernel=KernelSpec(family="squared-exponential", lengthscales=(ls,)),
            acquisition=AcquisitionSpec(kind="glcb", tau=1.0, rho=1.0, c=100.0),
            n_init=10, budget=60, seed=unit_seed(self.seed, i))


class HyperfitRosenbrock(LoopWorkload):
    def __init__(self, seed: int):
        super().__init__("rosenbrock-3d", seed)

    def config(self, i: int) -> RunConfig:
        return RunConfig(
            kernel=KernelSpec(family="squared-exponential", lengthscales=(1.0,) * 3),
            acquisition=AcquisitionSpec(kind="lcb", tau=1.0),
            n_init=10, budget=60, seed=unit_seed(self.seed, i),
            hyperparameter_fit=True, hyperparameter_budget=50)


class SensitivityProtocol(Workload):
    """One `probo sensitivity` CLI invocation per unit."""

    def __init__(self, seed: int):
        super().__init__()
        self.seed = seed
        self._stamps: list = []
        plans = probo.bench.default_sensitivity_plans(
            functions=PROTOCOL_FUNCTIONS, repetitions=PROTOCOL_REPS)
        self.runs_per_unit = sum(len(p.variants) * len(p.functions) * p.repetitions
                                 for p in plans)
        self.budget = PROTOCOL_N_INIT + PROTOCOL_ITERATIONS
        # the protocol resolves its targets through bench's registry lookup;
        # hand it targets whose evaluations are stamped
        self._lookup = probo.bench.registry_lookup
        probo.bench.registry_lookup = self._stamped_lookup

    def _stamped_lookup(self, name):
        target = self._lookup(name)
        return replace(target, evaluate=self.stamped(target.evaluate, name, self._stamps))

    def argv(self, i: int, out: Path) -> list[str]:
        argv = ["sensitivity"]
        for name in PROTOCOL_FUNCTIONS:
            argv += ["--functions", name]
        return argv + ["--override", f"reps={PROTOCOL_REPS}",
                       "--override", f"iterations={PROTOCOL_ITERATIONS}",
                       "--override", f"n_init={PROTOCOL_N_INIT}",
                       "--seed", str(unit_seed(self.seed, i)), "--jobs", "1",
                       "--out", str(out)]

    def unit(self, i: int, out_dir: Path) -> UnitResult:
        out = out_dir / f"unit{i}"
        self._stamps.clear()
        res = UnitResult(planned_runs=self.runs_per_unit, out_dir=out)
        start = self.clock()
        try:
            with redirect_stdout(io.StringIO()):
                code = probo.cli.main(self.argv(i, out))
        except Exception as exc:  # a crashed protocol is counted, not fatal
            code = f"{type(exc).__name__}: {exc}"
        if code != 0:
            res.errors.append(f"unit {i}: probo sensitivity failed: {code}")
        split_runs(i, res, list(self._stamps), start, self.clock(),
                   self.budget, PROTOCOL_N_INIT)
        return res


WORKLOADS = {
    "glcb-gramacy": GlcbGramacy,
    "hyperfit-rosenbrock": HyperfitRosenbrock,
    "sensitivity-protocol": SensitivityProtocol,
}

#: approximate seconds per unit on a 2-core x86 box with one BLAS thread;
#: sets how many units a window of --seconds holds
NOMINAL_UNIT_S = {
    "glcb-gramacy": 2.6,
    "hyperfit-rosenbrock": 5.8,
    "sensitivity-protocol": 28.0,
}


def units_for(name: str, seconds: float, group: int) -> int:
    """Fixed number of units, a multiple of the workload's group size."""
    k = max(1, math.ceil(seconds / NOMINAL_UNIT_S[name]))
    return group * math.ceil(k / group)


# ------------------------------------------------------------ output checks

def tree_digest(root: Path) -> tuple[str, int, int]:
    """(sha256 over sorted relative paths and file digests, files, bytes)."""
    h = hashlib.sha256()
    files = nbytes = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(f"{path.relative_to(root).as_posix()} {hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
        files += 1
        nbytes += path.stat().st_size
    return h.hexdigest(), files, nbytes


def nonincreasing(values) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


def check_loop_unit(i: int, res: UnitResult, out_dir: Path) -> list[str]:
    """Trace length and monotone incumbents; writes the trace for digesting."""
    errors = []
    for trace in res.traces:
        if trace.budget != trace.config.budget:
            errors.append(f"unit {i}: {trace.budget} records, budget {trace.config.budget}")
        if not nonincreasing(list(trace.incumbent_path(include_init=True))):
            errors.append(f"unit {i}: incumbent path increases")
        probo.engine.save_trace_csv(trace, out_dir / f"unit{i}" / "trace.csv",
                                    out_dir / f"unit{i}" / "config.json")
    return errors


def check_protocol_unit(i: int, res: UnitResult, runs: int) -> tuple[list[str], list]:
    """Every planned run wrote a trace with monotone incumbents, and the
    relative ADs of each included function sum to the number of axes.
    Returns (errors, final incumbents)."""
    errors, finals = [], []
    out = res.out_dir
    traces = sorted((out / "traces").rglob("*.csv")) if out is not None else []
    if len(traces) != runs:
        errors.append(f"unit {i}: {len(traces)} trace files for {runs} planned runs")
    for path in traces:
        with open(path, newline="") as fh:
            incumbents = [float(row["incumbent"]) for row in csv.DictReader(fh)]
        if not nonincreasing(incumbents):
            errors.append(f"unit {i}: incumbent path increases in {path.name}")
        finals.append(incumbents[-1])
    sums: dict[str, float] = {}
    try:
        with open(out / "ad_summary.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                if row["relative_ad"] != "":
                    sums[row["function"]] = sums.get(row["function"], 0.0) + float(
                        row["relative_ad"])
    except (OSError, TypeError) as exc:
        errors.append(f"unit {i}: no ad_summary.csv ({exc})")
    n_axes = len(probo.bench.AXES)
    for fname, total in sums.items():
        if abs(total - n_axes) > 1e-9 * n_axes:
            errors.append(f"unit {i}: relative ADs of {fname} sum to {total!r}")
    if not sums and not errors:
        errors.append(f"unit {i}: no function included in the AD summary")
    return errors, finals
