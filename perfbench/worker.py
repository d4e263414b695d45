"""Benchmark client process: sets up one workload, runs it in a closed loop
(one run at a time) and prints one JSON object as its last line.

run.py starts it with BLAS/OpenMP threads pinned to 1 and src/ on the path:

    python3 perfbench/worker.py --workload glcb-gramacy --seed 0 --seconds 20 \
        --trace 0 --out OUT_DIR [--spans SPANS_CSV] [--setup-only]

--trace 0 runs a fixed number of units sized to --seconds, and more while
they fit in --seconds, and reports end-to-end metrics, durations scaled to
the nominal speed of workloads.SpeedReference.  --trace 1 runs
that fixed unit count twice on the same seeds, untraced and then traced,
reports per-layer metrics and the tracing overhead (traced wall minus
untraced wall), and checks that tracing left every output byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

# setup starts at interpreter start: everything up to "ready" is set-up time
import numpy as np
import scipy

import probo.gp
from probo.acquisition import ei_values
from probo.gp import MeanSpec
from probo.kernels import KernelSpec

import gate
from instrument import ProboInstrument
from tracer import Tracer
from workloads import (
    WORKLOADS,
    SpeedReference,
    check_loop_unit,
    check_protocol_unit,
    tree_digest,
    units_for,
)

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def warm_up() -> None:
    """Load the LAPACK and special-function code paths once."""
    X = np.linspace(0.0, 1.0, 5)[:, None]
    model = probo.gp.fit_gp(KernelSpec(family="squared-exponential", lengthscales=(0.5,)),
                            MeanSpec(), X, np.sin(X[:, 0]))
    mu, var = probo.gp.predict_batch(model, np.linspace(0.0, 1.0, 11)[:, None])
    ei_values(mu, var, 0.0)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_units(workload, count: int, seconds: float, out: Path,
              tracer: Tracer | None = None) -> tuple[list, float]:
    """Run at least `count` units, then more whole groups while another
    group is expected to end within `seconds` (seconds=0 runs exactly
    `count`).  With a tracer each unit is a client.unit span.  Returns
    (results, wall)."""
    out.mkdir(parents=True, exist_ok=True)
    results = []
    start = time.perf_counter()
    while True:
        with tracer.span("client.unit") if tracer else nullcontext():
            results.append(workload.unit(len(results), out))
        n, elapsed = len(results), time.perf_counter() - start
        if n >= count and n % workload.group == 0 and elapsed * (n + workload.group) / n > seconds:
            break
    return results, time.perf_counter() - start


def check_units(workload, results: list, out: Path) -> tuple[list, list, list, int]:
    """Check each unit's outputs.  Returns (errors, unit digests, finals,
    failed runs); files are written under out for the loop workloads."""
    errors, digests, finals, failed = [], [], [], 0
    for i, res in enumerate(results):
        unit_errors = list(res.errors)
        if res.out_dir is None:
            if not res.errors:
                unit_errors += check_loop_unit(i, res, out)
            finals_i = res.finals
        else:
            more, finals_i = check_protocol_unit(i, res, workload.runs_per_unit)
            unit_errors += more
        unit_dir = out / f"unit{i}"
        digests.append(tree_digest(unit_dir) if unit_dir.is_dir() else ("", 0, 0))
        finals.append(finals_i)
        if unit_errors:
            failed += res.planned_runs
        errors += unit_errors
    return errors, digests, finals, failed


def typical_seconds(results: list, scaled: bool) -> float:
    """Seconds the window's runs take when every run takes the median time
    of its shape (same target and settings), plus the median unit tail.
    Unlike the raw window length, a stall of a few seconds does not move it.
    With scaled, run times are at the reference speed."""
    shapes: dict[str, list] = {}
    for res in results:
        for run in res.runs:
            shapes.setdefault(run.key, []).append(
                run.seconds * run.speed if scaled else run.seconds)
    return (float(np.median([res.tail_s for res in results]))
            + sum(len(v) * float(np.median(v)) for v in shapes.values()))


E2E_UNITS = {"iter_ms.p50": "ms", "iter_ms.p90": "ms", "iters_per_s": "1/s",
             "runs_per_s": "1/s"}


def window_metrics(results: list, scaled: bool) -> dict[str, float]:
    intervals = [x * s if scaled else x for r in results for run in r.runs
                 for x, s in zip(run.intervals, run.interval_speeds)]
    seconds = typical_seconds(results, scaled)
    return {
        "iter_ms.p50": float(np.percentile(intervals, 50)) * 1e3,
        "iter_ms.p90": float(np.percentile(intervals, 90)) * 1e3,
        "iters_per_s": len(intervals) / seconds,
        "runs_per_s": sum(r.planned_runs for r in results) / seconds,
    }


def combined_digest(digests: list) -> str:
    return hashlib.sha256("".join(d[0] for d in digests).encode()).hexdigest()


@dataclass
class Measurement:
    metrics: dict      # name -> (value, unit)
    detail: dict
    errors: list
    failed_runs: int
    runs: int


def measure(workload, count: int, seconds: float, out: Path) -> Measurement:
    """Untraced window: end-to-end metrics over every unit, each run's
    durations scaled to the speed reference's nominal speed (raw values go
    to the detail record); final incumbents, exact counts and digests over the
    first `count` units only, so that they repeat exactly for a seed."""
    workload.reference = SpeedReference()
    results, wall = run_units(workload, count, seconds, out)
    errors, digests, finals, failed = check_units(workload, results, out)
    runs = sum(r.planned_runs for r in results)
    metrics = {k: (v, E2E_UNITS[k]) for k, v in window_metrics(results, True).items()}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    first, digests = results[:count], digests[:count]
    detail = {
        "units_run": len(results), "window_s": wall,
        "raw_metrics": window_metrics(results, False),
        "speed": SpeedReference.NOMINAL_S / float(np.mean(workload.reference.samples)),
        "reference_samples": len(workload.reference.samples),
        "runs": runs, "iter_samples": sum(len(run.intervals) for r in results for run in r.runs),
        "run_s": [[run.key, run.seconds, run.speed] for r in results for run in r.runs],
        "final_best_mean": float(np.mean([v for f in finals[:count] for v in f])),
        "exact_counts": {
            "runs": sum(r.planned_runs for r in first),
            "adaptive_iterations": sum(len(run.intervals) for r in first for run in r.runs),
            "clamped": sum(int(rec.clamped) for r in first for t in r.traces
                           for rec in t.records),
            "files": sum(d[1] for d in digests),
            "bytes": sum(d[2] for d in digests),
        },
        "digest": combined_digest(digests),
        "unit_digests": [d[0] for d in digests],
    }
    return Measurement(metrics, detail, errors, failed, runs)


def measure_traced(workload, count: int, out: Path, spans: Path | None) -> Measurement:
    """The same `count` units untraced and then traced: per-layer metrics,
    the tracing overhead, and a check that tracing changed no output."""
    ref, wall_ref = run_units(workload, count, 0, out / "ref")
    tracer = Tracer()
    instrument = ProboInstrument(tracer)
    instrument.install()
    workload.tracer, workload.instrument = tracer, instrument
    try:
        results, wall = run_units(workload, count, 0, out / "traced", tracer)
    finally:
        workload.tracer = workload.instrument = None
        instrument.uninstall()
    summary = tracer.summary()
    if spans is not None:
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_csv(spans)
    errors, digests, _, failed = check_units(workload, results, out / "traced")
    ref_errors, ref_digests, _, ref_failed = check_units(workload, ref, out / "ref")
    errors += ref_errors
    failed += ref_failed
    if combined_digest(ref_digests) != combined_digest(digests):
        errors.append("tracing changed the outputs")
        failed += sum(r.planned_runs for r in results)
    protocol = [d for d, r in zip(digests, results) if r.out_dir is not None]
    metrics = instrument.metrics(summary, sum(d[1] for d in protocol),
                                 sum(d[2] for d in protocol))
    accounted = sum(row[2] for row in summary.values())
    metrics.update({
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - wall_ref, "s"),
        "trace.unaccounted_s": (wall - accounted, "s"),
    })
    detail = {
        "untraced_wall_s": wall_ref, "spans": len(tracer.names),
        "absent": tracer.absent,
        "exact_counts": instrument.exact_counts(summary),
        "digest": combined_digest(digests),
        "unit_digests": [d[0] for d in digests],
    }
    return Measurement(metrics, detail, errors, failed,
                       2 * sum(r.planned_runs for r in results))


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--spans", type=Path)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    warm_up()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    count = units_for(args.workload, args.seconds, workload.group)
    if args.trace == 0:
        m = measure(workload, count, args.seconds, args.out / "run")
    else:
        m = measure_traced(workload, count, args.out, args.spans)

    gate_results = gate.run_gate(args.seed)
    errors = m.errors + [e for errs in gate_results.values() for e in errs]
    attempted = m.runs + len(gate_results)
    failed = m.failed_runs + sum(1 for errs in gate_results.values() if errs)
    detail = {"workload": args.workload, "seed": args.seed, "units_counted": count,
              "environment": environment(), **m.detail, "failed_frac": failed / attempted}
    print(json.dumps({
        "ready": ready,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.metrics.items()},
        "detail": detail,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
