"""probo benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload glcb-gramacy --seed 0 --seconds 20 --trace 0

Run from anywhere; the repository root is this file's parent directory.
Workloads, metrics and their bounds are listed in BENCHMARK.json, and which
end-to-end metric each per-layer metric should move in perfbench/layers.json.

Steps: byte-compile src/probo and this directory (the build), time set-up
in five set-up-only client processes, then run the workload in one more
client process, which also checks the outputs and runs the correctness gate
after the timed region.  Clients get OPENBLAS/OMP/MKL thread counts of 1 in their own
environment; nothing machine-wide is changed.  Scratch output goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and is removed
at the end, except the span file of a traced run.

Durations in the end-to-end metrics are scaled to the nominal speed of a
fixed numpy reference timed after every target evaluation
(workloads.SpeedReference): on a shared 2-core x86 virtual machine the
speed drifts by 20-30% within minutes, and the scaled figures vary far less.  The raw values are in the
detail record.  setup_s, the median of six interpreter-start-to-ready
times, is not scaled: import time does not follow the reference.

The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; the line before it is a
detail record with the environment, exact counts, output digests,
final_best_mean, failed_frac and every error.  The exit code is 0 only if
every run and check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("glcb-gramacy", "hyperfit-rosenbrock", "sensitivity-protocol")
SETUP_PROBES = 5
DEADLINE_S = 170.0
THREAD_PIN = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                               "NUMEXPR_NUM_THREADS")}


def git_head(root: Path) -> str | None:
    """Commit of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def client_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PIN)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_client(args, extra: list[str], timeout: float) -> tuple[float, dict]:
    """Run one client; returns (monotonic start, its JSON result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=client_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"client exited with {proc.returncode}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "probo" / "__init__.py").is_file():
        print(f"error: no probo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    build = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    work = build / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "probo"),
                    str(HERE)], check=True, timeout=120, stdout=subprocess.DEVNULL)
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            t0, res = start_client(args, ["--setup-only", "--out", str(work)], 60)
            setups.append(res["ready"] - t0)
        spans = build / "spans" / f"{args.workload}-seed{args.seed}.csv"
        remaining = DEADLINE_S - (time.monotonic() - started)
        t0, res = start_client(args, ["--out", str(work), "--spans", str(spans)], remaining)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(res["ready"] - t0)

    metrics = res["metrics"]
    if args.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    detail = dict(res["detail"], setup_samples_s=setups, errors=res["errors"],
                  git_head=git_head(ROOT))
    correct = res["failed"] == 0
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    for err in res["errors"]:
        print(f"error: {err}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
