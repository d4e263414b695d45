"""Alternating benchmark pairs of two checkouts, summed up per end-to-end metric.

    python3 tools/ab_pairs.py PARENT CHANGE --workload W --seed S --pairs N

PARENT and CHANGE are two checkouts of this repository.  Each pair runs
`perfbench/run.py --workload W --seed S --seconds SECONDS --trace 0` once in
each checkout, SECONDS being BENCHMARK.json's run_seconds; the even pairs
run the parent first and the odd pairs the change first, so that a drift
of the machine's speed falls on both sides alike.  Each run's last two
lines, the detail record and the result, go to standard error as they
arrive.

The summary on standard output gives, for every end-to-end metric in
BENCHMARK.json, each side's median and quartiles, the medians' difference
as a share of the parent's (positive where the change is better), the pairs
that the change won and lost (ties count for neither side), and two
verdicts:
- gain: the change won at least nine tenths of the pairs, and its median is
  better than the parent's by more than the distance between the parent's
  quartiles;
- within bound: the change's median is no worse than the parent's by more
  than the metric's bound, a fraction of the parent's median;
- unresolved: the parent's quartiles lie further apart than that bound, so
  its runs spread too widely to tell, unless every run of the change reads
  better than every run of the parent.
It also gives each side's attempted and failed operations and its range of
units_run (a window's peak_rss_mb grows with the units it completes), and
whether each pair's output digests agree.  The script changes nothing
under perfbench/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent_runs: list[list[str]], change_runs: list[list[str]],
              end_to_end: list[dict]) -> dict:
    """Per-metric summary of paired runs, each the last two stdout lines of
    perfbench/run.py, the detail record and the result: parent_runs[i] and
    change_runs[i] are pair i.

    end_to_end is BENCHMARK.json's list of {"name", "unit", "better",
    "bound"}.  A metric that a run does not report is left out of that
    pair."""
    if len(parent_runs) != len(change_runs):
        raise ValueError(f"{len(parent_runs)} parent results but {len(change_runs)} "
                         "change results")
    parent = [json.loads(run[-1]) for run in parent_runs]
    change = [json.loads(run[-1]) for run in change_runs]
    details = {side: [json.loads(run[-2])["detail"] for run in runs]
               for side, runs in (("parent", parent_runs), ("change", change_runs))}
    summary = {"pairs": len(parent), "metrics": {},
               "digests_agree": [p["digest"] == c["digest"]
                                 for p, c in zip(details["parent"], details["change"])]}
    for side, results in (("parent", parent), ("change", change)):
        units = [d["units_run"] for d in details[side]]
        summary[side] = {"attempted": sum(r["attempted"] for r in results),
                         "failed": sum(r["failed"] for r in results),
                         "units_run": (min(units), max(units))}
    for metric in end_to_end:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(parent, change)
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        p_q = quartiles([p for p, _ in pairs])
        c_q = quartiles([c for _, c in pairs])
        wins = sum(sign * (c - p) > 0 for p, c in pairs)
        losses = sum(sign * (c - p) < 0 for p, c in pairs)
        gain = sign * (c_q[1] - p_q[1])
        bound = metric["bound"] * abs(p_q[1])
        apart = min(sign * c for _, c in pairs) > max(sign * p for p, _ in pairs)
        summary["metrics"][name] = {
            "unit": metric["unit"], "better": metric["better"], "pairs": len(pairs),
            "parent": p_q, "change": c_q, "wins": wins, "losses": losses,
            "relative": gain / abs(p_q[1]) if p_q[1] else 0.0,
            "gain": wins >= 0.9 * len(pairs) and gain > p_q[2] - p_q[0],
            "within_bound": -gain <= bound,
            "unresolved": p_q[2] - p_q[0] > bound and not apart,
        }
    return summary


def format_summary(summary: dict) -> str:
    agree = summary["digests_agree"]
    differ = [i for i, same in enumerate(agree) if not same]
    lines = [f"{summary['pairs']} pairs; operations attempted/failed: parent "
             f"{summary['parent']['attempted']}/{summary['parent']['failed']}, change "
             f"{summary['change']['attempted']}/{summary['change']['failed']}",
             "units_run: parent {}-{}, change {}-{}".format(
                 *summary["parent"]["units_run"], *summary["change"]["units_run"]),
             f"digests agree in {len(agree) - len(differ)} of {len(agree)} pairs"
             + (f"; they DIFFER in pairs {differ}" if differ else "")]
    for name, m in summary["metrics"].items():
        p, c = m["parent"], m["change"]
        lines.append(
            f"{name} ({m['unit']}, {m['better']} is better): parent {p[1]:.4g} "
            f"[{p[0]:.4g}, {p[2]:.4g}], change {c[1]:.4g} [{c[0]:.4g}, {c[2]:.4g}], "
            f"{m['relative']:+.2%}; change won {m['wins']} and lost {m['losses']} of "
            f"{m['pairs']}; gain {'yes' if m['gain'] else 'no'}, within bound "
            f"{'yes' if m['within_bound'] else 'NO'}"
            + ("; unresolved: the parent's quartiles spread past the bound"
               if m["unresolved"] else ""))
    return "\n".join(lines)


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> list[str]:
    """The detail and result lines of one untraced benchmark run in this
    checkout."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"benchmark in {checkout} printed no result "
                           f"(exit {proc.returncode})")
    return lines[-2:]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            lines = run_once(sides[side], args.workload, args.seed, bench["run_seconds"])
            results[side].append(lines)
            for line in lines:
                print(f"pair {i} {side}: {line}", file=sys.stderr, flush=True)
    summary = summarize(results["parent"], results["change"], bench["end_to_end"])
    print(f"{args.workload}, seed {args.seed}")
    print(format_summary(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
