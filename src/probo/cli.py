"""Command-line entry point.

Subcommands:

    run          one optimization run, trace CSV plus config snapshot
    compare      paired acquisition-function comparison, comparison.csv
    sensitivity  four-axis prior sensitivity experiment, AD summary CSVs
    functions    list the built-in test functions
    inspect      report on a tabulated CSV target

Configuration comes from JSON files merged with --override key=value pairs
(dotted keys reach into nested objects); unknown keys are rejected.  The
config.json a command writes is a --config that reruns it.  Exit codes:
0 success, 1 usage or configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .bench import (
    CompareConfig,
    SensitivityConfig,
    run_acquisition_comparison,
    run_sensitivity_experiment,
    write_ad_summary_csv,
    write_comparison_csv,
    write_mop_csv,
    write_relative_ad_sums_csv,
    write_traces,
)
from .engine import BoRunError, RunConfig, TargetFunction, run, save_trace_csv, _write_json
from .errors import ConfigError, ProboError, check_keys, check_list
from .functions import load_tabulated_target, registry_lookup, registry_names, _read_utf8

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


# ------------------------------------------------------------- config I/O

def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(_read_utf8(p, ConfigError))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _apply_overrides(config: dict, overrides: list[str]) -> dict:
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {key!r} descends into a non-object")
        node[parts[-1]] = value
    return config


def _target_from_config(spec) -> TargetFunction:
    if isinstance(spec, str):
        return registry_lookup(spec)
    if isinstance(spec, dict) and "function" in spec:
        check_keys(spec, ("function",), "target")
        return registry_lookup(spec["function"])
    if isinstance(spec, dict) and "csv" in spec:
        check_keys(spec, ("csv", "negate"), "target")
        return load_tabulated_target(spec["csv"], negate=spec.get("negate", False))
    raise ConfigError(
        "target must be a registry name, {\"function\": name}, or "
        "{\"csv\": path, \"negate\": bool}"
    )


def _settings(args, **given) -> dict:
    """The config mapping of the file and overrides, with --seed and the
    lists given on the command line (functions, acquisitions) folded in; a
    list given there replaces the configured one, which is still checked."""
    config = _apply_overrides(_load_config(args.config), args.override)
    for key, value in given.items():
        if value is not None:
            check_list(key, config.get(key, ()))
            config[key] = value
    if args.seed is not None:
        config["seed"] = args.seed
    return config


# ------------------------------------------------------------ subcommands

def cmd_run(args) -> int:
    settings = _settings(args)
    if "target" not in settings:
        raise ConfigError("run needs a target (config key \"target\")")
    given_target = settings.pop("target")
    target = _target_from_config(given_target)
    run_config = RunConfig.from_dict(settings)
    out = Path(args.out)

    def save(trace):
        save_trace_csv(trace, out / "trace.csv")
        _write_json(out / "config.json", {"target": given_target, **trace.config.to_dict()})

    try:
        trace = run(run_config, target)
    except BoRunError as exc:
        save(exc.partial_trace)  # the records up to the failure, the bad one included
        raise
    save(trace)

    best = trace.best_point()
    print(f"argmin: {np.array2string(best, separator=', ')}")
    print(f"value:  {trace.best_value()!r}")
    print(f"trace:  {out / 'trace.csv'}")
    return EXIT_OK


def cmd_compare(args) -> int:
    config = CompareConfig.from_dict(_settings(args, functions=args.functions,
                                               acquisitions=args.acq))
    result = run_acquisition_comparison(config, jobs=args.jobs)

    out = Path(args.out)
    write_comparison_csv(result, out / "comparison.csv")
    for fname, mop in result.mops.items():
        write_mop_csv(mop, out / fname / "mop.csv")
    write_traces(result.traces, out / "traces")
    _write_json(out / "config.json", config.to_dict())
    for fname, mop in result.mops.items():
        finals = ", ".join(f"{lab}={float(val)!r}" for lab, val in
                           zip(mop.labels, mop.values[-1]))
        print(f"{fname}: final MOP {finals}")
    print(f"wrote {out / 'comparison.csv'}")
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    config = SensitivityConfig.from_dict(_settings(args, functions=args.functions))
    result = run_sensitivity_experiment(config.plans(), master_seed=config.seed, jobs=args.jobs)

    out = Path(args.out)
    write_ad_summary_csv(result, out / "ad_summary.csv")
    write_relative_ad_sums_csv(result, out / "relative_ad_sums.csv")
    for (fname, axis), mop in result.mops.items():
        write_mop_csv(mop, out / fname / axis / "mop.csv")
    write_traces(result.traces, out / "traces")
    _write_json(out / "config.json", config.to_dict())

    print("sum of relative ADs per prior component:")
    for axis, total in result.axis_sums.items():
        print(f"  {axis}: {total:.4f}")
    if result.excluded:
        print(f"excluded from sums: {', '.join(result.excluded)}")
    print(f"wrote {out / 'ad_summary.csv'}")
    return EXIT_OK


def cmd_functions(args) -> int:
    for name in registry_names():
        tf = registry_lookup(name)
        lo, hi = tf.bounds.lower, tf.bounds.upper
        opt = "n/a" if tf.known_optimum is None else f"{tf.known_optimum:g}"
        print(f"{name:15s} dim={tf.dimension}  bounds=[{lo[0]:g}, {hi[0]:g}]"
              f"  optimum={opt}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    target = load_tabulated_target(args.csv, negate=args.negate)
    xs = target.evaluate.xs
    ys = target.evaluate.ys
    print(f"rows:    {xs.size}")
    print(f"domain:  [{float(xs[0])!r}, {float(xs[-1])!r}]")
    print(f"y range: [{float(ys.min())!r}, {float(ys.max())!r}]")
    print(f"negated: {target.evaluate.negate}")
    return EXIT_OK


# ------------------------------------------------------------- arg parser

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="probo",
                     description="Bayesian optimization with prior-mean-robust "
                                 "acquisition and a benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, protocol):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="config override, dotted keys allowed (repeatable)")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        if protocol:
            # the cores this process may run on, where the platform says
            cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)
            p.add_argument("--jobs", type=int, default=cores,
                           help="worker processes (default: available cores)")
        p.add_argument("--out", default="probo-out", help="output directory")

    p_run = sub.add_parser("run", help="one optimization run")
    common(p_run, protocol=False)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="paired acquisition comparison")
    common(p_cmp, protocol=True)
    p_cmp.add_argument("--acq", action="append", metavar="SPEC",
                       help="acquisition, e.g. ei, lcb:tau=1, "
                            "glcb:tau=1,rho=1,c=100, glcb-1-100 (repeatable)")
    p_cmp.add_argument("--functions", action="append", metavar="NAME",
                       help="registry function (repeatable)")
    p_cmp.set_defaults(func=cmd_compare)

    p_sen = sub.add_parser("sensitivity", help="prior sensitivity experiment")
    common(p_sen, protocol=True)
    p_sen.add_argument("--functions", action="append", metavar="NAME",
                       help="registry function (repeatable)")
    p_sen.set_defaults(func=cmd_sensitivity)

    p_fun = sub.add_parser("functions", help="list built-in test functions")
    p_fun.set_defaults(func=cmd_functions)

    p_ins = sub.add_parser("inspect", help="inspect a tabulated CSV target")
    p_ins.add_argument("--csv", required=True, help="CSV file with x,y columns")
    p_ins.add_argument("--negate", action="store_true",
                       help="treat the target as to-be-maximized")
    p_ins.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if hasattr(args, "out"):  # a file in the way would fail only after the job
            out = Path(args.out)
            blocker = next(p for p in (out, *out.parents) if p.exists())
            if not blocker.is_dir():
                raise ConfigError(f"--out {args.out}: {blocker} exists and is not a directory")
            # files of an earlier run would sit beside this one's, unnamed by its config
            if blocker == out and any(out.iterdir()):
                raise ConfigError(f"--out {args.out} is not empty; name a new or empty directory")
        return args.func(args)
    except ValueError as exc:  # a ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ProboError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
