import csv
import json
from dataclasses import replace

import numpy as np
import pytest

import probo.cli
from probo.cli import main

FAST = [
    "--override", "infill.evals_per_round=150",
    "--override", "infill.rounds=3",
    "--override", "infill.restarts=2",
]


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# --------------------------------------------------------------------- run

def test_run_is_byte_identical_across_invocations(tmp_path):
    args = ["run", "--override", "target=sphere-1d", "--override", "budget=12",
            "--override", "n_init=6", *FAST, "--seed", "7"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "trace.csv").read_bytes()
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert a == b


def test_run_override_recorded_in_snapshot(tmp_path):
    args = ["run", "--override", "target=sphere-1d", "--override", "budget=11",
            "--override", "n_init=6", *FAST,
            "--override", "acquisition=glcb:tau=1,rho=1,c=100",
            "--seed", "1", "--out", str(tmp_path / "g")]
    assert main(args) == 0
    snapshot = json.loads((tmp_path / "g" / "config.json").read_text())
    assert snapshot["acquisition"] == {
        "kind": "glcb", "tau": 1.0, "rho": 1.0, "c": 100.0}
    rows = read_csv(tmp_path / "g" / "trace.csv")
    assert len(rows) == 11
    assert rows[-1]["igp_case"] in ("1", "2")


def test_run_missing_config_leaves_no_output(tmp_path):
    out = tmp_path / "never"
    code = main(["run", "--config", str(tmp_path / "missing.json"),
                 "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_run_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "target": "sphere-1d", "budget": 10, "n_init": 5, "seed": 3,
        "acquisition": "lcb:tau=1",
        "infill": {"evals_per_round": 100, "rounds": 2, "restarts": 2},
    }))
    out = tmp_path / "r"
    assert main(["run", "--config", str(cfg), "--override", "budget=12",
                 "--out", str(out)]) == 0
    snapshot = json.loads((out / "config.json").read_text())
    assert snapshot["budget"] == 12
    assert snapshot["seed"] == 3


def test_run_prints_best_value_as_a_plain_float(tmp_path, capsys):
    # budget == n_init: the incumbent comes from the initial design
    assert main(["run", "--override", "target=sphere-1d", "--override", "budget=10",
                 "--out", str(tmp_path / "v")]) == 0
    lines = capsys.readouterr().out.splitlines()
    value = next(line for line in lines if line.startswith("value:"))
    assert float(value.split(":", 1)[1]) >= 0.0


@pytest.fixture
def evaluated(monkeypatch):
    """The points at which the CLI evaluates registry targets."""
    points = []
    lookup = probo.cli.registry_lookup

    def counting_lookup(name):
        target = lookup(name)
        return replace(target, evaluate=lambda x: points.append(x) or target.evaluate(x))

    monkeypatch.setattr(probo.cli, "registry_lookup", counting_lookup)
    return points


QUICK = {
    "run": ["run", "--override", "target=sphere-1d", "--override", "budget=6",
            "--override", "n_init=5", *FAST],
    "compare": ["compare", "--functions", "sphere-1d", "--acq", "ei", "--acq", "lcb:tau=1",
                "--override", "reps=1", "--override", "budget=6", "--override", "n_init=5",
                *FAST, "--jobs", "1"],
    "sensitivity": ["sensitivity", "--functions", "sphere-1d", "--override", "reps=1",
                    "--override", "iterations=1", "--override", "n_init=4", *FAST,
                    "--jobs", "1"],
}


@pytest.mark.parametrize("command", sorted(QUICK))
@pytest.mark.parametrize("key", ["kernel.bogus", "mean.bogus", "infill.bogus"])
def test_unknown_nested_key_rejected(tmp_path, capsys, command, key):
    out = tmp_path / "x"
    assert main(QUICK[command] + ["--override", f"{key}=1", "--out", str(out)]) == 1
    section = key.split(".")[0]
    # sensitivity takes no kernel or mean settings, so the section is the unknown key
    named = section if command == "sensitivity" and section != "infill" else "bogus"
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(QUICK))
@pytest.mark.parametrize("seed", ["-1", str(2**63)])
def test_seed_out_of_range_is_a_config_error(tmp_path, capsys, evaluated, command, seed):
    out = tmp_path / "x"
    assert main(QUICK[command] + ["--seed", seed, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert any(line.startswith("error:") and "seed must lie in" in line
               for line in err.splitlines())
    assert evaluated == []
    assert not out.exists()


@pytest.mark.parametrize("override, named", [
    ('target={"function": "sphere-1d", "bogus": 1}', "bogus"),
    ('target={"function": "sphere-1d", "csv": "x.csv"}', "csv"),
    ('target={"csv": "x.csv", "bogus": 1}', "bogus"),
    ("n_init=abc", "n_init"),
    ("n_init=2.5", "n_init"),
    ("budget=abc", "budget"),
    ("hyperparameter_budget=1.5", "hyperparameter_budget"),
    ("acquisition=lcb:tau=1,rho=5,c=3", "rho"),
    ('acquisition={"kind": "ei", "tau": 7}', "tau"),
    ('acquisition={"kind": "lcb", "tau": "x"}', "tau"),
    ('acquisition={"kind": "glcb", "c": true}', "c"),
    ('acquisition={"kind": "glcb", "rho": NaN}', "rho"),
    ('infill={"shrink_factor": "0.5"}', "shrink_factor"),
    ('infill.rounds="3"', "rounds"),
    ("infill.restarts=2.0", "restarts"),
    ("kernel.lengthscales=[[1,2]]", "lengthscales"),
    ("kernel.lengthscales=[Infinity]", "lengthscales"),
    ("kernel.lengthscale=1e-310", "lengthscales"),
    ("kernel.lengthscale=1e-308", "lengthscales (1e-308,) scale its bound 5.12"),
    ("kernel.signal_variance=true", "signal_variance"),
    ('kernel={"family": "power-exponential", "power": true}', "power"),
    ('mean={"form": "constant-fixed", "coefficients": 5}', "coefficients"),
    ('mean={"form": "constant-fixed", "coefficients": [true]}', "coefficients"),
    ('mean={"form": "constant-fixed", "coefficients": [NaN]}', "coefficients"),
    ("acquisition=glcb:tau=1,rho=1,c=inf", "c"),
    ("acquisition=glcb:tau=1,rho=inf,c=1", "rho"),
    ("acquisition=lcb:tau=inf", "tau"),
    ('hyperparameter_fit="no"', "hyperparameter_fit"),
    ("hyperparameter_fit=1", "hyperparameter_fit"),
    ("hyperparameter_budget=0", "hyperparameter_budget"),
    ('target={"csv": "x.csv", "negate": "no"}', "negate"),
])
def test_bad_run_input_is_a_config_error(tmp_path, capsys, evaluated, override, named):
    out = tmp_path / "x"
    args = QUICK["run"] + ["--override", override, "--out", str(out)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert any(line.startswith("error:") and named in line for line in err.splitlines())
    assert evaluated == []
    assert not out.exists()


def test_tabulated_domain_whose_span_overflows_is_a_config_error(tmp_path, capsys):
    table = tmp_path / "wide.csv"
    table.write_text("-1e308,1\n0,0\n1e308,2\n")
    out = tmp_path / "x"
    args = ["run", "--override", f'target={{"csv": "{table}"}}', *FAST, "--out", str(out)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and "outside the tabulated domain" not in err
    assert any(line.startswith("error:") and "span overflows" in line
               and "[-1.e+308] / [1.e+308]" in line for line in err.splitlines())
    assert not out.exists()


@pytest.mark.parametrize("command, args, named", [
    ("sensitivity", ["--override", "reps=1.5"], "reps"),
    ("compare", ["--override", "reps=1.5"], "reps"),
    ("compare", ["--override", "reps=0"], "reps"),
    ("sensitivity", ["--override", "iterations=2.5"], "iterations"),
    ("sensitivity", ["--override", "n_init=abc"], "n_init"),
    ("compare", ["--override", "budget=true"], "budget"),
    ("compare", ["--override", "seed=2.7"], "seed"),
    ("sensitivity", ["--override", "seed=2.7"], "seed"),
    ("compare", ["--jobs", "0"], "jobs"),
    ("sensitivity", ["--jobs", "-2"], "jobs"),
    ("compare", ["--acq", "ei:rho=2"], "rho"),
    ("sensitivity", ["--override", "acquisition=ei:rho=1"], "rho"),
    ("compare", ["--override", 'infill.rounds="3"'], "rounds"),
    ("compare", ["--override", 'infill={"shrink_factor": "0.5"}'], "shrink_factor"),
    ("sensitivity", ["--override", 'infill.evals_per_round=true'], "evals_per_round"),
    ("sensitivity", ["--override", 'acquisition={"kind": "lcb", "tau": "x"}'], "tau"),
    ("compare", ["--override", 'functions="sphere-1d"'], "functions"),
    ("sensitivity", ["--override", 'functions="sphere-1d"'], "functions"),
    ("compare", ["--override", 'acquisitions="ei"'], "acquisitions"),
    ("compare", ["--functions", "sphere-1d"], "distinct"),
    ("sensitivity", ["--functions", "sphere-1d"], "distinct"),
    ("compare", ["--override", "kernel.lengthscale=1e-308"],
     "lengthscales (1e-308,) scale its bound 5.12"),
])
def test_bad_protocol_input_is_a_config_error(tmp_path, capsys, command, args, named):
    out = tmp_path / "x"
    assert main(QUICK[command] + args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert any(line.startswith("error:") and named in line for line in err.splitlines())
    assert not out.exists()


def test_mean_that_does_not_fit_the_target_fails_before_the_design(
        tmp_path, capsys, evaluated):
    out = tmp_path / "x"
    code = main(["run", "--override", "target=sphere-2d",
                 "--override", 'mean={"form": "linear-fixed", "coefficients": [0, 1]}',
                 "--out", str(out)])
    assert code == 1
    assert evaluated == []
    err = capsys.readouterr().err
    assert any(line.startswith("error:") and "sphere-2d" in line and "coefficients" in line
               for line in err.splitlines())
    assert not out.exists()


def test_unknown_override_key_rejected(tmp_path):
    code = main(["run", "--override", "target=sphere-1d",
                 "--override", "wat=1", "--out", str(tmp_path / "x")])
    assert code == 1


def test_runtime_failure_exits_two(tmp_path, capsys, monkeypatch):
    # the target turns NaN after the 3-point design, so the run fails mid-loop
    lookup = probo.cli.registry_lookup
    evaluated = []

    def nan_after_design(name):
        target = lookup(name)

        def evaluate(x):
            evaluated.append(x)
            return target.evaluate(x) if len(evaluated) <= 3 else np.nan
        return replace(target, evaluate=evaluate)

    monkeypatch.setattr(probo.cli, "registry_lookup", nan_after_design)
    code = main(["run", "--override", "target=sphere-1d",
                 "--override", "budget=6", "--override", "n_init=3",
                 *FAST, "--out", str(tmp_path / "y")])
    assert code == 2
    assert "evaluation 4: target value nan is not finite" in capsys.readouterr().err
    assert len(evaluated) == 4
    # the evaluations made before the failure are kept, the bad one included
    rows = read_csv(tmp_path / "y" / "trace.csv")
    assert len(rows) == 4
    assert rows[-1]["psi"] == "nan"
    assert (tmp_path / "y" / "config.json").is_file()


@pytest.mark.parametrize("command", ["compare", "sensitivity"])
def test_protocol_with_no_complete_group_exits_two(tmp_path, capsys, monkeypatch, command):
    lookup = probo.bench.registry_lookup
    monkeypatch.setattr(probo.bench, "registry_lookup",
                        lambda name: replace(lookup(name), evaluate=lambda x: np.nan))
    out = tmp_path / "x"
    with pytest.warns(UserWarning, match="runs failed for"):
        assert main(QUICK[command] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error:") and "every group has a failed run" in line
               for line in err.splitlines())
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(QUICK))
def test_config_snapshot_reruns_its_command(tmp_path, command):
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(QUICK[command] + ["--seed", "2", "--out", str(first)]) == 0
    jobs = [] if command == "run" else ["--jobs", "1"]
    assert main([command, "--config", str(first / "config.json"), *jobs,
                 "--out", str(again)]) == 0
    assert tree_bytes(again) == tree_bytes(first)


@pytest.mark.parametrize("command, config", [
    ("compare", {"functions": "sphere-1d", "acquisitions": ["ei", "lcb"]}),
    ("compare", {"functions": ["sphere-1d"], "acquisitions": "ei"}),
    ("sensitivity", {"functions": "sphere-1d"}),
])
def test_a_string_for_a_list_is_a_config_error(tmp_path, capsys, evaluated, command, config):
    # a bare string would otherwise be read as a list of its characters
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "x"
    assert main([command, "--config", str(cfg), "--jobs", "1", "--out", str(out)]) == 1
    named = "acquisitions" if config["functions"] == ["sphere-1d"] else "functions"
    assert f"error: {named} must be a list" in capsys.readouterr().err
    assert evaluated == []
    assert not out.exists()


# ----------------------------------------------------------------- compare

def test_compare_reduction_and_schema(tmp_path):
    out = tmp_path / "cmp"
    code = main(["compare", "--functions", "sphere-1d",
                 "--acq", "lcb:tau=1", "--acq", "glcb:tau=1,rho=0,c=100",
                 "--override", "reps=2", "--override", "budget=9",
                 "--override", "n_init=5", *FAST,
                 "--seed", "4", "--jobs", "1", "--out", str(out)])
    assert code == 0
    rows = read_csv(out / "comparison.csv")
    assert len(rows) == 4  # budget - n_init iterations
    assert list(rows[0]) == ["function", "iteration",
                             "mop_lcb_tau1", "ci_lcb_tau1",
                             "mop_glcb_tau1_rho0_c100", "ci_glcb_tau1_rho0_c100"]
    for row in rows:
        assert row["mop_lcb_tau1"] == row["mop_glcb_tau1_rho0_c100"]
    # per-repetition traces and the per-function MOP are written too
    assert (out / "sphere-1d" / "mop.csv").is_file()
    assert (out / "traces" / "sphere-1d" / "lcb_tau1" / "rep0.csv").is_file()


def test_compare_accepts_paper_shorthand(tmp_path):
    out = tmp_path / "sh"
    code = main(["compare", "--functions", "sphere-1d",
                 "--acq", "lcb:tau=1", "--acq", "glcb-1-100",
                 "--override", "reps=2", "--override", "budget=8",
                 "--override", "n_init=5", *FAST, "--seed", "2",
                 "--jobs", "1", "--out", str(out)])
    assert code == 0
    snapshot = json.loads((out / "config.json").read_text())
    assert {"kind": "glcb", "tau": 1.0, "rho": 1.0, "c": 100.0} in snapshot["acquisitions"]


def test_acq_replaces_the_configured_acquisitions(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"acquisitions": ["lcb:tau=1"]}))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(cfg), "--functions", "sphere-1d",
                 "--acq", "ei", "--acq", "glcb-1-100",
                 "--override", "reps=1", "--override", "budget=6", "--override", "n_init=5",
                 *FAST, "--jobs", "1", "--out", str(out)]) == 0
    snapshot = json.loads((out / "config.json").read_text())
    assert [a["kind"] for a in snapshot["acquisitions"]] == ["ei", "glcb"]


def test_compare_honours_kernel_lengthscales(tmp_path):
    base = ["compare", "--functions", "gramacy-lee", "--acq", "lcb:tau=1", "--acq", "ei",
            "--override", "reps=2", "--override", "budget=8", "--override", "n_init=5",
            *FAST, "--seed", "3", "--jobs", "1"]
    outputs = {}
    for name, extra in (("default", []),
                        ("alias", ["--override", "kernel.lengthscale=0.1"]),
                        ("plural", ["--override", "kernel.lengthscales=0.1"])):
        assert main(base + extra + ["--out", str(tmp_path / name)]) == 0
        outputs[name] = (tmp_path / name / "comparison.csv").read_bytes()
    assert outputs["plural"] == outputs["alias"]
    assert outputs["plural"] != outputs["default"]
    snapshot = json.loads((tmp_path / "plural" / "config.json").read_text())
    # the kernel is recorded as given, before its broadcast to each function
    assert snapshot["kernel"]["lengthscales"] == [0.1]


def test_an_integer_parameter_is_recorded_as_a_float(tmp_path):
    base = ["compare", "--functions", "sphere-1d",
            "--override", "reps=1", "--override", "budget=6", "--override", "n_init=5",
            *FAST, "--jobs", "1"]
    assert main(base + ["--override", 'acquisitions=["ei", "lcb:tau=2"]',
                        "--out", str(tmp_path / "text")]) == 0
    assert main(base + ["--override", 'acquisitions=["ei", {"kind": "lcb", "tau": 2}]',
                        "--out", str(tmp_path / "mapping")]) == 0
    assert tree_bytes(tmp_path / "mapping") == tree_bytes(tmp_path / "text")
    snapshot = json.loads((tmp_path / "text" / "config.json").read_text())
    assert snapshot["acquisitions"][1] == {"kind": "lcb", "tau": 2.0}


def test_compare_rejects_a_function_the_config_does_not_fit(tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["compare", "--functions", "sphere-1d", "--functions", "sphere-2d",
                 "--acq", "ei", "--acq", "lcb", "--override", "kernel.lengthscales=[0.5,0.5]",
                 "--override", "reps=1", "--override", "budget=6", "--override", "n_init=5",
                 *FAST, "--jobs", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert any(line.startswith("error:") and "sphere-1d" in line for line in err.splitlines())
    assert not out.exists()


def test_compare_needs_two_acquisitions(tmp_path):
    code = main(["compare", "--functions", "sphere-1d", "--acq", "ei",
                 "--out", str(tmp_path / "no")])
    assert code == 1


def test_compare_unknown_function_is_config_error(tmp_path):
    code = main(["compare", "--functions", "not-a-function",
                 "--acq", "ei", "--acq", "lcb:tau=1",
                 "--out", str(tmp_path / "no")])
    assert code == 1


# ------------------------------------------------------------- sensitivity

def test_sensitivity_emits_summary_tables(tmp_path):
    out = tmp_path / "sens"
    code = main(["sensitivity", "--functions", "sphere-1d",
                 "--override", "reps=2", "--override", "iterations=3",
                 "--override", "n_init=4", *FAST,
                 "--seed", "6", "--jobs", "1", "--out", str(out)])
    assert code == 0
    summary = read_csv(out / "ad_summary.csv")
    axes = {row["axis"] for row in summary}
    assert axes == {"mean-functional-form", "mean-parameters",
                    "kernel-functional-form", "kernel-parameters"}
    sums = read_csv(out / "relative_ad_sums.csv")
    assert len(sums) == 4
    for row in sums:
        assert np.isfinite(float(row["sum_relative_ad"]))
    assert (out / "sphere-1d" / "kernel-parameters" / "mop.csv").is_file()


def test_sensitivity_snapshot_records_infill(tmp_path):
    out = tmp_path / "sens"
    assert main(QUICK["sensitivity"] + ["--out", str(out)]) == 0
    snapshot = json.loads((out / "config.json").read_text())
    assert snapshot["infill"]["rounds"] == 3
    assert snapshot["infill"]["evals_per_round"] == 150


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_protocol_output_does_not_depend_on_jobs(tmp_path):
    tiny = ["--override", "infill.evals_per_round=20", "--override", "infill.rounds=2",
            "--override", "infill.restarts=1", "--seed", "5"]
    commands = {
        "sensitivity": ["sensitivity", "--functions", "sphere-2d", "--override", "reps=2",
                        "--override", "iterations=2", "--override", "n_init=4", *tiny],
        "compare": ["compare", "--functions", "sphere-2d", "--acq", "ei",
                    "--acq", "glcb-1-100", "--override", "reps=2", "--override", "budget=6",
                    "--override", "n_init=4", *tiny],
    }
    for name, args in commands.items():
        trees = []
        for jobs in ("1", "2"):
            out = tmp_path / f"{name}{jobs}"
            assert main(args + ["--jobs", jobs, "--out", str(out)]) == 0
            trees.append(tree_bytes(out))
        assert len(trees[0]) > 2
        assert trees[0] == trees[1]


# ------------------------------------------------------- functions/inspect

def test_functions_lists_registry(capsys):
    assert main(["functions"]) == 0
    out = capsys.readouterr().out
    assert "sphere-1d" in out
    assert "gramacy-lee" in out
    assert "dim=7" in out


def test_inspect_reports_rows_and_range(tmp_path, capsys):
    rows = 210
    xs = np.linspace(0.0, 10.0, rows)
    ys = 0.1 + 5.4 * (np.sin(xs) + 1) / 2
    csv_path = tmp_path / "material.csv"
    csv_path.write_text("x,y\n" + "\n".join(f"{float(x)!r},{float(y)!r}"
                                            for x, y in zip(xs, ys)))
    assert main(["inspect", "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "rows:    210" in out
    assert "0.1" in out
    fields = dict(line.split(":", 1) for line in out.splitlines())
    domain = [float(v) for v in fields["domain"].strip(" []").split(",")]
    y_range = [float(v) for v in fields["y range"].strip(" []").split(",")]
    assert domain == [0.0, 10.0]
    assert y_range == [float(ys.min()), float(ys.max())]


def test_inspect_rejects_a_non_finite_x(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n0,1\ninf,2\n")
    assert main(["inspect", "--csv", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}:3: non-finite x" in err


def test_inspect_malformed_csv_fails(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n3,oops\n")
    assert main(["inspect", "--csv", str(bad)]) != 0


def test_usage_error_exits_one():
    assert main(["frobnicate"]) == 1
    assert main(["inspect"]) == 1  # --csv required


def test_run_takes_no_jobs_option(tmp_path, capsys, evaluated):
    # worker processes serve only the protocols; a single run rejects --jobs
    out = tmp_path / "x"
    assert main(QUICK["run"] + ["--jobs", "2", "--out", str(out)]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert evaluated == []
    assert not out.exists()
