"""probo's layer entry points, the counts taken at each, and the per-layer
metrics derived from them.

Each entry point is patched where its caller looks it up (engine calls
``probo.engine.predict_batch``, gp's predict_batch calls
``probo.gp.kernel_matrix``, and so on).  An entry point that is missing by name
is reported as absent: the metrics that need it are None, not zero.
"""

from __future__ import annotations

import json
import math
from collections import deque

import numpy as np

from tracer import Tracer, layer_self_times

#: span name -> patch points (module, attribute)
PATCH_POINTS = {
    "kernels.kernel_matrix": [("probo.gp", "kernel_matrix"), ("probo.igp", "kernel_matrix")],
    "kernels.build_base_kernel_matrix": [("probo.gp", "build_base_kernel_matrix")],
    "gp.fit_gp": [("probo.engine", "fit_gp")],
    "gp.fit_gp.candidate": [("probo.gp", "fit_gp")],
    "gp.fit_hyperparameters": [("probo.engine", "fit_hyperparameters")],
    "gp.predict_batch": [("probo.engine", "predict_batch")],
    "igp.mean_width_batch": [("probo.engine", "mean_width_batch")],
    "acquisition.ei_values": [("probo.engine", "ei_values")],
    "acquisition.lcb_values": [("probo.engine", "lcb_values")],
    "acquisition.glcb_values": [("probo.engine", "glcb_values")],
    "optimizer.focus_search": [("probo.engine", "focus_search")],
    "engine.run": [("probo.engine", "run"), ("probo.bench", "run")],
    "bench.protocol": [("probo.cli", "run_sensitivity_experiment"),
                       ("probo.cli", "run_acquisition_comparison")],
    "cli.main": [("probo.cli", "main")],
    "cli.write": [("probo.cli", "write_ad_summary_csv"),
                  ("probo.cli", "write_relative_ad_sums_csv"),
                  ("probo.cli", "write_comparison_csv"),
                  ("probo.cli", "write_mop_csv"),
                  ("probo.cli", "write_traces"),
                  ("probo.cli", "save_trace_csv"),
                  ("probo.cli", "_write_json")],
}

#: spans created by the benchmark itself rather than by patching probo
CLIENT_SPANS = ("client.unit", "engine.objective", "functions.evaluate")


#: recent kernel_matrix argument triples kept for repeat detection; the
#: duplicate build of one scoring batch follows the first within a few calls
RECENT_KERNEL_CALLS = 8


class ProboInstrument:
    """Installs the tracer on probo and turns its spans and counts into
    the per-layer metrics of BENCHMARK.json."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.counts = tracer.counts
        self._recent_kernel_calls: deque = deque(maxlen=RECENT_KERNEL_CALLS)
        self._run_kinds: list[str] = []
        self._proposal = None
        self._jobs_seen: set = set()

    # ------------------------------------------------------------ hooks

    def _kernel_matrix(self, args, kwargs, result, exc):
        """A repeat is a call with the same kernel and the very same training
        and batch arrays (one model, one batch) as a recent call.  The
        arrays are held, so their identities cannot be reused meanwhile."""
        if exc is not None:
            return
        spec, A, B = args[:3]
        entries = int(np.prod(np.shape(result)))
        self.counts["kernel_matrix.entries"] += entries
        if any(a is A and b is B and s == spec for s, a, b in self._recent_kernel_calls):
            self.counts["kernel_matrix.repeat_entries"] += entries
        else:
            self._recent_kernel_calls.append((spec, A, B))

    def _build_base(self, args, kwargs, result, exc):
        if exc is not None:
            if type(exc).__name__ == "ConditioningError":
                self.counts["conditioning_failures"] += 1
            return
        from probo import kernels
        initial = getattr(kernels, "JITTER_INITIAL", 1e-10) * args[0].signal_variance
        jitter = getattr(result, "jitter", initial)
        self.counts["jitter_escalations"] += max(0, round(math.log10(jitter / initial)))

    def _candidate(self, args, kwargs, result, exc):
        self.counts["hyper_candidates"] += 1
        if exc is not None:
            self.counts["hyper_failed"] += 1

    def _points(self, key):
        def hook(args, kwargs, result, exc):
            self.counts[key] += np.shape(args[1])[0]
        return hook

    def _run_before(self, args, kwargs):
        config = args[0] if args else kwargs["config"]
        self._run_kinds.append(config.acquisition.kind)
        return args, kwargs

    def _run_after(self, args, kwargs, result, exc):
        self._run_kinds.pop()
        if exc is not None:
            return
        for r in result.records:
            if getattr(r, "igp_case", 0) in (1, 2):
                self.counts["glcb_iterations"] += 1
                self.counts["case2_iterations"] += r.igp_case == 2
                self.counts["clamped"] += r.clamped

    def _job_before(self, args, kwargs):
        config, target = args[:2]
        key = (json.dumps(config.to_dict(), sort_keys=True), target.name)
        self.counts["jobs"] += 1
        if key in self._jobs_seen:
            self.counts["duplicate_jobs"] += 1
        self._jobs_seen.add(key)
        return self._run_before(args, kwargs)

    def _job_after(self, args, kwargs, result, exc):
        if exc is not None:
            self.counts["failed_jobs"] += 1
        self._run_after(args, kwargs, result, exc)

    def _objective_points(self, args, kwargs, result, exc):
        m = len(args[0])
        self.counts["points_scored"] += m
        if self._run_kinds and self._run_kinds[-1] == "glcb":
            self.counts["glcb_points"] += m

    def _search_before(self, args, kwargs):
        objective = self.tracer.wrap(args[0], "engine.objective",
                                     after=self._objective_points)
        return (objective,) + tuple(args[1:]), kwargs

    def _search_after(self, args, kwargs, result, exc):
        if exc is None:
            self._proposal = np.array(result[0], dtype=float)

    def evaluated(self, x) -> None:
        """Called by the target wrapper: a proposal that differs from what
        focus search returned was nudged by the engine."""
        if self._proposal is None:
            return
        self.counts["proposals"] += 1
        if not np.array_equal(np.asarray(x, dtype=float).reshape(-1),
                              self._proposal.reshape(-1)):
            self.counts["nudged"] += 1
        self._proposal = None

    # ---------------------------------------------------------- install

    def install(self) -> None:
        hooks = {
            "kernels.kernel_matrix": (None, self._kernel_matrix),
            "kernels.build_base_kernel_matrix": (None, self._build_base),
            "gp.fit_gp.candidate": (None, self._candidate),
            "gp.predict_batch": (None, self._points("predict_points")),
            "igp.mean_width_batch": (None, self._points("width_points")),
            "optimizer.focus_search": (self._search_before, self._search_after),
        }
        for name, points in PATCH_POINTS.items():
            for module, attr in points:
                before, after = hooks.get(name, (None, None))
                if (module, attr) == ("probo.bench", "run"):
                    before, after = self._job_before, self._job_after
                elif name == "engine.run":
                    before, after = self._run_before, self._run_after
                self.tracer.patch(module, attr, name, before, after)
        self.tracer.present.update(CLIENT_SPANS)

    def uninstall(self) -> None:
        self.tracer.unpatch()

    # ---------------------------------------------------------- metrics

    def metrics(self, summary: dict[str, list], files_written: int,
                bytes_written: int) -> dict[str, tuple]:
        """name -> (value or None, unit).  None marks a metric whose entry
        point is absent."""
        present = self.tracer.present
        c = self.counts
        layers = layer_self_times(summary)
        out: dict[str, tuple] = {}

        def put(metric, unit, value, needs=None):
            out[metric] = (value if needs is None or needs in present else None, unit)

        def calls(name):
            return summary.get(name, [0, 0.0, 0.0])[0]

        def self_s(name):
            return summary.get(name, [0, 0.0, 0.0])[2]

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        km, bb = "kernels.kernel_matrix", "kernels.build_base_kernel_matrix"
        put(f"{km}.calls", "count", calls(km), km)
        put(f"{km}.self_s", "s", self_s(km), km)
        put(f"{km}.entries", "count", c["kernel_matrix.entries"], km)
        put(f"{km}.repeat_frac", "ratio",
            ratio("kernel_matrix.repeat_entries", "kernel_matrix.entries"), km)
        put(f"{bb}.calls", "count", calls(bb), bb)
        put(f"{bb}.self_s", "s", self_s(bb), bb)
        put("kernels.jitter_escalations", "count", c["jitter_escalations"], bb)
        put("kernels.conditioning_failures", "count", c["conditioning_failures"], bb)
        put("kernels.self_s", "s", layers.get("kernels", 0.0))

        # fit_gp counts the engine's fits and the hyperparameter candidates
        fit, cand = "gp.fit_gp", "gp.fit_gp.candidate"
        put(f"{fit}.calls", "count", calls(fit) + calls(cand), fit)
        put(f"{fit}.self_s", "s", self_s(fit) + self_s(cand), fit)
        hyp, pb = "gp.fit_hyperparameters", "gp.predict_batch"
        put(f"{hyp}.calls", "count", calls(hyp), hyp)
        put(f"{hyp}.self_s", "s", self_s(hyp), hyp)
        put("gp.hyper_fail_frac", "ratio", ratio("hyper_failed", "hyper_candidates"), cand)
        put(f"{pb}.calls", "count", calls(pb), pb)
        put(f"{pb}.self_s", "s", self_s(pb), pb)
        put(f"{pb}.points", "count", c["predict_points"], pb)
        put("gp.self_s", "s", layers.get("gp", 0.0))

        mw = "igp.mean_width_batch"
        put(f"{mw}.calls", "count", calls(mw), mw)
        put(f"{mw}.self_s", "s", self_s(mw), mw)
        put(f"{mw}.points", "count", c["width_points"], mw)
        put("igp.clamp_frac", "ratio", ratio("clamped", "glcb_points"), "engine.run")
        put("igp.case2_frac", "ratio", ratio("case2_iterations", "glcb_iterations"),
            "engine.run")
        put("igp.self_s", "s", layers.get("igp", 0.0))

        acq = [n for n in PATCH_POINTS if n.startswith("acquisition.") and n in present]
        out["acquisition.calls"] = (sum(calls(n) for n in acq) if acq else None, "count")
        out["acquisition.self_s"] = (layers.get("acquisition", 0.0) if acq else None, "s")

        fs = "optimizer.focus_search"
        put(f"{fs}.calls", "count", calls(fs), fs)
        put(f"{fs}.self_s", "s", self_s(fs), fs)
        put("optimizer.points_scored", "count", c["points_scored"], fs)

        put("engine.run.calls", "count", calls("engine.run"), "engine.run")
        put("engine.run.self_s", "s", self_s("engine.run"), "engine.run")
        put("engine.objective.self_s", "s", self_s("engine.objective"), fs)
        put("engine.nudge_frac", "ratio", ratio("nudged", "proposals"), fs)
        put("engine.self_s", "s", layers.get("engine", 0.0))

        put("functions.evaluate.calls", "count", calls("functions.evaluate"))
        put("functions.evaluate.self_s", "s", self_s("functions.evaluate"))

        put("bench.jobs", "count", c["jobs"], "bench.protocol")
        put("bench.self_s", "s", layers.get("bench", 0.0), "bench.protocol")
        put("bench.duplicate_job_frac", "ratio", ratio("duplicate_jobs", "jobs"),
            "bench.protocol")
        put("bench.failed_jobs", "count", c["failed_jobs"], "bench.protocol")

        put("cli.write_s", "s", summary.get("cli.write", [0, 0.0, 0.0])[1], "cli.write")
        put("cli.files_written", "count", files_written)
        put("cli.bytes_written", "count", bytes_written)
        put("cli.self_s", "s", layers.get("cli", 0.0))
        put("client.self_s", "s", layers.get("client", 0.0))
        put("trace.hook_s", "s", layers.get("trace", 0.0))
        return out

    def exact_counts(self, summary: dict[str, list]) -> dict[str, int]:
        """Counts that repeat exactly for the same code and seed."""
        keep = dict(self.counts)
        for name, (n, _, _) in sorted(summary.items()):
            keep[f"{name}.calls"] = n
        return keep

