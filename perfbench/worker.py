#!/usr/bin/env python3
"""One iteration of one benchmark workload, in a fresh interpreter.

run.py starts this file once per iteration with ``--t0`` set to
``time.monotonic()`` just before the process was spawned, so the set-up
time includes interpreter start.  The iteration drives twpaopt through its
public calls with one worker, checks the outputs against reference.json,
and writes one JSON result to ``--out``.

Untraced, only the benchmark phases are timed, plus a span per unit of work
where no artifact counts it (the objective in ``surrogate_search``,
``gain_profile`` in ``working_point_20db``).  Traced, every layer in
LAYER_TARGETS is wrapped as well; the spans go to ``--trace-out`` and the
per-layer numbers into the result.  Either way a SpeedProbe samples the
host's speed, and each phase is also reported scaled to a reference speed.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import re
import resource
import signal
import statistics
import sys
import time
import warnings
from pathlib import Path

from tracer import SpanSummary, Tracer, duration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

DESK_CONFIG = ROOT / "configs" / "desk.json"
SCRIPT_20DB = ROOT / "scripts" / "find_working_point_20db.py"

#: Every layer the traced run wraps.  evaluate_point, optimize_metric,
#: write_json, read_json and read_records_csv feed no metric of their own;
#: they are wrapped so that each stage's direct children cover the stage.
LAYER_TARGETS = (
    "twpaopt.snail:kerr_free_flux",
    "twpaopt.snail:expand_potential",
    "twpaopt.network:build_cells",
    "twpaopt.network:cascade",
    "twpaopt.network:abcd_to_s",
    "twpaopt.network:dispersion",
    "twpaopt.network:simulate_linear",
    "twpaopt.metric:evaluate_metric",
    "twpaopt.sweep:evaluate_point",
    "twpaopt.sweep:run_sweep",
    "twpaopt.sweep:build_analysis",
    "twpaopt.sweep:write_records_csv",
    "twpaopt.sweep:read_records_csv",
    "twpaopt.bayesopt:optimize_metric",
    "twpaopt.bayesopt:fit_gp",
    "twpaopt.bayesopt:GpModel.build",
    "twpaopt.bayesopt:propose_next",
    "twpaopt.mixing:gain_profile",
    "twpaopt.mixing:optimize_working_point",
    "twpaopt.fileio:atomic_write_text",
    "twpaopt.fileio:write_json",
    "twpaopt.fileio:read_json",
    "twpaopt.touchstone:write_touchstone",
    "twpaopt.config:load_config",
    # The pipeline's own CSV writers: their row formatting is most of the
    # optimize and report stages that the layers above do not cover.
    "twpaopt.pipeline:_write_trace_csv",
    "twpaopt.pipeline:_write_gain_profile_csv",
    "twpaopt.pipeline:_write_working_points_csv",
    "twpaopt.pipeline:_write_dispersion_csv",
    "twpaopt.pipeline:_write_correlation_csv",
    "twpaopt.pipeline:_write_histograms_csv",
)

#: Layers reported as calls plus busy (inclusive) seconds.
CALL_LAYERS = (
    "snail.kerr_free_flux", "snail.expand_potential", "network.build_cells",
    "network.cascade", "network.abcd_to_s", "network.dispersion",
    "metric.evaluate_metric", "bayesopt.fit_gp", "bayesopt.GpModel.build",
    "bayesopt.propose_next", "bayesopt.objective", "mixing.gain_profile",
    "fileio.atomic_write_text",
)
BUSY_LAYERS = (
    "sweep.build_analysis", "sweep.write_records_csv",
    "touchstone.write_touchstone", "config.load_config",
)
SELF_LAYERS = (
    "network.simulate_linear", "sweep.run_sweep",
    "mixing.optimize_working_point", "pipeline.prepare_run_dir",
    "pipeline.stage1", "pipeline.optimize", "pipeline.stage3",
    "pipeline.report",
)

#: Phases whose direct children must account for their duration, and whose
#: largest self time the run prints.
COVERED_PHASES = {
    "desk_pipeline": ("setup", "pipeline.stage1", "pipeline.optimize",
                      "pipeline.stage3", "pipeline.report"),
    "surrogate_search": ("setup", "pipeline.optimize"),
    "working_point_20db": ("setup", "bisection"),
}

#: Phases that make up pipeline_s, the workload's time after set-up.
TIMED_PHASES = {
    "desk_pipeline": ("pipeline.stage1", "pipeline.optimize",
                      "pipeline.stage3", "pipeline.report"),
    "surrogate_search": ("pipeline.optimize",),
    "working_point_20db": ("bisection",),
}


class SpeedProbe:
    """Host speed, sampled from SIGALRM while the worker runs.

    The other tenants of a shared host change its speed by up to 2x, in
    spells from under a second to minutes, so raw wall times of runs a few
    minutes apart differ by more than any useful bound.  Every
    SAMPLE_EVERY_S of wall time the handler times a fixed interpreter-bound
    kernel in the worker's own thread.  A phase's scaled time is its wall
    time, less the time spent in the handler, times the mean of
    KERNEL_REF_S / kernel time over the samples taken during the phase:
    the time the phase would take at the reference speed.
    """

    SAMPLE_EVERY_S = 0.1
    #: Kernel time on a quiet host (2-core x86-64 VM, Python 3.11).
    KERNEL_REF_S = 3.2e-4

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    @staticmethod
    def kernel():
        total, table = 0.0, {}
        for i in range(3000):
            total += i * 0.5
            table[i & 63] = total
        return total

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY_S,
                         self.SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def speed(self) -> float:
        """Mean host speed over every sample, as a share of the reference."""
        return statistics.mean(self.KERNEL_REF_S / dt for _t, dt in self.samples)

    def scaled(self, span) -> float:
        """Span duration at the reference speed; unscaled without samples."""
        inside = [dt for t, dt in self.samples
                  if span["start"] <= t < span["end"]]
        wall = duration(span) - sum(inside)
        if not inside:
            return wall
        return wall * sum(self.KERNEL_REF_S / dt for dt in inside) / len(inside)


class SetupDone(Exception):
    """Raised at the first stage call of a set-up-only iteration."""


class Iteration:
    """State of one iteration: arguments, tracer, open phase and result."""

    def __init__(self, args):
        self.args = args
        self.tr = Tracer()
        self.phase = self.tr.open("setup")
        self.checks: list[str] = []
        self.probe = SpeedProbe()
        self.probe.start()
        self.result = {
            "workload": args.workload,
            "seed": args.seed,
            "traced": args.trace,
            "setup_only": args.setup_only,
            "checks_failed": self.checks,
        }

    def end_setup(self, next_phase=None):
        """Close the set-up phase at the first stage call."""
        self.result["setup_s"] = time.monotonic() - self.args.t0
        setup = self.phase
        self.tr.close(setup)
        self.phase = None
        # Interpreter start, before the probe ran, stays unscaled.
        self.result["setup_scaled_s"] = (
            self.result["setup_s"] - duration(setup) + self.probe.scaled(setup))
        if self.args.setup_only:
            raise SetupDone
        if next_phase:
            self.phase = self.tr.open(next_phase)


    def stage(self, name, func, *args, **kwargs):
        with self.tr.span(name):
            func(*args, **kwargs)


def close_to(value, reference, rel):
    return abs(value - reference) <= rel * abs(reference)


# -- hooks ---------------------------------------------------------------------


def attach_cascade(attrs, args, kwargs, result):
    attrs["freq_points"] = args[1].points


def attach_gain_profile(attrs, args, kwargs, result):
    from twpaopt.mixing import RK4_STEP

    n_cells = kwargs["n_cells"] if "n_cells" in kwargs else args[3]
    attrs["columns"] = int(result.freqs.size)
    # One RK4 pass at the step plus its half-step verification pass.
    attrs["rk4_steps"] = (round(n_cells / RK4_STEP)
                          + round(n_cells / (RK4_STEP / 2.0)))


def attach_fit_gp(attrs, args, kwargs, result):
    attrs["n"] = int(result.x.shape[0])


def attach_gp_build(attrs, args, kwargs, result):
    attrs["jittered"] = int(result.jitter > 0)


def attach_write(attrs, args, kwargs, result):
    attrs["bytes"] = len(args[1].encode("utf-8"))


AFTER_HOOKS = {
    "twpaopt.network:cascade": attach_cascade,
    "twpaopt.mixing:gain_profile": attach_gain_profile,
    "twpaopt.bayesopt:fit_gp": attach_fit_gp,
    "twpaopt.bayesopt:GpModel.build": attach_gp_build,
    "twpaopt.fileio:atomic_write_text": attach_write,
}


def mark_unusable(attrs, args, kwargs, result):
    """An objective value the optimizer cannot use counts as failed."""
    if not (math.isfinite(result) and result > 0):
        attrs["error"] = "unusable value"


def install(it: Iteration):
    """Wrap the layers (traced) and the workload's unit of work (always)."""
    tr, workload = it.tr, it.args.workload
    before = {}
    if workload == "working_point_20db":
        def enter_bisection():
            if it.phase is not None and it.phase["name"] == "setup":
                it.end_setup("bisection")
        before["twpaopt.mixing:gain_profile"] = enter_bisection
    targets = LAYER_TARGETS if it.args.trace else tuple(before)
    for target in targets:
        after = AFTER_HOOKS.get(target) if it.args.trace else None
        tr.patch(target, before=before.get(target), after=after)
    if workload == "surrogate_search":
        def counted(make_objective):
            def make(cfg):
                return tr.wrap("bayesopt.objective", make_objective(cfg),
                               after=mark_unusable)
            return make
        tr.patch("twpaopt.pipeline:make_objective", replace=counted)


# -- workloads -----------------------------------------------------------------


def write_config(doc, work: Path) -> Path:
    doc["output_dir"] = str(work / "run")
    path = work / "config.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def surrogate_config(seed: int) -> dict:
    """Desk config with the enumerated axes pinned: one combination, so the
    whole budget goes to the GP over A_J, rho_Ic and t."""
    ref = REFERENCE["surrogate_search"]
    doc = json.loads(DESK_CONFIG.read_text())
    for name, value in ref["pinned"].items():
        dim = doc["grid"][name]
        dim["min"] = dim["max"] = value
    doc["bayesopt"] = {"budget": ref["budget"], "seed": seed}
    return doc


def run_pipeline_workload(it: Iteration):
    """desk_pipeline and surrogate_search: the calls run_pipeline makes."""
    from twpaopt import config, pipeline

    tr, desk = it.tr, it.args.workload == "desk_pipeline"
    doc = (json.loads(DESK_CONFIG.read_text()) if desk
           else surrogate_config(it.args.seed))
    with tr.span("setup.write_config"):
        config_path = write_config(doc, Path(it.args.work))
    cfg = config.load_config(config_path)
    with tr.span("pipeline.prepare_run_dir"):
        paths, manifest = pipeline.prepare_run_dir(config_path, cfg)
    lock = pipeline.RunLock(paths)
    with tr.span("pipeline.RunLock"):
        lock.__enter__()
    try:
        it.end_setup()
        if desk:
            for name in pipeline.STAGE_ORDER:
                if pipeline.stage_is_complete(paths, manifest, name):
                    raise RuntimeError(f"fresh run dir has {name} complete")
            it.stage("pipeline.stage1", pipeline.run_stage1,
                     cfg, paths, manifest, workers=1)
            it.stage("pipeline.optimize", pipeline.run_optimize,
                     cfg, paths, manifest)
            it.stage("pipeline.stage3", pipeline.run_stage3,
                     cfg, paths, manifest)
            it.stage("pipeline.report", pipeline.run_report,
                     cfg, paths, manifest)
        else:
            it.stage("pipeline.optimize", pipeline.run_optimize,
                     cfg, paths, manifest, cold_start=True)
    finally:
        lock.__exit__(None, None, None)
        it.tr.restore()
    check_pipeline_outputs(it, paths)


def read_trace_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = []
        for line in fh:
            row = dict(zip(header, line.strip().split(",")))
            rows.append({
                "iteration": int(row["iteration"]),
                "metric_total": float(row["metric_total"]),
                "is_incumbent": row["is_incumbent"] == "true",
            })
    return rows


def check_pipeline_outputs(it: Iteration, paths):
    from twpaopt.fileio import read_json
    from twpaopt.pipeline import stage_is_complete
    from twpaopt.sweep import read_records_csv

    checks, result = it.checks, it.result
    desk = it.args.workload == "desk_pipeline"
    manifest = read_json(paths.manifest)
    for name in (("stage1", "optimize", "stage3", "report") if desk
                 else ("optimize",)):
        if not stage_is_complete(paths, manifest, name):
            checks.append(f"stage {name} is not complete with its artifacts")
    if checks:
        return
    pstar = read_json(paths.pstar_json)
    total = pstar["metric"]["total"]
    result["pstar_metric"] = total
    trace_rows = read_trace_csv(paths.trace_csv)
    new_rows = [r for r in trace_rows if r["iteration"] >= 0]
    result["new_evaluations"] = len(new_rows)
    result["new_incumbents"] = sum(1 for r in new_rows if r["is_incumbent"])

    if desk:
        ref = REFERENCE["desk_pipeline"]
        rel = ref["rel_tol"]
        rows = read_records_csv(paths.stage1_csv)
        failed_rows = sum(1 for _params, _metric, failed in rows if failed)
        if len(rows) != ref["records"] or failed_rows != ref["failed_records"]:
            checks.append(f"stage-1 records {len(rows)} ({failed_rows} "
                          f"failed), expected {ref['records']} "
                          f"({ref['failed_records']} failed)")
        if not close_to(total, ref["pstar_metric"], rel):
            checks.append(f"p* metric {total!r} differs from reference "
                          f"{ref['pstar_metric']!r} by more than {rel}")
        qstar = read_json(paths.qstar_json)
        perf = qstar["performance_db"]
        result["qstar_performance_db"] = perf
        if not close_to(perf, ref["qstar_performance_db"], rel):
            checks.append(f"q* performance {perf!r} dB differs from reference "
                          f"{ref['qstar_performance_db']!r} by more than {rel}")
        result["operations"] = {
            "grid_points": len(rows),
            "objective_evaluations": pstar["new_evaluations"],
            "drive_points": qstar["n_drive_points"],
        }
        result["failed_operations"] = (
            failed_rows + qstar["n_failed_drive_points"])
        result["points_attempted"] = len(rows)
        result["points_failed"] = failed_rows
        result["checkpoint_bytes"] = os.path.getsize(paths.checkpoint)
        return

    ref = REFERENCE["surrogate_search"]
    rel = ref["rel_tol"]
    summary = SpanSummary(it.tr.spans)
    calls = summary.calls("bayesopt.objective")
    result["operations"] = {"objective_evaluations": calls}
    result["failed_operations"] = summary.failed("bayesopt.objective")
    if pstar["new_evaluations"] != ref["budget"] or calls != ref["budget"]:
        checks.append(f"{pstar['new_evaluations']} new evaluations "
                      f"({calls} objective calls), expected {ref['budget']}")
    best_traced = min(r["metric_total"] for r in trace_rows)
    if not close_to(total, best_traced, rel):
        checks.append(f"p* metric {total!r} is not the trace minimum "
                      f"{best_traced!r}")
    if not (math.isfinite(total) and total > 0):
        checks.append(f"p* metric {total!r} is not a finite positive value")


def run_bisection_workload(it: Iteration):
    """scripts/find_working_point_20db.py with its defaults."""
    with it.tr.span("setup.load_script"):
        spec = importlib.util.spec_from_file_location(
            "find_working_point_20db", SCRIPT_20DB)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = script.main([])
    finally:
        if it.phase is not None:
            it.tr.close(it.phase)
        it.tr.restore()
    text = out.getvalue()
    solves = [s for s in it.tr.spans if s["name"] == "mixing.gain_profile"]
    it.result["operations"] = {"bisection_solves": len(solves)}
    it.result["failed_operations"] = sum(
        1 for s in solves if "error" in s["attrs"])
    ref = REFERENCE["working_point_20db"]
    if code != 0:
        it.checks.append(f"bisection script exited {code}: "
                         f"{text.strip()[-200:]}")
        return
    match = re.search(r"^working point: .*band mean\s+(-?[0-9.]+) dB",
                      text, re.MULTILINE)
    if match is None:
        it.checks.append("bisection printed no working point")
        return
    final_db = float(match.group(1))
    it.result["final_band_mean_db"] = final_db
    if not abs(final_db - ref["target_db"]) < ref["tol_db"]:
        it.checks.append(f"bisection ended at {final_db} dB, not within "
                         f"{ref['tol_db']} dB of {ref['target_db']} dB")


# -- traced run ----------------------------------------------------------------


def layer_metrics(it: Iteration, clipped_warnings: int):
    s = SpanSummary(it.tr.spans)
    result = it.result
    m = {}
    for name in CALL_LAYERS:
        m[f"{name}.calls"] = s.calls(name)
        m[f"{name}.busy_s"] = s.busy(name)
    for name in BUSY_LAYERS:
        m[f"{name}.busy_s"] = s.busy(name)
    for name in SELF_LAYERS:
        m[f"{name}.self_s"] = s.self_time(name)
    fits = s.calls("bayesopt.fit_gp")
    m["bayesopt.fit_gp.mean_n"] = (
        s.attr_sum("bayesopt.fit_gp", "n") / fits if fits else 0.0)
    m["bayesopt.jitter_escalations"] = s.attr_sum(
        "bayesopt.GpModel.build", "jittered")
    m["bayesopt.variance_clips"] = clipped_warnings
    new = result.get("new_evaluations", 0)
    m["bayesopt.new_evaluations"] = new
    m["bayesopt.incumbent_ratio"] = (
        result.get("new_incumbents", 0) / new if new else 0.0)
    m["network.cascade.freq_points"] = s.attr_sum(
        "network.cascade", "freq_points")
    m["mixing.gain_profile.columns"] = s.attr_sum(
        "mixing.gain_profile", "columns")
    m["mixing.gain_profile.failed"] = s.failed("mixing.gain_profile")
    m["mixing.rk4_steps"] = s.attr_sum("mixing.gain_profile", "rk4_steps")
    m["fileio.atomic_write_text.bytes"] = s.attr_sum(
        "fileio.atomic_write_text", "bytes")
    m["sweep.points_attempted"] = result.get("points_attempted", 0)
    m["sweep.points_failed"] = result.get("points_failed", 0)
    m["sweep.checkpoint_bytes"] = result.get("checkpoint_bytes", 0)
    m["setup.import_s"] = s.busy("setup.import")
    # Layer times at the reference host speed, like the end-to-end times;
    # spans are too short to carry speed samples of their own.
    speed = it.probe.speed()
    for name in m:
        if name.endswith("_s"):
            m[name] *= speed

    coverage, top = {}, {}
    for phase in COVERED_PHASES[it.args.workload]:
        for span in s.by_name.get(phase, ()):
            coverage[phase] = s.coverage(span)
            top[phase] = s.top_self(span)
    m["trace.child_coverage_min"] = min(coverage.values())
    result["coverage"] = coverage
    result["missing_targets"] = it.tr.missing
    result["top_self"] = top
    result["layers"] = m


# -- main ----------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(TIMED_PHASES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent spawned this process")
    ap.add_argument("--work", required=True, help="scratch directory")
    ap.add_argument("--out", required=True, help="result JSON path")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--trace-out", default=None, help="span dump path")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop at the first stage call")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    it = Iteration(args)
    with it.tr.span("setup.import"):
        import numpy
        import scipy

        import twpaopt  # noqa: F401  (every module loaded before patching)
    it.result["versions"] = {"python": sys.version.split()[0],
                             "numpy": numpy.__version__,
                             "scipy": scipy.__version__}
    install(it)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if args.workload == "working_point_20db":
                run_bisection_workload(it)
            else:
                run_pipeline_workload(it)
    except SetupDone:
        pass
    finally:
        it.probe.stop()
    if not args.setup_only:
        phases = {}
        for span in it.tr.spans:
            if span["parent"] is None:
                phases[span["name"]] = duration(span)
        it.result["phases"] = phases
        it.result["timed_phases"] = TIMED_PHASES[args.workload]
        it.result["scaled_phases"] = {
            span["name"]: it.probe.scaled(span) for span in it.tr.spans
            if span["parent"] is None and span["name"] != "setup"}
        it.result["pipeline_scaled_s"] = sum(
            it.result["scaled_phases"][p] for p in TIMED_PHASES[args.workload])
        it.result["pipeline_s"] = sum(
            phases[p] for p in TIMED_PHASES[args.workload])
        it.result["host_speed"] = it.probe.speed()
        it.result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if args.trace:
            clips = sum(1 for w in caught
                        if "variance clipped" in str(w.message))
            layer_metrics(it, clips)
            if args.trace_out:
                it.tr.dump(args.trace_out, workload=args.workload,
                           seed=args.seed)
    Path(args.out).write_text(json.dumps(it.result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
