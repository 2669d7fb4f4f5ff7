#!/usr/bin/env python3
"""twpaopt benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload desk_pipeline --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout.  Each iteration runs in a fresh
interpreter (perfbench/worker.py) with one worker and BLAS threads pinned
to 1.

With ``--trace 0`` the run repeats rounds of one set-up-only interpreter
and one iteration of the workload while another round still fits in
``--seconds``, then starts one more set-up-only interpreter.  It reports
the end-to-end metrics of BENCHMARK.json as medians over the run.

Times are scaled to a reference host speed, which each worker samples
while it runs (worker.SpeedProbe); the unscaled times are printed as well.

With ``--trace 1`` the run alternates untraced and traced iterations and
reports the per-layer metrics, the tracing overhead among them.

Every iteration's outputs are checked against perfbench/reference.json.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the run environment and each metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = HERE / "_work"

WORKLOADS = ("desk_pipeline", "surrogate_search", "working_point_20db")
REQUIRED_FILES = (
    "BENCHMARK.json",
    "src/twpaopt/__init__.py",
    "configs/desk.json",
    "scripts/find_working_point_20db.py",
)
#: A run must end within 180 s; no iteration may outlast this mark.
RUN_LIMIT_S = 170.0
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "TWPAOPT_WORKERS": "1",
}
#: Per-layer metrics that come from the untraced iterations of a trace
#: run, keyed to the phase they time; 0 where the workload has no such
#: phase.
STAGE_METRICS = {
    "stage1_s": "pipeline.stage1",
    "optimize_s": "pipeline.optimize",
    "stage3_s": "pipeline.stage3",
    "bisection_s": "bisection",
}


class Run:
    """Iterations of one workload and what they reported."""

    def __init__(self, args):
        self.args = args
        self.env = dict(os.environ, **THREAD_PINS)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = (
            src + os.pathsep + self.env["PYTHONPATH"]
            if self.env.get("PYTHONPATH") else src)
        self.start = time.monotonic()
        self.results: list[dict] = []
        self.setups: list[float] = []
        self.crashes = 0

    def spawn(self, trace=False, setup_only=False):
        """One worker process; its result dict, or None if it crashed."""
        a = self.args
        WORK_ROOT.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
        out = work / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", a.workload, "--seed", str(a.seed),
               "--work", str(work), "--out", str(out)]
        if trace:
            cmd += ["--trace", "--trace-out",
                    str(WORK_ROOT / f"trace_{a.workload}_seed{a.seed}.json")]
        if setup_only:
            cmd.append("--setup-only")
        timeout = max(self.start + RUN_LIMIT_S - time.monotonic(), 1.0)
        try:
            t0 = time.monotonic()
            proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT,
                                  env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
            if proc.returncode != 0 or not out.exists():
                sys.stderr.write(f"worker exited {proc.returncode}:\n"
                                 f"{proc.stderr[-4000:]}\n")
                result = None
            else:
                result = json.loads(out.read_text())
        except subprocess.TimeoutExpired:
            sys.stderr.write(f"worker stopped after {timeout:.0f} s\n")
            result = None
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if result is None:
            self.crashes += 1
            return None
        if "setup_scaled_s" in result and not trace:
            self.setups.append(result["setup_scaled_s"])
        if not setup_only:
            self.results.append(result)
        return result

    def repeat(self, one_round):
        """Run ``one_round`` while another round of the mean length still
        ends within ``--seconds``; at least once."""
        rounds = []
        while True:
            t0 = time.monotonic()
            if not one_round():
                return
            rounds.append(time.monotonic() - t0)
            if time.monotonic() + statistics.mean(rounds) > (
                    self.start + self.args.seconds):
                return

    def measure(self):
        """Rounds of one set-up-only interpreter and one iteration, so that
        set-up samples the same host conditions as the iterations."""
        self.repeat(lambda: self.spawn(setup_only=True) is not None
                    and self.spawn() is not None)
        self.spawn(setup_only=True)

    def measure_traced(self):
        self.repeat(lambda: self.spawn() is not None
                    and self.spawn(trace=True) is not None)

    # -- outcome ----------------------------------------------------------------

    def plain_results(self):
        return [r for r in self.results if not r["traced"]]

    def traced_results(self):
        return [r for r in self.results if r["traced"]]

    def counts(self):
        """(attempted, failed, problems) over every iteration.

        An iteration that fails a check counts all of its operations as
        failed; a worker that crashed counts as one failed operation.
        """
        attempted = failed = self.crashes
        problems = ([f"{self.crashes} worker process(es) failed"]
                    if self.crashes else [])
        for r in self.results:
            ops = sum(r.get("operations", {}).values())
            attempted += ops
            if r["checks_failed"]:
                failed += ops
                problems.extend(r["checks_failed"])
            else:
                failed += r.get("failed_operations", 0)
        for key in ("pstar_metric", "qstar_performance_db",
                    "final_band_mean_db"):
            values = {r[key] for r in self.results if key in r}
            if len(values) > 1:
                problems.append(f"{key} differs between iterations of one "
                                f"seed: {sorted(values)}")
        return attempted, failed, problems


def scaled_phase(results, phase) -> float:
    """Median scaled time of a phase over the iterations; 0 if it never ran."""
    return statistics.median(
        r["scaled_phases"].get(phase, 0.0) for r in results)


def source_digest() -> str:
    """SHA-256 over the sources the benchmark runs, for checkouts without git."""
    h = hashlib.sha256()
    for pattern in ("src/**/*.py", "scripts/*.py", "configs/*.json"):
        for path in sorted(ROOT.glob(pattern)):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD of the checkout, or None when it is not a git work tree (git
    would otherwise report a repository further up the file system)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(run: Run) -> dict:
    versions = next((r["versions"] for r in run.results), {})
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **versions,
        "thread_pins": THREAD_PINS,
        "workload": run.args.workload,
        "seed": run.args.seed,
        "seconds": run.args.seconds,
        "trace": run.args.trace,
    }


def end_to_end(run: Run) -> dict:
    """name -> (value, sample count, how it was reduced)."""
    plain = run.plain_results()
    n = len(plain)
    return {
        "setup_s": (statistics.median(run.setups), len(run.setups),
                    "median, scaled"),
        "pipeline_s": (
            statistics.median(r["pipeline_scaled_s"] for r in plain), n,
            "median, scaled"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain),
                        n, "median"),
    }


def per_layer(run: Run, spec, failed_fraction) -> dict:
    """name -> (value, sample count, how it was reduced)."""
    plain, traced = run.plain_results(), run.traced_results()
    values = {name: (scaled_phase(plain, phase), len(plain), "median, scaled")
              for name, phase in STAGE_METRICS.items()}
    values["pstar_metric"] = (plain[0].get("pstar_metric", 0.0), len(plain),
                              "identical in every iteration")
    values["failed_fraction"] = (failed_fraction, 1, "whole run")
    values["tracing_overhead_s"] = (
        statistics.median(r["pipeline_scaled_s"] for r in traced)
        - statistics.median(r["pipeline_scaled_s"] for r in plain),
        len(traced), "traced minus untraced median, scaled")
    for m in spec["per_layer"]:
        if m["name"] not in values:
            values[m["name"]] = (
                statistics.median(r["layers"][m["name"]] for r in traced),
                len(traced), "median")
    return values


def print_traced_structure(run: Run):
    for r in run.traced_results()[-1:]:
        if r["missing_targets"]:
            print(f"  not traced, missing: {', '.join(r['missing_targets'])}")
        for phase, share in r["coverage"].items():
            name, self_s = r["top_self"][phase]
            print(f"  span {phase}: children cover {100 * share:.1f}%, "
                  f"largest self time {name} {self_s:.3f} s")


def print_pstar_reference(run: Run):
    """p* of this seed beside its stored value; a search change may move it,
    so the comparison informs and does not gate."""
    ref = json.loads((HERE / "reference.json").read_text())["surrogate_search"]
    seed = run.args.seed
    stored = ref["pstar_metric_by_seed"].get(str(seed))
    if seed == ref["held_out"]["seed"]:
        stored = ref["held_out"]["pstar_metric"]
    values = [r["pstar_metric"] for r in run.plain_results()
              if "pstar_metric" in r]
    if stored is not None and values:
        print(f"  pstar_metric {values[0]:.17g} for seed {seed}, "
              f"reference {stored:.17g}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time; at least one iteration always runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    missing = [f for f in REQUIRED_FILES if not (ROOT / f).is_file()]
    if missing:
        sys.stderr.write(f"not a twpaopt source checkout, missing: "
                         f"{', '.join(missing)}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    run = Run(args)
    if args.trace:
        run.measure_traced()
    else:
        run.measure()
    if not run.plain_results() or (args.trace and not run.traced_results()):
        sys.stderr.write("no iteration completed; nothing to report\n")
        return 1

    attempted, failed, problems = run.counts()
    failed_fraction = failed / attempted if attempted else 1.0
    values = (per_layer(run, spec, failed_fraction) if args.trace
              else end_to_end(run))

    print("env: " + json.dumps(environment(run), sort_keys=True))
    ops = {}
    for r in run.results:
        for key, n in r.get("operations", {}).items():
            ops[key] = ops.get(key, 0) + n
    print(f"failed_fraction {failed_fraction:.6g} ({failed} of {attempted} "
          f"operations: {json.dumps(ops)})")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if args.workload == "surrogate_search":
        print_pstar_reference(run)
    if not args.trace:
        plain = run.plain_results()
        for name, phase in STAGE_METRICS.items():
            if scaled_phase(plain, phase):
                print(f"  {name} {scaled_phase(plain, phase):.6g} s (median, "
                      f"scaled, n={len(plain)})")
        raw = ", ".join(f"{r['pipeline_s']:.4g}" for r in plain)
        speed = ", ".join(f"{r['host_speed']:.3f}" for r in plain)
        print(f"  pipeline_s unscaled per iteration: {raw} s; mean host "
              f"speed: {speed} of the reference")
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        value, n, how = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value:.6g} {m['unit']} ({how}, n={n})")
    if args.trace:
        print_traced_structure(run)

    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
