"""Four-stage batch orchestration with a manifest and resumable run dirs.

A run directory is owned by one pipeline invocation at a time (lock file)
and carries a manifest recording the config hash, per-stage status and the
artifact listing.  STAGE_ORDER: grid sweep -> surrogate optimization ->
nonlinear gain -> a pure reporting step that re-emits plot-ready tables.
"""

from __future__ import annotations

import operator
import os
import resource
import socket
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial

import numpy as np

from . import __version__ as TOOL_VERSION
from .bayesopt import SearchSpace, optimize_metric
from .config import ConfigError, RunConfig, load_config
from .fileio import atomic_write_text, read_json, sha256_of_file, write_csv, write_json
from .mixing import (
    GAIN_PROFILE_COLUMNS,
    DriveSpec,
    bias_device,
    optimize_working_point,
)
from .network import dispersion, simulate_linear
from .snail import JunctionSpec, critical_current, kerr_free_flux
from .sweep import (
    DIMENSION_NAMES,
    DIMENSIONS,
    SweepConfig,
    build_analysis,
    device_from_values,
    evaluate_point,
    metric_frequency_grid,
    read_records_csv,
    run_sweep,
    table_grid,
    write_records_csv,
)
from .touchstone import write_touchstone

STAGE_ORDER = ("stage1", "optimize", "stage3", "report")

TRACE_COLUMNS = ("combo_id", "iteration") + DIMENSION_NAMES + (
    "metric_total", "is_incumbent")

#: A parameter dict's values in DIMENSION_NAMES order.
_dimension_values = operator.itemgetter(*DIMENSION_NAMES)


class PipelineError(RuntimeError):
    """Unrecoverable runtime failure inside a stage."""


def _artifact(*parts):
    """A RunPaths property: the path joined from the run directory."""
    return property(lambda self: os.path.join(self.run_dir, *parts))


_REPORT = "report"


@dataclass(frozen=True)
class RunPaths:
    """Canonical artifact locations inside one run directory."""

    run_dir: str

    manifest = _artifact("manifest.json")
    config_copy = _artifact("config.json")
    lock = _artifact("lock")
    checkpoint = _artifact("stage1_checkpoint.jsonl")
    stage1_csv = _artifact("stage1_records.csv")
    stage1_analysis = _artifact("stage1_analysis.json")
    trace_csv = _artifact("optimize_trace.csv")
    pstar_json = _artifact("pstar.json")
    pstar_s2p = _artifact("pstar.s2p")
    working_points = _artifact("working_points.csv")
    qstar_json = _artifact("qstar.json")
    report_dir = _artifact(_REPORT)
    report_dispersion = _artifact(_REPORT, "dispersion.csv")
    report_correlation = _artifact(_REPORT, "correlation.csv")
    report_histograms = _artifact(_REPORT, "histograms.csv")
    report_gain_qstar = _artifact(_REPORT, "gain_qstar.csv")

    def gain_profile(self, i):
        return os.path.join(self.run_dir, f"gain_profile_{i:03d}.csv")

    def relative(self, path):
        """A path inside the run directory as the manifest names it."""
        return os.path.relpath(path, self.run_dir)


class RunLock:
    """Exclusive run-directory ownership via an O_EXCL lock file.

    The file holds the owner's PID and hostname.  A lock left by a process
    on this host that no longer exists is reclaimed; any other lock is
    refused.
    """

    def __init__(self, paths: RunPaths):
        self.path = paths.lock
        self._fh = None

    def _owner_is_dead(self) -> bool:
        try:
            with open(self.path) as fh:
                pid, _, host = fh.read().strip().partition(" ")
            if host != socket.gethostname():
                return False
            os.kill(int(pid), 0)
        except ProcessLookupError:
            return True
        except (OSError, ValueError):
            pass
        return False

    def __enter__(self):
        try:
            self._fh = open(self.path, "x")
        except FileExistsError:
            if not self._owner_is_dead():
                raise PipelineError(
                    f"run directory is locked by another process; remove "
                    f"{self.path} if that run is no longer alive"
                ) from None
            os.unlink(self.path)
            return self.__enter__()
        self._fh.write(f"{os.getpid()} {socket.gethostname()}\n")
        self._fh.flush()
        return self

    def __exit__(self, *exc):
        if self._fh is not None:
            self._fh.close()
            try:
                os.unlink(self.path)
            except OSError:
                pass
        return False


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _new_manifest(paths: RunPaths, config_sha: str) -> dict:
    return {
        "tool_version": TOOL_VERSION,
        "config_file": paths.relative(paths.config_copy),
        "config_sha256": config_sha,
        "created_utc": _utcnow(),
        "updated_utc": _utcnow(),
        "stages": {name: {"status": "pending"} for name in STAGE_ORDER},
    }


def _save_manifest(paths: RunPaths, manifest: dict):
    manifest["updated_utc"] = _utcnow()
    write_json(paths.manifest, manifest)


def prepare_run_dir(config_path, cfg: RunConfig, force: bool = False):
    """Create/open the run directory, enforce config-hash consistency.

    Returns (paths, manifest).  An existing manifest with a different
    config hash is refused unless force is set, in which case the run state
    is reset and any stale sweep checkpoint is removed.
    """
    paths = RunPaths(cfg.output_dir)
    os.makedirs(paths.run_dir, exist_ok=True)
    config_sha = sha256_of_file(config_path)

    manifest = None
    if os.path.exists(paths.manifest):
        manifest = read_json(paths.manifest)
        if manifest.get("config_sha256") != config_sha:
            if not force:
                raise PipelineError(
                    f"config hash {config_sha[:12]} does not match the "
                    f"manifest in {paths.run_dir} "
                    f"({str(manifest.get('config_sha256'))[:12]}); pass "
                    f"--force to restart this run directory"
                )
            manifest = None
            if os.path.exists(paths.checkpoint):
                os.unlink(paths.checkpoint)  # keyed to the old config
    if manifest is None:
        manifest = _new_manifest(paths, config_sha)

    if os.path.abspath(config_path) != os.path.abspath(paths.config_copy):
        with open(config_path, "rb") as fh:
            data = fh.read()
        atomic_write_text(paths.config_copy, data.decode("utf-8"))
    _save_manifest(paths, manifest)
    return paths, manifest


@contextmanager
def _stage(paths: RunPaths, manifest: dict, name: str, **begin_fields):
    """Record one stage's lifecycle in the manifest around the ``with`` body.

    The entry is saved as running, with ``begin_fields``, before the body
    runs.  The body fills the yielded dict with ``outputs``, the RunPaths
    paths it wrote, and any finish fields; a clean exit saves the entry as
    complete with each output relative to the run directory.  An exception
    saves it as failed with the error as "Type: message" and propagates.
    Either way the entry closes with the stage's ``elapsed_s`` and
    ``peak_rss_mb``, the process's resident-set high-water mark at the
    stage's end (``ru_maxrss``, in KiB on Linux): it only rises, so a
    process that runs several stages records a running maximum.
    """
    entry = manifest["stages"][name] = {
        "status": "running",
        "started_utc": _utcnow(),
        **begin_fields,
    }
    _save_manifest(paths, manifest)
    started = time.perf_counter()

    def ended():
        return {
            "finished_utc": _utcnow(),
            "elapsed_s": time.perf_counter() - started,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    finish = {}
    try:
        yield finish
    except Exception as exc:
        entry.update(status="failed", **ended(),
                     error=f"{type(exc).__name__}: {exc}")
        _save_manifest(paths, manifest)
        raise
    outputs = [paths.relative(path) for path in finish.pop("outputs")]
    entry.update(status="complete", **ended(), outputs=outputs, **finish)
    _save_manifest(paths, manifest)


def stage_is_complete(paths: RunPaths, manifest: dict, name: str) -> bool:
    stage = manifest["stages"].get(name, {})
    if stage.get("status") != "complete":
        return False
    return all(
        os.path.exists(os.path.join(paths.run_dir, out))
        for out in stage.get("outputs", [])
    )


def _sweep_config(cfg: RunConfig) -> SweepConfig:
    return SweepConfig(
        cell_count=cfg.cell_count, freq_grid=cfg.freq_grid, cell=cfg.cell)


def run_stage1(cfg: RunConfig, paths: RunPaths, manifest: dict,
               workers: int = 1, progress=None) -> int:
    """Grid sweep -> records CSV + analysis JSON.  Returns failed-row count.

    The manifest's stage entry records the failed-row count and the count
    per exception type.
    """
    with _stage(paths, manifest, "stage1", workers=workers) as finish:
        records = run_sweep(
            cfg.grid, _sweep_config(cfg), cfg.metric,
            workers=workers, checkpoint_path=paths.checkpoint,
            progress=progress,
        )
        write_records_csv(paths.stage1_csv, records)
        analysis = build_analysis(cfg.grid, records, cfg.metric.cutoff)
        write_json(paths.stage1_analysis, analysis.to_document())
        # A failed record's error reads "ExceptionType: message".
        failures = Counter(r.error.partition(":")[0]
                           for r in records if r.failed)
        failed = sum(failures.values())
        finish.update(
            outputs=[paths.stage1_csv, paths.stage1_analysis,
                     paths.checkpoint],
            grid_points=cfg.grid.size, failed_points=failed,
            failures_by_type=dict(sorted(failures.items())))
    return failed


#: Dimensions the surrogate searches continuously when they have more than
#: one grid value; every other dimension is enumerated.
SEARCHED_DIMENSIONS = ("A_J", "rho_Ic", "t")


def build_search_space(cfg: RunConfig) -> SearchSpace:
    """Continuous junction area / current density / thickness; the low-
    cardinality dimensions are enumerated exactly.

    Single-valued searched dimensions are enumerated ahead of the others,
    so the combination ids keep their order.
    """
    dims = cfg.grid.dimensions
    searched = [d for d in dims if d.name in SEARCHED_DIMENSIONS and d.count > 1]
    if not searched:
        raise ConfigError(
            "grid: surrogate optimization needs at least one continuous "
            "dimension (A_J, rho_Ic or t with more than one grid point)")
    enumerated = sorted((d for d in dims if d not in searched),
                        key=lambda d: d.name not in SEARCHED_DIMENSIONS)
    return SearchSpace(
        continuous=tuple((d.name, float(d.minimum), float(d.maximum))
                         for d in searched),
        enumerated=tuple((d.name, tuple(float(v) for v in d.values()))
                         for d in enumerated))


def _score(cfg: RunConfig, sweep_cfg: SweepConfig, params: dict):
    """(Kerr-free flux, metric breakdown) of the device with raw params."""
    device = device_from_values(_dimension_values(params), cfg.cell_count)
    flux = kerr_free_flux(device.alpha)
    return flux, evaluate_point(device, flux, sweep_cfg, cfg.metric)


def make_objective(cfg: RunConfig):
    """Metric total as a function of a raw parameter dict."""
    sweep_cfg = _sweep_config(cfg)
    return lambda params: _score(cfg, sweep_cfg, params)[1].total


def nearest_table_point(params: dict) -> dict:
    """Snap each parameter to the closest production-grid value."""
    snapped = {}
    for dim in table_grid().dimensions:
        values = dim.values()
        snapped[dim.name] = float(
            values[np.argmin(np.abs(values - params[dim.name]))])
    return snapped


def run_optimize(cfg: RunConfig, paths: RunPaths, manifest: dict,
                 stage1_csv=None, seed=None, budget=None,
                 cold_start: bool = False) -> dict:
    """Surrogate optimization -> trace CSV + p* JSON.  Returns the p* doc.

    The trace holds the new evaluations and the warm-start incumbents;
    every warm-start row stays in the stage-1 records it was read from.
    """
    seed = cfg.bo_seed if seed is None else seed
    budget = cfg.bo_budget if budget is None else budget
    stage1_csv = stage1_csv or paths.stage1_csv

    warm = None
    if not cold_start:
        if not os.path.exists(stage1_csv):
            raise ConfigError(
                f"stage-1 records {stage1_csv} not found; run stage1 first "
                f"or pass --cold-start")
        warm = [(params, metric)
                for params, metric, _failed in read_records_csv(stage1_csv)]

    with _stage(paths, manifest, "optimize", seed=seed, budget=budget,
                cold_start=cold_start) as finish:
        space = build_search_space(cfg)
        try:
            result = optimize_metric(
                space, make_objective(cfg), budget=budget, seed=seed,
                warm_start=warm)
        except ValueError as exc:  # budget precondition
            raise ConfigError(str(exc)) from exc
        write_csv(paths.trace_csv, TRACE_COLUMNS, (
            (h.combo_id, h.iteration,
             *(d.kind(h.params[d.name]) for d in DIMENSIONS),
             float(h.metric), bool(h.is_incumbent))
            for h in result.history))

        flux, breakdown = _score(cfg, _sweep_config(cfg), result.best_params)
        doc = {
            "params": {n: result.best_params[n] for n in DIMENSION_NAMES},
            "cell_count": cfg.cell_count,
            "flux_ext_phi0": flux,
            "metric": breakdown.to_doc(),
            "matching_mode": cfg.metric.matching_mode,
            "nearest_grid_point": nearest_table_point(result.best_params),
            "combo_id": result.best_combo_id,
            "seed": seed,
            "budget": budget,
            "new_evaluations": result.new_evaluations,
            "warm_start_size": 0 if warm is None else len(warm),
        }
        write_json(paths.pstar_json, doc)
        finish.update(outputs=[paths.trace_csv, paths.pstar_json],
                      inputs=[os.path.basename(stage1_csv)] if warm else [])
    return doc


def _resolve_stage3_flux(cfg: RunConfig, pstar_doc: dict) -> float:
    """Stage-3 flux bias in Phi0: the configured bias (``drive.flux_phi0``
    or ``drive.flux_current_ua``, resolved at load time), else the
    Kerr-free bias recorded with p*."""
    if cfg.drive.flux_phi0 is not None:
        return cfg.drive.flux_phi0
    return float(pstar_doc["flux_ext_phi0"])


def run_stage3(cfg: RunConfig, paths: RunPaths, manifest: dict,
               pstar_path=None) -> dict:
    """Nonlinear drive sweep at p* -> s2p, per-drive gain CSVs, q* JSON.

    The configured pump amplitudes become one xi array at the resolved flux
    bias.  Drive i (from 1) that succeeds gets ``gain_profile_iii.csv``;
    every drive gets a row of ``working_points.csv`` (-inf where it
    failed), and ``qstar.json`` records the best drive and its profile.
    """
    pstar_path = pstar_path or paths.pstar_json
    if not os.path.exists(pstar_path):
        raise ConfigError(f"p* file {pstar_path} not found; run optimize first")
    pstar_doc = read_json(pstar_path)

    with _stage(paths, manifest, "stage3",
                inputs=[os.path.basename(pstar_path)]) as finish:
        device = device_from_values(_dimension_values(pstar_doc["params"]),
                                    pstar_doc["cell_count"])
        flux = _resolve_stage3_flux(cfg, pstar_doc)
        grid = metric_frequency_grid(cfg.freq_grid, cfg.metric.pump_freq)
        biased = bias_device(device, flux, grid, cfg.cell)
        write_touchstone(paths.pstar_s2p, biased.response)

        amps = cfg.drive.pump_amplitudes_ua
        drive = DriveSpec(
            pump_freq=cfg.metric.pump_freq,
            signal_band=cfg.drive.signal_band,
            signal_step=cfg.drive.signal_step,
        )
        junction = JunctionSpec(device.junction_area, device.current_density)
        wp = optimize_working_point(
            biased.dispersion, biased.expansion, device.cell_count,
            critical_current(junction), drive, amps)

        outputs = [paths.pstar_s2p, paths.working_points, paths.qstar_json]
        for i, profile in enumerate(wp.profiles, start=1):
            if profile is not None:
                path = paths.gain_profile(i)
                write_csv(path, GAIN_PROFILE_COLUMNS,
                          zip(profile.freqs, profile.gain_db,
                              profile.pump_depletion))
                outputs.append(path)
        write_csv(paths.working_points,
                  ("pump_amplitude_uA", "flux_phi0", "performance_dB"),
                  ((amp, flux, perf)
                   for amp, perf in zip(amps, wp.performance_db)))

        best = wp.best
        qstar_doc = {
            "pump_amplitude_ua": amps[best],
            "xi": float(wp.xi[best]),
            "flux_phi0": flux,
            "performance_db": float(wp.performance_db[best]),
            "pump_freq_hz": cfg.metric.pump_freq,
            "signal_band_hz": list(cfg.drive.signal_band),
            "signal_step_hz": cfg.drive.signal_step,
            "gain_profile_file": paths.relative(paths.gain_profile(best + 1)),
            "n_drive_points": len(amps),
            "n_failed_drive_points": sum(p is None for p in wp.profiles),
        }
        write_json(paths.qstar_json, qstar_doc)
        finish.update(outputs=outputs,
                      failed_drive_points=qstar_doc["n_failed_drive_points"])
    return qstar_doc


def run_report(cfg: RunConfig, paths: RunPaths, manifest: dict) -> list:
    """Plot-ready CSV tables derived from completed stage artifacts;
    returns the paths written."""
    for required in (paths.stage1_analysis, paths.pstar_json, paths.qstar_json):
        if not os.path.exists(required):
            raise PipelineError(
                f"report needs {required}; run the earlier stages first")

    with _stage(paths, manifest, "report") as finish:
        os.makedirs(paths.report_dir, exist_ok=True)
        pstar_doc = read_json(paths.pstar_json)
        analysis_doc = read_json(paths.stage1_analysis)
        qstar_doc = read_json(paths.qstar_json)

        device = device_from_values(_dimension_values(pstar_doc["params"]),
                                    pstar_doc["cell_count"])
        grid = metric_frequency_grid(cfg.freq_grid, cfg.metric.pump_freq)
        resp = simulate_linear(
            device, float(pstar_doc["flux_ext_phi0"]), grid, cfg.cell)
        disp = dispersion(resp, device.cell_count)
        f_p = cfg.metric.pump_freq
        freqs = np.unique(np.concatenate((disp.freqs, [f_p, f_p / 2.0])))
        write_csv(paths.report_dispersion,
                  ("f_Hz", "k_rad_per_cell", "two_k_half_rad_per_cell"),
                  zip(freqs, disp.sample(freqs),
                      2.0 * disp.sample(freqs / 2.0)))

        dims = analysis_doc["dimensions"]
        write_csv(paths.report_correlation, ["param", *dims],
                  ([name, *map(float, row)]
                   for name, row in zip(dims, analysis_doc["correlation"])))
        write_csv(paths.report_histograms,
                  ("dimension", "value", "weight"),
                  ((h["name"], float(v), float(w))
                   for h in analysis_doc["histograms"]
                   for v, w in zip(h["values"], h["weights"])))

        profile_file = os.path.join(paths.run_dir,
                                    qstar_doc["gain_profile_file"])
        with open(profile_file) as fh:
            atomic_write_text(paths.report_gain_qstar, fh.read())
        outputs = [paths.report_dispersion, paths.report_correlation,
                   paths.report_histograms, paths.report_gain_qstar]
        finish["outputs"] = outputs
    return outputs


def run_pipeline(config_path, cfg: RunConfig, workers: int = 1,
                 force: bool = False, progress=None) -> dict:
    """All stages in order, skipping stages already complete on disk."""
    paths, manifest = prepare_run_dir(config_path, cfg, force=force)
    runners = {
        "stage1": partial(run_stage1, workers=workers, progress=progress),
        "optimize": run_optimize,
        "stage3": run_stage3,
        "report": run_report,
    }
    with RunLock(paths):
        for name in STAGE_ORDER:
            if not stage_is_complete(paths, manifest, name):
                runners[name](cfg, paths, manifest)
    return read_json(paths.manifest)


def open_run_dir(run_dir: str):
    """Load (cfg, paths, manifest) from an existing run directory."""
    paths = RunPaths(run_dir)
    if not os.path.exists(paths.manifest):
        raise PipelineError(f"{run_dir} has no manifest")
    if not os.path.exists(paths.config_copy):
        raise PipelineError(f"{run_dir} has no config copy")
    cfg = load_config(paths.config_copy)
    manifest = read_json(paths.manifest)
    return cfg, paths, manifest
