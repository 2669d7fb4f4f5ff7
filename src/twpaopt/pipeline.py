"""Three-stage batch orchestration with a manifest and resumable run dirs.

A run directory is owned by one pipeline invocation at a time (lock file)
and carries a manifest recording the config hash, per-stage status and the
artifact listing.  Stages: grid sweep -> surrogate optimization -> nonlinear
gain, plus a pure reporting step that re-emits plot-ready tables.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .bayesopt import SearchSpace, optimize_metric
from .config import ConfigError, RunConfig, load_config
from .fileio import atomic_write_text, read_json, sha256_of_file, write_csv, write_json
from .metric import MetricBreakdown
from .mixing import GAIN_PROFILE_COLUMNS, DriveSpec, optimize_working_point
from .network import DeviceParams, dispersion, simulate_linear
from .snail import (
    JunctionSpec,
    SnailSpec,
    critical_current,
    expand_potential,
    kerr_free_flux,
)
from .sweep import (
    DIMENSION_NAMES,
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

TOOL_VERSION = "0.1.0"

STAGE_ORDER = ("stage1", "optimize", "stage3", "report")

TRACE_COLUMNS = ("combo_id", "iteration") + DIMENSION_NAMES + (
    "metric_total", "is_incumbent")


class PipelineError(RuntimeError):
    """Unrecoverable runtime failure inside a stage."""


@dataclass(frozen=True)
class RunPaths:
    """Canonical artifact locations inside one run directory."""

    run_dir: str

    def _p(self, name):
        return os.path.join(self.run_dir, name)

    @property
    def manifest(self):
        return self._p("manifest.json")

    @property
    def config_copy(self):
        return self._p("config.json")

    @property
    def lock(self):
        return self._p("lock")

    @property
    def checkpoint(self):
        return self._p("stage1_checkpoint.jsonl")

    @property
    def stage1_csv(self):
        return self._p("stage1_records.csv")

    @property
    def stage1_analysis(self):
        return self._p("stage1_analysis.json")

    @property
    def trace_csv(self):
        return self._p("optimize_trace.csv")

    @property
    def pstar_json(self):
        return self._p("pstar.json")

    @property
    def pstar_s2p(self):
        return self._p("pstar.s2p")

    @property
    def working_points(self):
        return self._p("working_points.csv")

    @property
    def qstar_json(self):
        return self._p("qstar.json")

    def gain_profile(self, i):
        return self._p(f"gain_profile_{i:03d}.csv")

    @property
    def report_dir(self):
        return self._p("report")

    def report_file(self, name):
        return os.path.join(self.report_dir, name)


class RunLock:
    """Exclusive run-directory ownership via an O_EXCL lock file."""

    def __init__(self, paths: RunPaths):
        self.path = paths.lock
        self._fh = None

    def __enter__(self):
        try:
            self._fh = open(self.path, "x")
        except FileExistsError:
            raise PipelineError(
                f"run directory is locked by another process; remove "
                f"{self.path} if that run is no longer alive"
            ) from None
        self._fh.write(f"{os.getpid()}\n")
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


def _new_manifest(config_sha: str) -> dict:
    return {
        "tool_version": TOOL_VERSION,
        "config_file": "config.json",
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
        manifest = _new_manifest(config_sha)

    if os.path.abspath(config_path) != os.path.abspath(paths.config_copy):
        with open(config_path, "rb") as fh:
            data = fh.read()
        atomic_write_text(paths.config_copy, data.decode("utf-8"))
    _save_manifest(paths, manifest)
    return paths, manifest


def _stage_begin(paths, manifest, name, **extra):
    manifest["stages"][name] = {
        "status": "running",
        "started_utc": _utcnow(),
        **extra,
    }
    _save_manifest(paths, manifest)


def _stage_finish(paths, manifest, name, outputs, **extra):
    stage = manifest["stages"][name]
    stage.update(status="complete", finished_utc=_utcnow(),
                 outputs=list(outputs), **extra)
    _save_manifest(paths, manifest)


def _stage_fail(paths, manifest, name, exc):
    manifest["stages"][name].update(
        status="failed", finished_utc=_utcnow(),
        error=f"{type(exc).__name__}: {exc}")
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
    """Grid sweep -> records CSV + analysis JSON.  Returns failed-row count."""
    _stage_begin(paths, manifest, "stage1", workers=workers)
    try:
        records = run_sweep(
            cfg.grid, _sweep_config(cfg), cfg.metric,
            workers=workers, checkpoint_path=paths.checkpoint,
            progress=progress,
        )
        write_records_csv(paths.stage1_csv, records)
        analysis = build_analysis(cfg.grid, records, cfg.metric.cutoff)
        write_json(paths.stage1_analysis, analysis.to_document())
    except Exception as exc:
        _stage_fail(paths, manifest, "stage1", exc)
        raise
    failed = sum(1 for r in records if r.failed)
    _stage_finish(
        paths, manifest, "stage1",
        ["stage1_records.csv", "stage1_analysis.json",
         "stage1_checkpoint.jsonl"],
        grid_points=cfg.grid.size, failed_points=failed)
    return failed


def build_search_space(cfg: RunConfig) -> SearchSpace:
    """Continuous junction area / current density / thickness; the low-
    cardinality dimensions are enumerated exactly."""
    grid = cfg.grid
    continuous, enumerated = [], []
    for name, dim in (("A_J", grid.a_j), ("rho_Ic", grid.rho_ic), ("t", grid.t)):
        if dim.count == 1:
            enumerated.append((name, (float(dim.minimum),)))
        else:
            continuous.append((name, float(dim.minimum), float(dim.maximum)))
    for name, dim in (("alpha", grid.alpha), ("L_load", grid.l_load),
                      ("C_load", grid.c_load), ("pitch", grid.pitch)):
        enumerated.append((name, tuple(float(v) for v in dim.values())))
    if not continuous:
        raise ConfigError(
            "grid: surrogate optimization needs at least one continuous "
            "dimension (A_J, rho_Ic or t with more than one grid point)")
    return SearchSpace(continuous=tuple(continuous), enumerated=tuple(enumerated))


def make_objective(cfg: RunConfig):
    """Metric total as a function of a raw parameter dict."""
    sweep_cfg = _sweep_config(cfg)

    def objective(params: dict) -> float:
        device = device_from_values(
            [params[name] for name in DIMENSION_NAMES], cfg.cell_count)
        flux = kerr_free_flux(device.alpha)
        return evaluate_point(device, flux, sweep_cfg, cfg.metric).total

    return objective


def nearest_table_point(params: dict) -> dict:
    """Snap each parameter to the closest production-grid value."""
    table = table_grid()
    snapped = {}
    for name, dim in zip(DIMENSION_NAMES, table.dims()):
        values = dim.values()
        snapped[name] = float(values[np.argmin(np.abs(values - params[name]))])
    return snapped


def _breakdown_doc(b: MetricBreakdown) -> dict:
    return {
        "matching_term": b.matching_term,
        "phase_term": b.phase_term,
        "harmonic_term": b.harmonic_term,
        "total": b.total,
        "band_mean_s11_re": float(np.real(b.band_mean_s11)),
        "band_mean_s11_im": float(np.imag(b.band_mean_s11)),
        "delta_k": b.delta_k,
        "matching_capped": b.matching_capped,
    }


def run_optimize(cfg: RunConfig, paths: RunPaths, manifest: dict,
                 stage1_csv=None, seed=None, budget=None,
                 cold_start: bool = False) -> dict:
    """Surrogate optimization -> trace CSV + p* JSON.  Returns the p* doc."""
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

    _stage_begin(paths, manifest, "optimize", seed=seed, budget=budget,
                 cold_start=cold_start)
    try:
        space = build_search_space(cfg)
        try:
            result = optimize_metric(
                space, make_objective(cfg), budget=budget, seed=seed,
                warm_start=warm)
        except ValueError as exc:  # budget precondition
            raise ConfigError(str(exc)) from exc
        write_csv(paths.trace_csv, TRACE_COLUMNS, (
            (h.combo_id, h.iteration,
             *(int(round(h.params[n])) if n == "pitch" else float(h.params[n])
               for n in DIMENSION_NAMES),
             float(h.metric), bool(h.is_incumbent))
            for h in result.history))

        device = device_from_values(
            [result.best_params[n] for n in DIMENSION_NAMES], cfg.cell_count)
        flux = kerr_free_flux(device.alpha)
        breakdown = evaluate_point(device, flux, _sweep_config(cfg), cfg.metric)
        doc = {
            "params": {n: result.best_params[n] for n in DIMENSION_NAMES},
            "cell_count": cfg.cell_count,
            "flux_ext_phi0": flux,
            "metric": _breakdown_doc(breakdown),
            "matching_mode": cfg.metric.matching_mode,
            "nearest_grid_point": nearest_table_point(result.best_params),
            "combo_id": result.best_combo_id,
            "seed": seed,
            "budget": budget,
            "new_evaluations": result.new_evaluations,
            "warm_start_size": 0 if warm is None else len(warm),
        }
        write_json(paths.pstar_json, doc)
    except Exception as exc:
        _stage_fail(paths, manifest, "optimize", exc)
        raise
    _stage_finish(paths, manifest, "optimize",
                  ["optimize_trace.csv", "pstar.json"],
                  inputs=[os.path.basename(stage1_csv)] if warm else [])
    return doc


def _device_from_doc(doc: dict) -> DeviceParams:
    params = doc["params"]
    return device_from_values(
        [params[n] for n in DIMENSION_NAMES], int(doc["cell_count"]))


def _resolve_stage3_flux(cfg: RunConfig, pstar_doc: dict) -> float:
    """Stage-3 flux bias in Phi0: ``drive.flux_phi0``, else
    ``drive.flux_current_ua`` through ``cell.mutual_phi0_per_ua``, else the
    Kerr-free bias recorded with p*."""
    drive = cfg.drive
    if drive.flux_phi0 is not None:
        return float(drive.flux_phi0)
    if drive.flux_current_ua is not None:
        mutual = cfg.cell.mutual_phi0_per_ua
        if mutual is None:
            raise ConfigError(
                "drive.flux_current_ua requires cell.mutual_phi0_per_ua")
        return float(drive.flux_current_ua) * mutual
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

    _stage_begin(paths, manifest, "stage3",
                 inputs=[os.path.basename(pstar_path)])
    try:
        device = _device_from_doc(pstar_doc)
        junction = JunctionSpec(device.junction_area, device.current_density)
        flux = _resolve_stage3_flux(cfg, pstar_doc)

        grid = metric_frequency_grid(cfg.freq_grid, cfg.metric.pump_freq)
        resp = simulate_linear(device, flux, grid, cfg.cell)
        disp = dispersion(resp, device.cell_count)
        write_touchstone(paths.pstar_s2p, resp)

        expansion = expand_potential(
            SnailSpec(small_junction=junction, alpha=device.alpha,
                      flux_ext=flux))
        amps = cfg.drive.pump_amplitudes_ua
        drive = DriveSpec(
            pump_freq=cfg.metric.pump_freq,
            signal_band=cfg.drive.signal_band,
            signal_step=cfg.drive.signal_step,
        )
        wp = optimize_working_point(
            disp, expansion, device.cell_count, critical_current(junction),
            drive, amps)

        outputs = ["pstar.s2p", "working_points.csv", "qstar.json"]
        for i, profile in enumerate(wp.profiles, start=1):
            if profile is not None:
                path = paths.gain_profile(i)
                write_csv(path, GAIN_PROFILE_COLUMNS,
                          zip(profile.freqs, profile.gain_db,
                              profile.pump_depletion))
                outputs.append(os.path.basename(path))
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
            "gain_profile_file": os.path.basename(paths.gain_profile(best + 1)),
            "n_drive_points": len(amps),
            "n_failed_drive_points": sum(p is None for p in wp.profiles),
        }
        write_json(paths.qstar_json, qstar_doc)
    except Exception as exc:
        _stage_fail(paths, manifest, "stage3", exc)
        raise
    _stage_finish(paths, manifest, "stage3", outputs)
    return qstar_doc


def run_report(cfg: RunConfig, paths: RunPaths, manifest: dict) -> list:
    """Plot-ready CSV tables derived from completed stage artifacts."""
    for required in (paths.stage1_analysis, paths.pstar_json, paths.qstar_json):
        if not os.path.exists(required):
            raise PipelineError(
                f"report needs {required}; run the earlier stages first")

    _stage_begin(paths, manifest, "report")
    try:
        os.makedirs(paths.report_dir, exist_ok=True)
        pstar_doc = read_json(paths.pstar_json)
        analysis_doc = read_json(paths.stage1_analysis)
        qstar_doc = read_json(paths.qstar_json)

        device = _device_from_doc(pstar_doc)
        grid = metric_frequency_grid(cfg.freq_grid, cfg.metric.pump_freq)
        resp = simulate_linear(
            device, float(pstar_doc["flux_ext_phi0"]), grid, cfg.cell)
        disp = dispersion(resp, device.cell_count)
        f_p = cfg.metric.pump_freq
        freqs = np.unique(np.concatenate((disp.freqs, [f_p, f_p / 2.0])))
        write_csv(paths.report_file("dispersion.csv"),
                  ("f_Hz", "k_rad_per_cell", "two_k_half_rad_per_cell"),
                  zip(freqs, disp.sample(freqs),
                      2.0 * disp.sample(freqs / 2.0)))

        dims = analysis_doc["dimensions"]
        write_csv(paths.report_file("correlation.csv"), ["param", *dims],
                  ([name, *map(float, row)]
                   for name, row in zip(dims, analysis_doc["correlation"])))
        write_csv(paths.report_file("histograms.csv"),
                  ("dimension", "value", "weight"),
                  ((h["name"], float(v), float(w))
                   for h in analysis_doc["histograms"]
                   for v, w in zip(h["values"], h["weights"])))

        profile_file = qstar_doc.get("gain_profile_file")
        outputs = ["report/dispersion.csv", "report/correlation.csv",
                   "report/histograms.csv"]
        if profile_file:
            with open(os.path.join(paths.run_dir, profile_file)) as fh:
                atomic_write_text(paths.report_file("gain_qstar.csv"), fh.read())
            outputs.append("report/gain_qstar.csv")
    except Exception as exc:
        _stage_fail(paths, manifest, "report", exc)
        raise
    _stage_finish(paths, manifest, "report", outputs)
    return outputs


def run_pipeline(config_path, cfg: RunConfig, workers: int = 1,
                 force: bool = False, progress=None) -> dict:
    """All stages in order, skipping stages already complete on disk."""
    paths, manifest = prepare_run_dir(config_path, cfg, force=force)
    with RunLock(paths):
        if not stage_is_complete(paths, manifest, "stage1"):
            run_stage1(cfg, paths, manifest, workers=workers,
                       progress=progress)
        if not stage_is_complete(paths, manifest, "optimize"):
            run_optimize(cfg, paths, manifest)
        if not stage_is_complete(paths, manifest, "stage3"):
            run_stage3(cfg, paths, manifest)
        if not stage_is_complete(paths, manifest, "report"):
            run_report(cfg, paths, manifest)
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
