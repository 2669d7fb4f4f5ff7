"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS/FAIL line with the measured numbers so the
whole gate can be audited from the console output, then asserts.  The
desk-scale pipeline run is session-scoped and shared by the end-to-end and
phase-matching checks.
"""

import csv
import json
import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import REF_BAND, REF_PUMP
from oracles import (
    chain_abcd,
    cme_rk4,
    kerr_free_flux_scan,
    nodal_ladder_sparams,
    undepleted_gain,
)

from twpaopt.bayesopt import GpModel, SearchSpace, optimize_metric, posterior
from twpaopt.config import load_config
from twpaopt.metric import MetricConfig, evaluate_metric
from twpaopt.mixing import DriveSpec, gain_profile, idler_power, performance
from twpaopt.network import (
    CellConfig,
    CellImmittance,
    DeviceParams,
    DispersionCurve,
    FrequencyGrid,
    TwoPortResponse,
    abcd_to_s,
    cascade,
    dispersion,
    simulate_linear,
)
from twpaopt.pipeline import run_pipeline
from twpaopt.snail import (
    JunctionSpec,
    SnailSpec,
    expand_potential,
    kerr_free_flux,
)
from twpaopt.sweep import table_grid

JUNCTION = JunctionSpec(area=0.49, current_density=0.9)


def verdict(capsys, num, label, ok, detail):
    with capsys.disabled():
        print(f"acceptance {num:02d} {'PASS' if ok else 'FAIL'}  "
              f"{label}: {detail}", flush=True)
    assert ok, f"criterion {num:02d} ({label}): {detail}"


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    """The reduced end-to-end pipeline, run once and inspected twice."""
    base = tmp_path_factory.mktemp("desk")
    run_dir = base / "run"
    source = Path(__file__).resolve().parents[1] / "configs" / "desk.json"
    doc = json.loads(source.read_text())
    doc["output_dir"] = str(run_dir)
    config_path = base / "desk.json"
    config_path.write_text(json.dumps(doc, indent=2))

    start = time.perf_counter()
    manifest = run_pipeline(config_path, load_config(config_path), workers=1)
    elapsed = time.perf_counter() - start
    return SimpleNamespace(run_dir=run_dir, manifest=manifest, elapsed=elapsed)


def test_criterion_01_cascade_matches_nodal_solver(capsys):
    rng = np.random.default_rng(20240917)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        inductances = 10.0 ** rng.uniform(-10.0, -8.0, size=n)
        capacitances = 10.0 ** rng.uniform(-14.0, -11.0, size=n)
        freqs = np.sort(rng.uniform(2e8, 2.5e10, size=12))
        z0 = float(rng.uniform(20.0, 80.0))

        cells = [CellImmittance(l, c)
                 for l, c in zip(inductances, capacitances)]
        # det=1.0: lossless LC chains are reciprocal by construction, and
        # the numerical determinant cancels catastrophically in stopbands.
        s11, s21, s12, s22 = abcd_to_s(chain_abcd(cells, freqs), z0, det=1.0)
        ref = nodal_ladder_sparams(inductances, capacitances, freqs, z0)
        worst = max(
            worst,
            float(np.max(np.abs(s11 - ref[:, 0, 0]))),
            float(np.max(np.abs(s12 - ref[:, 0, 1]))),
            float(np.max(np.abs(s21 - ref[:, 1, 0]))),
            float(np.max(np.abs(s22 - ref[:, 1, 1]))),
        )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    verdict(capsys, 1, "cascade vs nodal solver, 50 random chains", ok,
            f"max |dS| {worst:.3e} (<1e-9), {elapsed:.2f} s (<5 s)")


def test_criterion_02_losslessness_and_reciprocity(ref_response, capsys):
    power_dev = float(np.max(np.abs(
        np.abs(ref_response.s11) ** 2 + np.abs(ref_response.s21) ** 2 - 1.0)))
    recip_dev = float(np.max(np.abs(ref_response.s12 - ref_response.s21)))
    points = ref_response.freqs.size
    ok = points == 2401 and power_dev < 1e-9 and recip_dev < 1e-12
    verdict(capsys, 2, "losslessness and reciprocity at the optimum", ok,
            f"max power dev {power_dev:.3e} (<1e-9), max |S12-S21| "
            f"{recip_dev:.3e} (<1e-12), {points} points")


def test_criterion_03_uniform_ladder_dispersion(capsys):
    l_cell, c_cell = 2.5e-9, 1.0e-12  # z0 = 50 ohm exactly
    f_cut = 1.0 / (math.pi * math.sqrt(l_cell * c_cell))
    n = 1 << 19  # deep chain so the Bloch ripple ~1/N drops below 1e-6

    device = DeviceParams(
        junction_area=1.0, current_density=1.0, alpha=0.25,
        dielectric_thickness=10.0, inductance_load_ratio=1.0,
        capacitance_load_ratio=1.0, pitch=2, cell_count=n)
    cell = CellImmittance(l_cell, c_cell)
    grid = FrequencyGrid(0.0, 0.9 * f_cut, 6e3)
    total = cascade(device, grid, (cell, cell))
    s11, s21, s12, s22 = abcd_to_s(
        total.matrices, 50.0, log_scale=total.log_scale, det=1.0)
    resp = TwoPortResponse(freqs=grid.freqs(), s11=s11, s21=s21,
                           s12=s12, s22=s22)
    k = dispersion(resp, n).k

    w = 2.0 * np.pi * grid.freqs()
    k_ref = np.arccos(np.clip(1.0 - 0.5 * w * w * l_cell * c_cell, -1.0, 1.0))
    err = float(np.max(np.abs(k - k_ref)))
    ok = err < 1e-6
    verdict(capsys, 3, "uniform ladder dispersion", ok,
            f"max |k - acos(1 - w^2 LC / 2)| = {err:.3e} rad (<1e-6) "
            f"below 0.9 f_c over {grid.points} points")


def test_criterion_04_loop_potential_and_kerr_free_bias(capsys):
    worst_c3 = 0.0
    for alpha in (0.10, 0.15, 0.20, 0.23, 0.25, 0.29, 0.32):
        exp = expand_potential(
            SnailSpec(small_junction=JUNCTION, alpha=alpha, flux_ext=0.0))
        worst_c3 = max(worst_c3, abs(exp.c3) / exp.c2)

    worst_flux = 0.0
    in_window = True
    for alpha in (0.23, 0.25):
        root = kerr_free_flux(alpha)
        scan = kerr_free_flux_scan(alpha, n_flux=10000)
        in_window = in_window and 0.2 < root < 0.5
        worst_flux = max(worst_flux, abs(root - scan))

    ok = worst_c3 < 1e-12 and in_window and worst_flux < 1e-6
    verdict(capsys, 4, "zero-flux c3 and Kerr-free bias", ok,
            f"max |c3|/c2 at zero flux {worst_c3:.3e} (<1e-12), roots in "
            f"(0.2, 0.5), max |root - scan| {worst_flux:.3e} (<1e-6)")


def _synthetic_metric_inputs(mean_s11, dk, mag_2fp):
    freqs = np.array([0.0, 4.0e9, REF_BAND[0], REF_BAND[1], 7.0e9,
                      2.0 * REF_PUMP, 25.0e9])
    s11 = np.array([0.0, mean_s11, mean_s11, mean_s11, mean_s11,
                    mag_2fp, mag_2fp], dtype=complex)
    s21 = np.sqrt(np.maximum(1.0 - np.abs(s11) ** 2, 0.0)).astype(complex)
    resp = TwoPortResponse(freqs=freqs, s11=s11, s21=s21, s12=s21,
                           s22=s11.copy())
    disp = DispersionCurve(
        freqs=np.array([0.0, REF_PUMP / 2.0, REF_PUMP, 25.0e9]),
        k=np.array([0.0, 1.0, 2.0 + dk, 4.0]))
    return resp, disp


def test_criterion_05_metric_arithmetic_and_table_size(capsys):
    resp, disp = _synthetic_metric_inputs(0.1, 0.01, 0.9)
    totals = {}
    for mode in ("verbatim", "direct"):
        cfg = MetricConfig(matching_mode=mode, band=REF_BAND,
                           pump_freq=REF_PUMP)
        totals[mode] = evaluate_metric(resp, disp, cfg).total
    dev_v = abs(totals["verbatim"] - 109.01)
    dev_d = abs(totals["direct"] - 10.01)
    size = table_grid().size
    ok = dev_v < 1e-12 and dev_d < 1e-12 and size == 38720
    verdict(capsys, 5, "metric arithmetic and table enumeration", ok,
            f"verbatim dev {dev_v:.2e}, direct dev {dev_d:.2e} (<1e-12), "
            f"grid size {size} (== 38720)")


def test_criterion_06_surrogate_convergence(capsys):
    start = time.perf_counter()
    target = {"x0": 0.62, "x1": 0.31, "x2": 0.44}
    space = SearchSpace(
        continuous=tuple((name, 0.0, 1.0) for name in target))

    def objective(params):
        return 0.5 + sum((params[n] - target[n]) ** 2 for n in target)

    hits = 0
    worst = []
    for seed in range(5):
        result = optimize_metric(space, objective, budget=150, seed=seed)
        dev = max(abs(result.best_params[n] - target[n]) for n in target)
        worst.append(dev)
        hits += dev <= 1e-2

    rng = np.random.default_rng(0)
    x = rng.uniform(size=(18, 2))
    y = np.sin(3.0 * x[:, 0]) + 0.5 * np.cos(5.0 * x[:, 1])
    model = GpModel.build(x, y, signal_variance=1.0,
                          length_scales=[0.3, 0.3], noise_variance=1e-10)
    mean, _ = posterior(model, x)
    interp = float(np.max(np.abs(mean - y)))

    elapsed = time.perf_counter() - start
    ok = hits >= 4 and interp < 1e-6 and elapsed < 60.0
    verdict(capsys, 6, "surrogate optimizer convergence", ok,
            f"{hits}/5 seeds within 1e-2 (per-seed max dev "
            f"{', '.join(f'{d:.1e}' for d in worst)}), interpolation "
            f"{interp:.1e} (<1e-6), {elapsed:.1f} s (<60 s)")


def test_criterion_07_coupled_mode_validity(ref_dispersion, ref_expansion,
                                            capsys):
    n = 360
    worst_rel = 0.0
    for g0n, dkn in [(0.5, 0.0), (2.0, 1.0), (4.0, 3.0), (6.0, 0.0),
                     (6.0, 4.0), (2.0, 8.0), (1.0, 12.0)]:
        g0, dk = g0n / n, dkn / n
        seed = 1e-6 * 0.2
        exact = 1.0 + idler_power(g0 / 0.2, dk, seed, 0.2, n) / seed**2
        analytic = undepleted_gain(g0, dk, n)
        worst_rel = max(worst_rel, abs(exact / analytic - 1.0))

    # Depleted pump, against direct integration: the largest deviation of
    # any photon flux along the line, where Manley-Rowe is not imposed.
    kappa, dk, s0, p0 = 4.0 / n / 0.3, 0.003, 1e-2 * 0.3, 0.3
    xs, path = cme_rk4(kappa, dk, (s0, 0.0, p0), n, 0.05)
    u = idler_power(kappa, dk, s0, p0, xs)
    drift = max(float(np.max(np.abs(np.abs(path[:, j]) ** 2 - ref)))
                for j, ref in enumerate((s0 * s0 + u, u, p0 * p0 - u)))

    quiet = gain_profile(
        ref_dispersion, ref_expansion,
        DriveSpec(pump_freq=REF_PUMP, signal_band=REF_BAND,
                  signal_step=0.05e9),
        n_cells=n, xi=0.0)
    quiet_db = float(np.max(np.abs(quiet.gain_db)))

    ok = worst_rel < 1e-6 and drift < 1e-8 and quiet_db < 1e-9
    verdict(capsys, 7, "coupled-mode gain validity", ok,
            f"undepleted rel dev {worst_rel:.3e} (<1e-6), photon-flux dev "
            f"{drift:.3e} (<1e-8), zero-pump gain {quiet_db:.3e} dB (<1e-9)")


def test_criterion_08_single_simulation_time(ref_device, ref_flux, ref_grid,
                                             capsys):
    start = time.perf_counter()
    resp = simulate_linear(ref_device, ref_flux, ref_grid, CellConfig())
    elapsed = time.perf_counter() - start
    ok = elapsed <= 2.0 and resp.freqs.size == 2401
    verdict(capsys, 8, "single optimum-device simulation", ok,
            f"{elapsed * 1e3:.1f} ms for 360 cells x 2401 points (<=2 s)")


def test_criterion_09_desk_scale_end_to_end(desk_run, capsys):
    manifest = desk_run.manifest
    statuses = {name: stage["status"]
                for name, stage in manifest["stages"].items()}
    all_complete = set(statuses.values()) == {"complete"}
    grid_points = manifest["stages"]["stage1"].get("grid_points")

    listed = {"manifest.json", manifest["config_file"]}
    for stage in manifest["stages"].values():
        listed.update(stage.get("outputs", []))
    on_disk = {str(p.relative_to(desk_run.run_dir))
               for p in desk_run.run_dir.rglob("*") if p.is_file()}
    manifest_complete = listed == on_disk

    pstar = json.loads((desk_run.run_dir / "pstar.json").read_text())
    with open(desk_run.run_dir / "stage1_records.csv") as fh:
        grid_best = min(float(row["metric_total"])
                        for row in csv.DictReader(fh)
                        if row["failed"] == "false")
    p_total = pstar["metric"]["total"]
    qstar = json.loads((desk_run.run_dir / "qstar.json").read_text())

    ok = (desk_run.elapsed < 600.0 and all_complete and grid_points == 2048
          and manifest_complete and p_total <= grid_best + 1e-12
          and qstar["n_drive_points"] == 9)
    verdict(capsys, 9, "desk-scale pipeline end to end", ok,
            f"{desk_run.elapsed:.1f} s (<600), stages {statuses}, "
            f"{grid_points} grid points, manifest lists {len(listed)} files "
            f"({'complete' if manifest_complete else 'INCOMPLETE'}), "
            f"p* {p_total:.6g} <= grid best {grid_best:.6g}")


def test_criterion_10_twenty_db_working_point(ref_dispersion, ref_expansion,
                                              capsys):
    def band_gain(xi):
        profile = gain_profile(
            ref_dispersion, ref_expansion,
            DriveSpec(pump_freq=REF_PUMP, signal_band=REF_BAND,
                      signal_step=0.05e9),
            n_cells=360, xi=xi)
        return performance(profile), profile

    lo, hi = 1e-3, 0.499
    xi = hi
    perf, profile = band_gain(hi)
    assert perf > 21.0, "upper bracket should overshoot 20 dB"
    for _ in range(30):
        xi = 0.5 * (lo + hi)
        perf, profile = band_gain(xi)
        if abs(perf - 20.0) < 0.25:
            break
        if perf < 20.0:
            lo = xi
        else:
            hi = xi
    gain_ok = 19.0 <= perf <= 21.0

    f_s = profile.freqs
    k_s = ref_dispersion.sample(f_s)
    k_i = ref_dispersion.sample(REF_PUMP - f_s)
    k_p = float(ref_dispersion.sample(REF_PUMP))
    mismatch = np.abs(k_p - k_s - k_i)
    i_peak = int(np.argmax(profile.gain_db))
    i_match = int(np.argmin(mismatch))
    # Gain and mismatch are symmetric under f_s -> f_p - f_s; accept the
    # mirrored position too.
    i_mirror = int(np.argmin(np.abs(f_s - (REF_PUMP - f_s[i_match]))))
    steps = min(abs(i_peak - i_match), abs(i_peak - i_mirror))
    peak_ok = steps <= 2

    ok = gain_ok and peak_ok
    verdict(capsys, 10, "20 dB working point via pump bisection", ok,
            f"xi {xi:.4f} -> band mean {perf:.2f} dB (in [19, 21]), gain "
            f"peak {steps} grid steps from the phase-matched point (<=2)")


def test_criterion_11_phase_matching_improved(desk_run, capsys):
    pstar = json.loads((desk_run.run_dir / "pstar.json").read_text())
    dk_star = abs(pstar["metric"]["delta_k"])

    with open(desk_run.run_dir / "report" / "dispersion.csv") as fh:
        rows = list(csv.DictReader(fh))
    pump_row = next(r for r in rows if float(r["f_Hz"]) == 11.5e9)
    table_gap = abs(float(pump_row["k_rad_per_cell"])
                    - float(pump_row["two_k_half_rad_per_cell"]))

    with open(desk_run.run_dir / "stage1_records.csv") as fh:
        grid_dk = np.array([float(row["phase_term"])  # weight_b is 1.0 here
                            for row in csv.DictReader(fh)
                            if row["failed"] == "false"])
    pctile_90 = float(np.percentile(grid_dk, 90.0))

    ok = table_gap <= dk_star + 1e-12 and dk_star < pctile_90
    verdict(capsys, 11, "phase matching at the optimum", ok,
            f"|k(f_p) - 2 k(f_p/2)| {table_gap:.6g} vs reported dk "
            f"{dk_star:.6g}, below 90th percentile {pctile_90:.6g} "
            f"of the sweep")
