"""Shared fixtures: the reference device, its linear response, mini configs.

The reference device (junction area 0.49 um^2, current density
0.9 uA/um^2, alpha 0.23, 9 nm dielectric, load ratios 1.5 / 1.0, pitch 3,
360 cells) is the optimizer output that most frozen expectations are pinned
to.  Simulations of it are session-scoped; everything downstream reuses
them.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from twpaopt.config import load_config
from twpaopt.metric import MetricConfig, evaluate_metric
from twpaopt.network import (
    CellConfig,
    DeviceParams,
    FrequencyGrid,
    build_cells,
    dispersion,
    linear_sparams,
    simulate_linear,
    wavenumbers,
)
from twpaopt.snail import JunctionSpec, SnailSpec, expand_potential, kerr_free_flux
from twpaopt.sweep import enumerate_grid, metric_frequency_grid

DESK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "desk.json"

REF_DEVICE = dict(
    junction_area=0.49,
    current_density=0.9,
    alpha=0.23,
    dielectric_thickness=9.0,
    inductance_load_ratio=1.5,
    capacitance_load_ratio=1.0,
    pitch=3,
    cell_count=360,
)

REF_BAND = (4.75e9, 6.75e9)
REF_PUMP = 11.5e9


@pytest.fixture(scope="session")
def ref_device():
    return DeviceParams(**REF_DEVICE)


@pytest.fixture(scope="session")
def ref_flux(ref_device):
    return kerr_free_flux(ref_device.alpha)


@pytest.fixture(scope="session")
def ref_grid():
    # 0..24 GHz at 10 MHz: 2401 points, covers the band and 2 f_p = 23 GHz.
    return FrequencyGrid(0.0, 24e9, 1e7)


@pytest.fixture(scope="session")
def ref_response(ref_device, ref_flux, ref_grid):
    return simulate_linear(ref_device, ref_flux, ref_grid, CellConfig())


@pytest.fixture(scope="session")
def ref_dispersion(ref_response, ref_device):
    return dispersion(ref_response, ref_device.cell_count)


@pytest.fixture(scope="session")
def ref_breakdown(ref_response, ref_dispersion):
    cfg = MetricConfig(matching_mode="direct", band=REF_BAND, pump_freq=REF_PUMP)
    return evaluate_metric(ref_response, ref_dispersion, cfg)


@pytest.fixture(scope="session")
def desk_batch():
    """desk_batch(pitch): the first 16 desk grid points of one pitch.

    The devices go through one ``linear_sparams`` batch on the sweep's
    grid, as stage 1 simulates them; the namespace holds the desk config,
    the devices and their fluxes, the stacked cells, the grid, its
    frequencies, (s11, s21, s12, s22) and the unwrapped wavenumbers k.
    """
    cache = {}

    def get(pitch):
        if pitch not in cache:
            cfg = load_config(DESK_CONFIG)
            devices = enumerate_grid(cfg.grid, cfg.cell_count)[pitch - 2:32:2]
            assert {d.pitch for d in devices} == {pitch}
            fluxes = [kerr_free_flux(d.alpha) for d in devices]
            grid = metric_frequency_grid(cfg.freq_grid, cfg.metric.pump_freq)
            freqs = grid.freqs()
            sparams = linear_sparams(devices, fluxes, grid, cfg.cell)
            cache[pitch] = SimpleNamespace(
                cfg=cfg, devices=devices, fluxes=fluxes,
                cells=build_cells(devices, fluxes, cfg.cell),
                grid=grid, freqs=freqs, sparams=sparams,
                k=wavenumbers(freqs, sparams[1], cfg.cell_count))
        return cache[pitch]

    return get


@pytest.fixture(scope="session")
def ref_expansion(ref_device, ref_flux):
    junction = JunctionSpec(ref_device.junction_area, ref_device.current_density)
    return expand_potential(
        SnailSpec(small_junction=junction, alpha=ref_device.alpha, flux_ext=ref_flux)
    )


def mini_config_doc(output_dir, **overrides):
    """A two-point pipeline configuration that runs in about a second."""
    doc = {
        "output_dir": str(output_dir),
        "cell_count": 60,
        "grid": {
            "A_J": {"min": 0.3, "max": 0.6, "step": 0.3},
            "rho_Ic": {"min": 0.9, "max": 0.9, "step": 0.1},
            "alpha": {"min": 0.23, "max": 0.23, "step": 0.02},
            "t": {"min": 9.0, "max": 9.0, "step": 1.0},
            "L_load": {"min": 1.5, "max": 1.5, "step": 0.5},
            "C_load": {"min": 1.0, "max": 1.0, "step": 0.5},
            "pitch": {"min": 2, "max": 2, "step": 1},
        },
        "frequency": {"start_ghz": 0.0, "stop_ghz": 24.0, "step_ghz": 0.05},
        "metric": {
            "matching_mode": "direct",
            "band_ghz": [4.75, 6.75],
            "pump_freq_ghz": 11.5,
            "cutoff": 50.0,
        },
        "bayesopt": {"budget": 12, "seed": 0},
        "drive": {
            "pump_amplitudes_ua": [0.1, 0.3],
            "signal_band_ghz": [4.75, 6.75],
            "signal_step_ghz": 0.25,
        },
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def mini_config(tmp_path):
    """Write a mini config into tmp_path; returns (config_path, run_dir)."""

    def _write(name="mini.json", **overrides):
        run_dir = tmp_path / "run"
        doc = mini_config_doc(run_dir, **overrides)
        path = tmp_path / name
        path.write_text(json.dumps(doc, indent=2))
        return path, run_dir

    return _write
