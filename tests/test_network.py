"""Chain-matrix cascade, S-parameter conversion, dispersion extraction."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bloch_wavenumber,
    chain_abcd,
    nodal_ladder_sparams,
    periodic_cell_sequence,
    plain_abcd,
)
from twpaopt.network import (
    CascadedAbcd,
    CellConfig,
    CellImmittance,
    ConfigurationError,
    DeviceParams,
    FrequencyGrid,
    SimulationError,
    TwoPortResponse,
    abcd_to_s,
    build_cells,
    cascade,
    cell_abcd,
    dispersion,
    gate_capacitance,
    simulate_linear,
)
from twpaopt.config import load_config
from twpaopt.constants import VACUUM_PERMITTIVITY
from twpaopt.snail import kerr_free_flux
from twpaopt.sweep import device_from_values, metric_frequency_grid

DESK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "desk.json"


def dummy_device(pitch, cell_count):
    """Carrier for (pitch, cell_count) when cells are supplied explicitly."""
    return DeviceParams(
        junction_area=1.0,
        current_density=1.0,
        alpha=0.25,
        dielectric_thickness=10.0,
        inductance_load_ratio=1.0,
        capacitance_load_ratio=1.0,
        pitch=pitch,
        cell_count=cell_count,
    )


def test_cell_abcd_entries():
    cell = CellImmittance(2.5e-9, 1.0e-12)
    f = 5e9
    w = 2.0 * np.pi * f
    m = cell_abcd(cell, f)
    assert m.shape == (2, 2)
    assert m[0, 0] == pytest.approx(1.0 - w * w * 2.5e-9 * 1.0e-12, rel=1e-15)
    assert m[0, 1] == pytest.approx(1j * w * 2.5e-9, rel=1e-15)
    assert m[1, 0] == pytest.approx(1j * w * 1.0e-12, rel=1e-15)
    assert m[1, 1] == 1.0
    batch = cell_abcd(cell, np.array([1e9, 5e9]))
    assert batch.shape == (2, 2, 2)
    np.testing.assert_allclose(batch[1], m, rtol=1e-15)


@given(
    l=st.floats(1e-10, 1e-8),
    c=st.floats(1e-14, 1e-11),
    f=st.floats(1e8, 3e10),
)
@settings(max_examples=80, deadline=None)
def test_cell_abcd_is_unimodular(l, c, f):
    m = cell_abcd(CellImmittance(l, c), f)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    assert abs(det - 1.0) < 1e-13


def test_series_only_cell_against_closed_form():
    # With no shunt branch the network is a bare series impedance Z = jwL:
    # S11 = Z / (Z + 2 Z0), S21 = 2 Z0 / (Z + 2 Z0).
    z0 = 50.0
    cell = CellImmittance(3e-9, 0.0)
    freqs = np.array([1e9, 7e9, 20e9])
    s11, s21, s12, s22 = abcd_to_s(cell_abcd(cell, freqs), z0)
    z = 1j * 2.0 * np.pi * freqs * 3e-9
    np.testing.assert_allclose(s11, z / (z + 2 * z0), rtol=1e-14)
    np.testing.assert_allclose(s21, 2 * z0 / (z + 2 * z0), rtol=1e-14)
    np.testing.assert_allclose(s12, s21, rtol=1e-13)
    np.testing.assert_allclose(s22, s11, rtol=1e-13)


def test_chain_matches_nodal_solution():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        ls = rng.uniform(0.2e-9, 4e-9, size=n)
        cs = rng.uniform(0.05e-12, 1.5e-12, size=n)
        freqs = rng.uniform(0.2e9, 25e9, size=12)
        freqs.sort()
        z0 = float(rng.uniform(20.0, 80.0))
        cells = [CellImmittance(l, c) for l, c in zip(ls, cs)]
        # Lossless LC ladders are reciprocal by construction; forming the
        # determinant numerically would cancel catastrophically in stopbands.
        s11, s21, s12, s22 = abcd_to_s(chain_abcd(cells, freqs), z0, det=1.0)
        ref = nodal_ladder_sparams(ls, cs, freqs, z0)
        np.testing.assert_allclose(s11, ref[:, 0, 0], atol=1e-10)
        np.testing.assert_allclose(s21, ref[:, 1, 0], atol=1e-10)
        np.testing.assert_allclose(s12, ref[:, 0, 1], atol=1e-10)
        np.testing.assert_allclose(s22, ref[:, 1, 1], atol=1e-10)


def test_cascade_matches_explicit_chain():
    unloaded = CellImmittance(0.6e-9, 0.3e-12)
    loaded = CellImmittance(0.9e-9, 0.3e-12)
    device = dummy_device(pitch=3, cell_count=24)
    grid = FrequencyGrid(0.0, 20e9, 1e9)
    total = cascade(device, grid, (unloaded, loaded))
    np.testing.assert_array_equal(total.log_scale, 0.0)

    ls, cs = periodic_cell_sequence(
        (0.6e-9, 0.3e-12), (0.9e-9, 0.3e-12), 3, 24)
    cells = [CellImmittance(l, c) for l, c in zip(ls, cs)]
    reference = chain_abcd(cells, grid.freqs())
    np.testing.assert_allclose(plain_abcd(total), reference, rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize("index", [58, 1357])
def test_cascade_matches_nodal_solver_at_band_edges(index):
    # Desk devices whose macrocell trace comes within 3e-5 of -1 (index 58,
    # pitch 2, at 10.15 GHz) or +1 (index 1357, pitch 3, at 14.75 GHz) on
    # the stage-1 grid, where the chain power is most sensitive to rounding.
    # A 60-digit evaluation puts the nodal solve within 5e-11 of the exact
    # S-parameters at both points.
    cfg = load_config(DESK_CONFIG)
    device = device_from_values(cfg.grid.point_values(index), cfg.cell_count)
    flux = kerr_free_flux(device.alpha)
    unloaded, loaded = build_cells(device, flux, cfg.cell)
    grid = metric_frequency_grid(cfg.freq_grid, cfg.metric.pump_freq)
    total = cascade(device, grid, (unloaded, loaded))
    s11, s21, s12, s22 = abcd_to_s(
        total.matrices, cfg.cell.ref_impedance, log_scale=total.log_scale,
        det=1.0)

    ls, cs = periodic_cell_sequence(
        (unloaded.series_inductance, unloaded.shunt_capacitance),
        (loaded.series_inductance, loaded.shunt_capacitance),
        device.pitch, device.cell_count)
    ref = nodal_ladder_sparams(ls, cs, grid.freqs()[1:], cfg.cell.ref_impedance)
    for ours, theirs in ((s11, ref[:, 0, 0]), (s21, ref[:, 1, 0]),
                         (s12, ref[:, 0, 1]), (s22, ref[:, 1, 1])):
        np.testing.assert_allclose(ours[1:], theirs, rtol=0, atol=5e-10)


def test_cascade_requires_divisible_cell_count():
    with pytest.raises(ConfigurationError):
        cascade(
            dummy_device(pitch=3, cell_count=100),
            FrequencyGrid(0.0, 1e9, 1e9),
            (CellImmittance(1e-9, 1e-12), CellImmittance(1e-9, 1e-12)),
        )


def test_stopband_cascade_stays_finite_and_lossless():
    # Deep in the stopband the raw chain entries overflow float range; the
    # renormalized power tracks the scale separately.
    cell = CellImmittance(2.5e-9, 1.0e-12)
    fc = 2.0 / (2.0 * np.pi * np.sqrt(2.5e-9 * 1.0e-12))
    device = dummy_device(pitch=2, cell_count=1 << 15)
    grid = FrequencyGrid(2.0 * fc, 3.0 * fc, 0.5 * fc)
    total = cascade(device, grid, (cell, cell))
    assert np.all(np.isfinite(total.matrices))
    assert np.all(total.log_scale > 100.0)

    s11, s21, s12, s22 = abcd_to_s(
        total.matrices, 50.0, log_scale=total.log_scale, det=1.0)
    assert np.all(np.isfinite(np.abs(s21)))
    assert np.max(np.abs(s21)) < 1e-100
    power = np.abs(s11) ** 2 + np.abs(s21) ** 2
    np.testing.assert_allclose(power, 1.0, atol=1e-9)


def test_cascaded_abcd_plain_reconstruction():
    mats = np.array([[[0.5, 0.25], [0.125, 0.5]]], dtype=complex)
    scaled = CascadedAbcd(matrices=mats, log_scale=np.array([np.log(4.0)]))
    np.testing.assert_allclose(plain_abcd(scaled), 4.0 * mats, rtol=1e-15)


def test_abcd_to_s_rejects_bad_impedance():
    with pytest.raises(ValueError):
        abcd_to_s(np.eye(2, dtype=complex), 0.0)


def test_gate_capacitance_value():
    cfg = CellConfig()
    expected = VACUUM_PERMITTIVITY * 9.8 * 30.0e-12 / 9.0e-9
    assert gate_capacitance(9.0, cfg) == pytest.approx(expected, rel=1e-15)
    assert gate_capacitance(9.0, cfg) == pytest.approx(2.892368020808e-13,
                                                       rel=1e-12)
    with pytest.raises(ConfigurationError):
        gate_capacitance(0.0, cfg)


def test_build_cells_loading(ref_device, ref_flux):
    unloaded, loaded = build_cells(ref_device, ref_flux, CellConfig())
    # Loading divides the junction areas, so the loaded inductance is larger.
    assert loaded.series_inductance > unloaded.series_inductance
    assert loaded.shunt_capacitance == pytest.approx(
        ref_device.capacitance_load_ratio * unloaded.shunt_capacitance,
        rel=1e-15)
    assert unloaded.series_inductance == pytest.approx(5.948436126223019e-10,
                                                       rel=1e-12)
    assert unloaded.shunt_capacitance == pytest.approx(2.892368020808e-13,
                                                       rel=1e-12)


def test_frequency_grid_points():
    grid = FrequencyGrid(0.0, 24e9, 1e7)
    assert grid.points == 2401
    freqs = grid.freqs()
    assert freqs[0] == 0.0
    assert freqs[-1] == pytest.approx(24e9, abs=1e-3)
    assert FrequencyGrid(0.0, 24e9, 5e7).points == 481
    with pytest.raises(ConfigurationError):
        FrequencyGrid(1e9, 0.5e9, 1e7)


def test_device_params_validation():
    with pytest.raises(ConfigurationError):
        dummy_device(pitch=1, cell_count=10)
    with pytest.raises(ConfigurationError):
        DeviceParams(0.5, 1.0, 0.25, 9.0, 0.5, 1.0, 2, 10)
    with pytest.raises(ConfigurationError):
        DeviceParams(0.5, 1.0, 0.25, -9.0, 1.5, 1.0, 2, 10)


def test_reference_device_is_lossless_and_reciprocal(ref_response):
    # Analytically unimodular cells: S12 == S21 exactly, power to rounding.
    ref_response.validate(passivity_tol=1e-9, reciprocity_tol=1e-12)
    assert np.max(np.abs(ref_response.s12 - ref_response.s21)) == 0.0
    power = np.abs(ref_response.s11) ** 2 + np.abs(ref_response.s21) ** 2
    assert np.max(np.abs(power - 1.0)) < 1e-11


def test_validate_flags_violations():
    freqs = np.array([0.0, 1e9])
    good = np.array([0.6 + 0j, 0.6 + 0j])
    bad = np.array([0.9 + 0j, 0.9 + 0j])
    resp = TwoPortResponse(freqs=freqs, s11=good, s21=bad, s12=bad, s22=good)
    with pytest.raises(SimulationError, match="losslessness"):
        resp.validate()
    s21 = np.sqrt(1.0 - 0.36) * np.ones(2, dtype=complex)
    resp = TwoPortResponse(freqs=freqs, s11=good, s21=s21,
                           s12=s21 + 1e-6, s22=good)
    with pytest.raises(SimulationError, match="reciprocity"):
        resp.validate()
    # A NaN compares False against every tolerance; it must not pass, nor
    # hide the power violation (0.72) at the second point.
    nan = np.array([np.nan, 0.6], dtype=complex)
    resp = TwoPortResponse(freqs=freqs, s11=nan, s21=nan, s12=nan, s22=nan)
    with pytest.raises(SimulationError, match="non-finite"):
        resp.validate()


def test_dispersion_requires_dc_anchor(ref_response):
    resp = TwoPortResponse(
        freqs=ref_response.freqs[1:],
        s11=ref_response.s11[1:],
        s21=ref_response.s21[1:],
        s12=ref_response.s12[1:],
        s22=ref_response.s22[1:],
    )
    with pytest.raises(ValueError, match="DC"):
        dispersion(resp, 360)


def test_dispersion_dc_value_is_positive_zero(ref_dispersion):
    assert ref_dispersion.k[0] == 0.0
    assert not np.signbit(ref_dispersion.k[0])


def test_dispersion_matches_bloch_relation():
    # Uniform matched-ish ladder: extracted k tracks acos(1 - w^2 L C / 2)
    # up to the termination ripple, which shrinks with the cell count.  The
    # grid step must keep the total phase swing per step under pi or the
    # unwrap aliases: df * dk/df * n < pi, worst at 0.8 fc where
    # dk/df ~ 5.2e-10 s, so df < 1.5 MHz for n = 4096.
    l, c = 2.5e-9, 1.0e-12
    fc = 2.0 / (2.0 * np.pi * np.sqrt(l * c))
    n = 4096
    device = dummy_device(pitch=2, cell_count=n)
    grid = FrequencyGrid(0.0, 0.8 * fc, fc / 8000.0)
    cell = CellImmittance(l, c)
    total = cascade(device, grid, (cell, cell))
    s11, s21, s12, s22 = abcd_to_s(
        total.matrices, 50.0, log_scale=total.log_scale, det=1.0)
    resp = TwoPortResponse(freqs=grid.freqs(), s11=s11, s21=s21,
                           s12=s12, s22=s22)
    disp = dispersion(resp, n)
    expected = bloch_wavenumber(grid.freqs(), l, c)
    np.testing.assert_allclose(disp.k, expected, atol=5e-4)


def test_dispersion_sample_bounds(ref_dispersion):
    with pytest.raises(ValueError):
        ref_dispersion.sample(25e9)
    assert ref_dispersion.sample(0.0) == 0.0


def test_simulate_linear_deterministic(ref_device, ref_flux, ref_grid):
    cfg = CellConfig()
    a = simulate_linear(ref_device, ref_flux, ref_grid, cfg)
    b = simulate_linear(ref_device, ref_flux, ref_grid, cfg)
    np.testing.assert_array_equal(a.s11, b.s11)
    np.testing.assert_array_equal(a.s21, b.s21)
