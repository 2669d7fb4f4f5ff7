"""Chain-matrix cascade, S-parameter conversion, dispersion extraction."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    PerDeviceResponse,
    bloch_wavenumber,
    cell_abcd,
    chain_abcd,
    general_abcd_to_s,
    nodal_ladder_sparams,
    pack_abcd,
    per_device_cells,
    periodic_cell_sequence,
    plain_abcd,
    real_entries,
)
from twpaopt.network import (
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
    dispersion,
    gate_capacitance,
    linear_sparams,
    simulate_linear,
    sparam_faults,
)
from twpaopt import snail as snail_mod
from twpaopt import sweep as sweep_mod
from twpaopt.config import load_config
from twpaopt.constants import VACUUM_PERMITTIVITY
from twpaopt.snail import kerr_free_flux
from twpaopt.sweep import SweepConfig, enumerate_grid, metric_frequency_grid

DESK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "desk.json"


def assert_same_bits(ours, theirs):
    for x, y in zip(ours, theirs, strict=True):
        np.testing.assert_array_equal(np.asarray(x).view(np.int64),
                                      np.asarray(y).view(np.int64))


def general_sparams(entries, log_scale, z0):
    """The textbook conversion of the packed complex chain matrices."""
    return general_abcd_to_s(pack_abcd(entries), z0, log_scale=log_scale,
                             det=1.0)


def stacked(pairs):
    """(unloaded, loaded) pairs of scalar cells as one pair of (B,) arrays."""
    return tuple(
        CellImmittance(np.array([c.series_inductance for c in cells]),
                       np.array([c.shunt_capacitance for c in cells]))
        for cells in zip(*pairs))


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
    s11, s21, s12, s22 = abcd_to_s(real_entries(cell_abcd(cell, freqs)),
                                   np.zeros(3), z0)
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
        s11, s21, s12, s22 = abcd_to_s(real_entries(chain_abcd(cells, freqs)),
                                       np.zeros(freqs.size), z0)
        ref = nodal_ladder_sparams(ls, cs, freqs, z0)
        np.testing.assert_allclose(s11, ref[:, 0, 0], atol=1e-10)
        np.testing.assert_allclose(s21, ref[:, 1, 0], atol=1e-10)
        np.testing.assert_allclose(s12, ref[:, 0, 1], atol=1e-10)
        np.testing.assert_allclose(s22, ref[:, 1, 1], atol=1e-10)


@pytest.mark.parametrize("pitch, cell_count",
                         [(3, 24), (2, 60), (3, 60), (4, 60), (5, 60)])
def test_cascade_matches_explicit_chain(pitch, cell_count):
    # Pitch 4 and up multiply the unloaded cell into itself more than once.
    unloaded = CellImmittance(0.6e-9, 0.3e-12)
    loaded = CellImmittance(0.9e-9, 0.3e-12)
    device = dummy_device(pitch=pitch, cell_count=cell_count)
    grid = FrequencyGrid(0.0, 20e9, 1e9)
    entries, log_scale = cascade(device, grid, (unloaded, loaded))
    np.testing.assert_array_equal(log_scale, 0.0)

    ls, cs = periodic_cell_sequence(
        (0.6e-9, 0.3e-12), (0.9e-9, 0.3e-12), pitch, cell_count)
    cells = [CellImmittance(l, c) for l, c in zip(ls, cs)]
    reference = chain_abcd(cells, grid.freqs())
    np.testing.assert_allclose(plain_abcd(entries, log_scale), reference,
                               rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize("index", [58, 1357])
def test_cascade_matches_nodal_solver_at_band_edges(index):
    # Desk devices whose macrocell trace comes within 3e-5 of -1 (index 58,
    # pitch 2, at 10.15 GHz) or +1 (index 1357, pitch 3, at 14.75 GHz) on
    # the stage-1 grid, where the chain power is most sensitive to rounding.
    # A 60-digit evaluation puts the nodal solve within 5e-11 of the exact
    # S-parameters at both points.
    cfg = load_config(DESK_CONFIG)
    device = enumerate_grid(cfg.grid, cfg.cell_count)[index]
    flux = kerr_free_flux(device.alpha)
    unloaded, loaded = build_cells([device], [flux], cfg.cell)
    grid = metric_frequency_grid(cfg.freq_grid, cfg.metric.pump_freq)
    s11, s21, s12, s22 = abcd_to_s(
        *cascade(device, grid, (unloaded, loaded)), cfg.cell.ref_impedance)

    ls, cs = periodic_cell_sequence(
        (unloaded.series_inductance[0], unloaded.shunt_capacitance[0]),
        (loaded.series_inductance[0], loaded.shunt_capacitance[0]),
        device.pitch, device.cell_count)
    ref = nodal_ladder_sparams(ls, cs, grid.freqs()[1:], cfg.cell.ref_impedance)
    for ours, theirs in ((s11, ref[:, 0, 0]), (s21, ref[:, 1, 0]),
                         (s12, ref[:, 0, 1]), (s22, ref[:, 1, 1])):
        np.testing.assert_allclose(ours[0, 1:], theirs, rtol=0, atol=5e-10)


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
    entries, log_scale = cascade(device, grid, (cell, cell))
    assert np.all(np.isfinite(entries))
    assert np.all(log_scale > 100.0)

    s11, s21, s12, s22 = abcd_to_s(entries, log_scale, 50.0)
    assert np.all(np.isfinite(np.abs(s21)))
    assert np.max(np.abs(s21)) < 1e-100
    power = np.abs(s11) ** 2 + np.abs(s21) ** 2
    np.testing.assert_allclose(power, 1.0, atol=1e-9)


@pytest.mark.parametrize("pitch", [3, 4])
def test_batched_cascade_matches_each_device_alone(pitch):
    # Three devices of one pitch and cell count, one of them deep enough in
    # the stopband at the upper frequencies to take the log-scaled branch.
    cells = [(CellImmittance(l, c), CellImmittance(1.5 * l, 1.2 * c))
             for l, c in ((0.6e-9, 0.3e-12), (2.5e-9, 1.0e-12),
                          (1.1e-9, 0.5e-12))]
    device = dummy_device(pitch=pitch, cell_count=pitch << 12)
    grid = FrequencyGrid(0.0, 20e9, 0.25e9)
    entries, log_scale = cascade(device, grid, stacked(cells))
    assert all(e.shape == (3, grid.points) for e in entries)
    assert log_scale.shape == (3, grid.points)
    assert np.any(log_scale > 0.0)
    s_batch = abcd_to_s(entries, log_scale, 50.0)
    for b, pair in enumerate(cells):
        alone, alone_scale = cascade(device, grid, pair)
        for ours, theirs in zip(entries, alone):
            np.testing.assert_array_equal(ours[b], theirs)
        np.testing.assert_array_equal(log_scale[b], alone_scale)
        s_alone = abcd_to_s(alone, alone_scale, 50.0)
        for ours, theirs in zip(s_batch, s_alone):
            np.testing.assert_array_equal(ours[b], theirs)
    assert_same_bits(s_batch, general_sparams(entries, log_scale, 50.0))


@pytest.mark.parametrize("pitch", [2, 3])
def test_abcd_to_s_matches_the_general_conversion_on_desk_batches(
        pitch, desk_batch):
    batch = desk_batch(pitch)
    entries, log_scale = cascade(batch.devices[0], batch.grid, batch.cells)
    z0 = batch.cfg.cell.ref_impedance
    assert_same_bits(abcd_to_s(entries, log_scale, z0),
                     general_sparams(entries, log_scale, z0))


@pytest.mark.parametrize("pitch", [2, 3])
def test_desk_cascade_stays_in_the_lossless_class(pitch, desk_batch):
    # Lossless cells have chain matrices [[a, jb], [jc, d]] with real a, b,
    # c, d, and so do their products and Chebyshev powers: the cascade
    # returns those four real arrays.  No growth is scaled out in the
    # passband, |x| <= 1 for the macrocell half-trace x.
    batch = desk_batch(pitch)
    grid, cells = batch.grid, batch.cells
    entries, log_scale = cascade(batch.devices[0], grid, cells)
    for entry in entries:
        assert entry.dtype == np.float64
        assert entry.shape == (16, grid.points)

    unloaded, loaded = (cell_abcd(c, grid.freqs()) for c in cells)
    macro = np.linalg.matrix_power(unloaded, pitch - 1) @ loaded
    x = 0.5 * (macro[..., 0, 0] + macro[..., 1, 1]).real
    passband = np.abs(x) <= 1.0
    assert passband.any() and not passband.all()
    np.testing.assert_array_equal(log_scale[passband], 0.0)


def test_abcd_to_s_names_the_singular_device_and_frequency():
    a, b, c, d = np.ones((2, 3)), np.zeros((2, 3)), np.zeros((2, 3)), np.ones((2, 3))
    d[1, 2] = -1.0  # a + d + j (b / Z0 + c Z0) = 0
    where = r"\(device, frequency\) indices \[\[1, 2\]\]"
    with pytest.raises(ValueError, match=where):
        abcd_to_s((a, b, c, d), np.zeros((2, 3)), 50.0)


def test_linear_sparams_rejects_mixed_pitch():
    cfg = CellConfig()
    devices = [dummy_device(pitch=2, cell_count=12),
               dummy_device(pitch=3, cell_count=12)]
    with pytest.raises(ValueError, match="one \\(pitch, cell count\\)"):
        linear_sparams(devices, [0.3, 0.3], FrequencyGrid(0.0, 1e9, 1e9), cfg)


def test_cascaded_abcd_plain_reconstruction():
    entries = tuple(np.array([v]) for v in (0.5, 0.25, 0.125, 0.5))
    mats = np.array([[[0.5, 0.25j], [0.125j, 0.5]]])
    np.testing.assert_allclose(plain_abcd(entries, np.array([np.log(4.0)])),
                               4.0 * mats, rtol=1e-15)


def test_abcd_to_s_rejects_bad_impedance():
    one, zero = np.ones(1), np.zeros(1)
    with pytest.raises(ValueError):
        abcd_to_s((one, zero, zero, one), zero, 0.0)


def test_gate_capacitance_value():
    cfg = CellConfig()
    expected = VACUUM_PERMITTIVITY * 9.8 * 30.0e-12 / 9.0e-9
    assert gate_capacitance(9.0, cfg) == pytest.approx(expected, rel=1e-15)
    assert gate_capacitance(9.0, cfg) == pytest.approx(2.892368020808e-13,
                                                       rel=1e-12)
    with pytest.raises(ConfigurationError):
        gate_capacitance(0.0, cfg)


def test_build_cells_loading(ref_device, ref_flux):
    unloaded, loaded = build_cells([ref_device], [ref_flux], CellConfig())
    # Loading divides the junction areas, so the loaded inductance is larger.
    assert loaded.series_inductance[0] > unloaded.series_inductance[0]
    assert loaded.shunt_capacitance[0] == pytest.approx(
        ref_device.capacitance_load_ratio * unloaded.shunt_capacitance[0],
        rel=1e-15)
    assert unloaded.series_inductance[0] == pytest.approx(5.948436126223019e-10,
                                                          rel=1e-12)
    assert unloaded.shunt_capacitance[0] == pytest.approx(2.892368020808e-13,
                                                          rel=1e-12)


def test_build_cells_matches_the_scalar_chain_on_the_desk_grid():
    cfg = load_config(DESK_CONFIG)
    devices = enumerate_grid(cfg.grid, cfg.cell_count)
    assert len(devices) == 2048
    fluxes = [kerr_free_flux(p.alpha) for p in devices]
    ours = build_cells(devices, fluxes, cfg.cell)
    theirs = [per_device_cells(p, f, cfg.cell)
              for p, f in zip(devices, fluxes)]
    for k, cell in enumerate(ours):
        assert_same_bits(
            (cell.series_inductance, cell.shunt_capacitance),
            (np.array([pair[k].series_inductance for pair in theirs]),
             np.array([pair[k].shunt_capacitance for pair in theirs])))


def failing_device(case, good, flux, monkeypatch):
    """(device, flux) whose cell build fails for the named reason."""
    if case == "flux":
        return good, 1.2
    if case == "immittance":
        # The gate capacitance of an infinitely thick dielectric is 0.
        return replace(good, dielectric_thickness=math.inf), flux
    real = snail_mod._expansion_normalized

    def unstable(alpha, flux_ext):
        phi_min, c2, c3, c4 = real(alpha, flux_ext)
        return phi_min, -c2 if alpha == 0.24 else c2, c3, c4

    monkeypatch.setattr(snail_mod, "_expansion_normalized", unstable)
    return replace(good, alpha=0.24), flux


@pytest.mark.parametrize("case", ["flux", "c2", "immittance"])
def test_a_failing_device_fails_alone_with_its_own_error(
        case, desk_batch, monkeypatch):
    batch = desk_batch(3)
    cfg = batch.cfg
    bad, bad_flux = failing_device(case, batch.devices[1], batch.fluxes[1],
                                   monkeypatch)
    with pytest.raises(Exception) as alone:
        per_device_cells(bad, bad_flux, cfg.cell)
    with pytest.raises(Exception) as ours:
        build_cells([bad], [bad_flux], cfg.cell)
    assert type(ours.value) is type(alone.value)
    assert str(ours.value) == str(alone.value)

    # The chunk's batch fails, and each device is redone on its own.
    points = [batch.devices[0], bad, batch.devices[2]]
    fluxes = [batch.fluxes[0], bad_flux, batch.fluxes[2]]
    sweep_cfg = SweepConfig(cell_count=cfg.cell_count,
                            freq_grid=cfg.freq_grid, cell=cfg.cell)
    rows = sweep_mod._run_chunk(([0, 1, 2], points, fluxes, sweep_cfg,
                                 cfg.metric))
    error = f"{type(alone.value).__name__}: {alone.value}"
    assert [row[2] for row in rows] == ["", error, ""]
    clean = sweep_mod._evaluate_batch(points[::2], fluxes[::2], sweep_cfg,
                                      cfg.metric)
    assert [repr(rows[0][1]), repr(rows[2][1])] == list(map(repr, clean))


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


def fault_alone(freqs, sparams, row, response=TwoPortResponse):
    """The SimulationError text of one row validated alone, or None."""
    try:
        response(freqs, *(s[row] for s in sparams)).validate()
    except SimulationError as exc:
        return str(exc)
    return None


def poisoned_desk_sparams(batch):
    """The desk batch's S-parameters with three rows broken, by row."""
    s11, s21, s12, s22 = (s.copy() for s in batch.sparams)
    s21[2, 40] = np.nan  # non-finite
    s21[5] *= 1.001  # power 0.2 % off, still reciprocal
    s12[5] = s21[5]
    s12[11, 300] += 1e-9  # reciprocity only
    return (s11, s21, s12, s22), {2: "s21 has non-finite entries",
                                  5: "losslessness violated",
                                  11: "reciprocity violated"}


@pytest.mark.parametrize("pitch", [2, 3])
def test_sparam_faults_match_each_row_alone(pitch, desk_batch):
    batch = desk_batch(pitch)
    assert sparam_faults(batch.freqs, batch.sparams) == [None] * 16
    sparams, broken = poisoned_desk_sparams(batch)
    faults = sparam_faults(batch.freqs, sparams)
    for row, fault in enumerate(faults):
        assert fault == fault_alone(batch.freqs, sparams, row)
        assert fault == fault_alone(batch.freqs, sparams, row,
                                    response=PerDeviceResponse)
        assert (fault is None) == (row not in broken)
        assert (fault or "").startswith(broken.get(row, ""))
        one = sparam_faults(batch.freqs, [s[row:row + 1] for s in sparams])
        assert one == [fault]


def test_sparam_faults_check_grid_order_and_take_an_empty_grid():
    freqs = np.array([0.0, 2e9, 1e9])
    ones = np.ones((2, 3), dtype=complex)
    with pytest.raises(ValueError, match="strictly ascending"):
        sparam_faults(freqs, (0 * ones, ones, ones, 0 * ones))
    empty = np.zeros((2, 0), dtype=complex)
    assert sparam_faults(np.zeros(0), (empty,) * 4) == [None, None]


def test_failing_rows_fail_alone_in_a_sweep_batch(desk_batch, monkeypatch):
    batch = desk_batch(3)
    cfg = batch.cfg
    sweep_cfg = SweepConfig(cell_count=cfg.cell_count,
                            freq_grid=cfg.freq_grid, cell=cfg.cell)
    clean = sweep_mod._evaluate_batch(batch.devices, batch.fluxes,
                                      sweep_cfg, cfg.metric)
    assert not any(isinstance(r, Exception) for r in clean)
    sparams, broken = poisoned_desk_sparams(batch)
    monkeypatch.setattr(sweep_mod, "linear_sparams",
                        lambda *args: sparams)
    results = sweep_mod._evaluate_batch(batch.devices, batch.fluxes,
                                        sweep_cfg, cfg.metric)
    for row, (got, want) in enumerate(zip(results, clean)):
        if row in broken:
            assert isinstance(got, SimulationError)
            assert str(got) == fault_alone(batch.freqs, sparams, row)
        else:
            assert repr(got) == repr(want)


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
    s11, s21, s12, s22 = abcd_to_s(*cascade(device, grid, (cell, cell)), 50.0)
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
