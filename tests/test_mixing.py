"""Coupled-mode integration, closed-form gain, drive-point sweep."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import depleted_pump_intensities, undepleted_gain_expm
from twpaopt import mixing
from twpaopt.mixing import (
    AccuracyError,
    CmeInputs,
    DriveSpec,
    coupling_constant,
    gain_profile,
    integrate_cme,
    optimize_working_point,
    performance,
    signal_idler_grid,
    undepleted_gain,
)

BAND = (4.75e9, 6.75e9)
PUMP = 11.5e9


def drive(step=0.25e9, **kwargs):
    kwargs.setdefault("xi", 0.2)
    return DriveSpec(pump_freq=PUMP, signal_band=BAND, signal_step=step,
                     **kwargs)


def cme_case(g0_total, dk_total, n_cells=360, xi=0.2, seed_ratio=1e-6):
    """CmeInputs plus small-signal initial amplitudes for a given g0*N."""
    g0 = g0_total / n_cells
    dk = dk_total / n_cells
    inputs = CmeInputs(k_s=0.5, k_i=0.5 - dk, k_p=1.0, g0=g0,
                       n_cells=n_cells)
    initial = (seed_ratio * xi, 0.0, xi)
    return inputs, initial


def test_undepleted_gain_against_expm_oracle():
    # Both mismatch branches and the transition region.
    for g0n, dkn in [(6.0, 0.0), (6.0, 4.0), (3.0, 8.0), (0.5, 12.0),
                     (2.0, 3.999), (2.0, 4.001)]:
        n = 360
        got = undepleted_gain(g0n / n, dkn / n, n)
        ref = undepleted_gain_expm(g0n / n, dkn / n, n)
        assert got == pytest.approx(ref, rel=1e-9), (g0n, dkn)


def test_undepleted_gain_limits():
    assert undepleted_gain(0.0, 0.0, 100) == pytest.approx(1.0, rel=1e-12)
    # Perfect phase matching: G = cosh^2(g0 N).
    assert undepleted_gain(3.0 / 300, 0.0, 300) == pytest.approx(
        np.cosh(3.0) ** 2, rel=1e-12)
    with pytest.raises(ValueError):
        undepleted_gain(0.01, 0.0, 0)


@pytest.mark.parametrize("dk_branch", [0.0, 2.0, 10.0])
def test_cme_small_signal_matches_analytic(dk_branch):
    inputs, initial = cme_case(6.0, dk_branch)
    traj = integrate_cme(inputs, initial)
    got = abs(traj.a_s[-1] / initial[0]) ** 2
    expected = undepleted_gain(inputs.g0, inputs.delta_k, inputs.n_cells)
    assert got == pytest.approx(expected, rel=1e-6)


def test_cme_idler_buildup_obeys_manley_rowe():
    inputs, initial = cme_case(4.0, 1.0, xi=0.3, seed_ratio=1e-2)
    traj = integrate_cme(inputs, initial)
    d_diff, d_sum = traj.manley_rowe_drift()
    assert d_diff < 1e-8
    assert d_sum < 1e-8
    # The pump actually depletes at this seed level.
    assert abs(traj.a_p[-1]) < 0.3


@pytest.mark.parametrize("g0n, ratio, p0", [(4.0, 1e-2, 0.3),
                                            (6.0, 1e-3, 0.2),
                                            (10.0, 1e-1, 0.4)])
def test_cme_depleted_pump_matches_elliptic_solution(g0n, ratio, p0):
    n = 360
    inputs = CmeInputs(k_s=0.5, k_i=0.5, k_p=1.0, g0=g0n / n, n_cells=n)
    s0 = ratio * p0
    traj = integrate_cme(inputs, (s0, 0.0, p0))
    exact = depleted_pump_intensities(inputs.g0 / p0, s0, p0, traj.x)
    numeric = (abs(traj.a_s) ** 2, abs(traj.a_i) ** 2, abs(traj.a_p) ** 2)
    # Along the line against the conserved total (the pump can pass through
    # zero on the way), at the output against each intensity itself.
    total = s0 * s0 + p0 * p0
    for got, ref in zip(numeric, exact):
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-9 * total)
        assert got[-1] == pytest.approx(ref[-1], rel=1e-9)
    # The regime is depleted, not the undepleted limit in disguise.
    assert exact[2][-1] < 0.97 * p0 * p0


def test_cme_pump_path_is_in_the_lab_frame():
    # A weak signal leaves the pump at its input value along the whole line
    # even when the tones are far from phase matching.
    inputs = CmeInputs(k_s=0.4, k_i=0.5, k_p=1.0, g0=0.5 / 100, n_cells=100)
    traj = integrate_cme(inputs, (1e-9, 0.0, 0.2))
    np.testing.assert_allclose(traj.a_p, 0.2, rtol=1e-9)


def test_cme_zero_pump_propagates_unchanged():
    inputs = CmeInputs(k_s=0.4, k_i=0.5, k_p=1.0, g0=0.01, n_cells=100)
    traj = integrate_cme(inputs, (1e-3, 0.0, 0.0))
    assert abs(traj.a_s[-1] - 1e-3) < 1e-15
    assert abs(traj.a_i[-1]) == 0.0


def test_cme_accuracy_guard_fires_on_coarse_step():
    inputs, initial = cme_case(6.0, 0.0)
    with pytest.raises(AccuracyError):
        integrate_cme(inputs, initial, step=20.0)
    # Disabled, the same call returns (inaccurately) instead of raising.
    traj = integrate_cme(inputs, initial, step=20.0, accuracy_check=False)
    assert np.isfinite(traj.a_s[-1])


@pytest.mark.parametrize("step", [25.0, 20.0, 0.0, -1.0])
def test_cme_rejects_step_that_takes_no_rk4_step(step):
    # n_cells 10: round(10 / 20) = round(0.5) = 0, so step 20 = 2 n_cells
    # already gives zero steps; 0 and negative steps are never valid.
    inputs = CmeInputs(k_s=0.4, k_i=0.5, k_p=1.0, g0=0.01, n_cells=10)
    with pytest.raises(ValueError, match=re.escape(f"integration step {step!r}")):
        integrate_cme(inputs, (1e-3, 0.0, 0.2), step=step)


def test_cme_inputs_validation():
    with pytest.raises(ValueError):
        CmeInputs(k_s=0.5, k_i=0.5, k_p=1.0, g0=-0.1, n_cells=100)
    with pytest.raises(ValueError):
        CmeInputs(k_s=0.5, k_i=0.5, k_p=1.0, g0=0.1, n_cells=0)
    inputs = CmeInputs(k_s=0.4, k_i=0.45, k_p=1.0, g0=0.1, n_cells=10)
    assert inputs.delta_k == pytest.approx(0.15, rel=1e-12)


def test_drive_spec_validation():
    with pytest.raises(ValueError):
        DriveSpec(pump_freq=PUMP, signal_band=(6e9, 5e9), signal_step=1e8,
                  xi=0.1)
    with pytest.raises(ValueError):
        DriveSpec(pump_freq=5e9, signal_band=BAND, signal_step=1e8, xi=0.1)
    with pytest.raises(ValueError):
        DriveSpec(pump_freq=PUMP, signal_band=BAND, signal_step=1e8)


def test_drive_spec_resolve_xi():
    assert drive(xi=0.25).resolve_xi(0.441) == 0.25
    amp = DriveSpec(pump_freq=PUMP, signal_band=BAND, signal_step=1e8,
                    pump_amplitude_ua=0.2)
    assert amp.resolve_xi(0.441) == pytest.approx(0.2 / 0.882, rel=1e-12)
    strong = DriveSpec(pump_freq=PUMP, signal_band=BAND, signal_step=1e8,
                       pump_amplitude_ua=2.0)
    with pytest.raises(ValueError):
        strong.resolve_xi(0.441)
    with pytest.raises(ValueError):
        amp.resolve_xi(0.0)


def test_signal_idler_grid_counts():
    freqs = signal_idler_grid(drive(step=0.05e9))
    assert freqs.size == 41
    assert freqs[0] == BAND[0]
    assert freqs[-1] == pytest.approx(BAND[1], abs=1.0)


def test_coupling_constant_frozen_value(ref_expansion):
    g0 = coupling_constant(ref_expansion, xi=0.2, k_s=0.49, k_i=0.64)
    ratio = 0.11662584834033728
    assert g0 == pytest.approx(ratio * 0.2 * np.sqrt(0.49 * 0.64), rel=1e-12)
    with pytest.raises(ValueError):
        coupling_constant(ref_expansion, xi=1.2, k_s=0.5, k_i=0.5)


def test_gain_profile_halving_guard_is_per_component(
        ref_dispersion, ref_expansion, monkeypatch):
    # At a 4-cell step the signal is off by ~1e-5 relative while the pump,
    # the largest amplitude in each column, agrees to ~4e-7.
    monkeypatch.setattr(mixing, "RK4_STEP", 4.0)
    with pytest.raises(AccuracyError):
        gain_profile(ref_dispersion, ref_expansion,
                     drive(step=0.05e9, xi=0.499),
                     n_cells=360, i_c_small_ua=0.441)


def test_gain_profile_zero_pump_is_flat_zero(ref_dispersion, ref_expansion):
    profile = gain_profile(ref_dispersion, ref_expansion, drive(xi=0.0),
                           n_cells=360, i_c_small_ua=0.441)
    np.testing.assert_array_equal(profile.gain_db, 0.0)
    np.testing.assert_array_equal(profile.pump_depletion, 0.0)


@pytest.fixture(scope="module")
def ref_profile(ref_dispersion, ref_expansion):
    return gain_profile(ref_dispersion, ref_expansion, drive(xi=0.16),
                        n_cells=360, i_c_small_ua=0.441)


def test_gain_profile_tracks_undepleted_prediction(ref_dispersion,
                                                   ref_expansion,
                                                   ref_profile):
    profile = ref_profile
    f_s = profile.freqs
    f_i = PUMP - f_s
    k_s = ref_dispersion.sample(f_s)
    k_i = ref_dispersion.sample(f_i)
    k_p = float(ref_dispersion.sample(PUMP))
    for j in (0, len(f_s) // 2, len(f_s) - 1):
        g0 = coupling_constant(ref_expansion, 0.16, float(k_s[j]),
                               float(k_i[j]))
        dk = k_p - float(k_s[j]) - float(k_i[j])
        expected = 10.0 * np.log10(undepleted_gain(g0, dk, 360))
        assert profile.gain_db[j] == pytest.approx(expected, abs=1e-3)
    assert np.all(profile.pump_depletion >= 0.0)
    assert np.max(profile.pump_depletion) < 1e-3


def test_gain_peak_sits_at_phase_matched_frequency(ref_dispersion,
                                                   ref_profile):
    profile = ref_profile
    f_s = profile.freqs
    k_s = ref_dispersion.sample(f_s)
    k_i = ref_dispersion.sample(PUMP - f_s)
    k_p = float(ref_dispersion.sample(PUMP))
    mismatch = np.abs(k_p - k_s - k_i)
    i_gain = int(np.argmax(profile.gain_db))
    i_match = int(np.argmin(mismatch))
    # Gain and mismatch are both symmetric under f_s -> f_p - f_s, so
    # compare positions modulo that fold.
    folded = np.abs(f_s - (PUMP - f_s[i_match]))
    i_match_folded = int(np.argmin(folded))
    assert min(abs(i_gain - i_match), abs(i_gain - i_match_folded)) <= 2


def test_performance_is_band_mean(ref_profile):
    got = performance(ref_profile)
    ref = np.trapezoid(ref_profile.gain_db, ref_profile.freqs) / (
        ref_profile.freqs[-1] - ref_profile.freqs[0])
    assert got == pytest.approx(ref, rel=1e-12)


def test_optimize_working_point_monotone_sweep(ref_dispersion, ref_expansion):
    amps = [0.05, 0.1, 0.15]
    result = optimize_working_point(
        ref_dispersion, ref_expansion, n_cells=360, i_c_small_ua=0.441,
        drive_template=drive(pump_amplitude_ua=0.05, xi=None),
        pump_amplitudes_ua=amps, flux_phi0=0.38447551700472826)
    perfs = [row["performance_db"] for row in result.rows]
    assert perfs == sorted(perfs)  # gain grows with pump drive here
    assert result.best["pump_amplitude_ua"] == 0.15
    assert len(result.profiles) == 3
    assert all(p is not None for p in result.profiles)


def test_optimize_working_point_skips_failures(ref_dispersion, ref_expansion):
    result = optimize_working_point(
        ref_dispersion, ref_expansion, n_cells=360, i_c_small_ua=0.441,
        drive_template=drive(pump_amplitude_ua=0.1, xi=None),
        pump_amplitudes_ua=[0.1, 5.0], flux_phi0=0.38447551700472826)
    assert result.rows[1]["failed"]
    assert result.rows[1]["performance_db"] == float("-inf")
    assert result.profiles[1] is None
    assert result.best["pump_amplitude_ua"] == 0.1


def test_optimize_working_point_batch_matches_single_drives(
        ref_dispersion, ref_expansion):
    amps = [0.1, 5.0, 0.15]
    result = optimize_working_point(
        ref_dispersion, ref_expansion, n_cells=360, i_c_small_ua=0.441,
        drive_template=drive(pump_amplitude_ua=0.1, xi=None),
        pump_amplitudes_ua=amps, flux_phi0=0.38447551700472826)
    assert result.rows[1]["failed"]
    assert result.profiles[1] is None
    for i in (0, 2):
        single = gain_profile(ref_dispersion, ref_expansion,
                              drive(pump_amplitude_ua=amps[i], xi=None),
                              n_cells=360, i_c_small_ua=0.441)
        np.testing.assert_allclose(result.profiles[i].gain_db,
                                   single.gain_db, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(result.profiles[i].freqs, single.freqs)
        assert result.rows[i]["performance_db"] == pytest.approx(
            performance(single), abs=1e-12)
    assert result.best["pump_amplitude_ua"] == 0.15


def test_optimize_working_point_all_failures_raise(ref_dispersion,
                                                   ref_expansion):
    with pytest.raises(RuntimeError, match="every drive point failed"):
        optimize_working_point(
            ref_dispersion, ref_expansion, n_cells=360, i_c_small_ua=0.441,
            drive_template=drive(pump_amplitude_ua=2.0, xi=None),
            pump_amplitudes_ua=[2.0, 5.0], flux_phi0=0.38447551700472826)


def test_optimize_working_point_tie_breaks_to_lower_amplitude(
        ref_dispersion, ref_expansion):
    result = optimize_working_point(
        ref_dispersion, ref_expansion, n_cells=360, i_c_small_ua=0.441,
        drive_template=drive(pump_amplitude_ua=0.1, xi=None),
        pump_amplitudes_ua=[0.1, 0.1], flux_phi0=0.38447551700472826)
    assert result.best is not result.rows[1]
    assert result.best["pump_amplitude_ua"] == 0.1
    assert result.best == dict(result.rows[0])


@given(g0n=st.floats(0.1, 5.0), dkn=st.floats(0.0, 12.0))
@settings(max_examples=50, deadline=None)
def test_undepleted_gain_is_at_least_unity_when_matched_enough(g0n, dkn):
    # With |dk| <= 2 g0 the gain branch is hyperbolic and never attenuates.
    n = 240
    gain = undepleted_gain(g0n / n, min(dkn, 2.0 * g0n) / n, n)
    assert gain >= 1.0 - 1e-12
