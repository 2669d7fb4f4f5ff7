"""Exact depleted-pump gain, its oracles, drive-point sweep and solve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ellipj

from oracles import (
    cme_rk4,
    depleted_pump_intensities,
    undepleted_gain,
    undepleted_gain_expm,
)
from twpaopt import mixing
from twpaopt.mixing import (
    DriveSpec,
    GainProfile,
    UnreachableTargetError,
    WorkingPointError,
    bandwidth_3db,
    bias_device,
    coupling_constant,
    gain_profile,
    idler_power,
    optimize_working_point,
    performance,
    signal_idler_grid,
    solve_working_point,
)
from twpaopt.network import CellConfig, DeviceParams, FrequencyGrid
from twpaopt.snail import PotentialExpansion, kerr_free_flux

BAND = (4.75e9, 6.75e9)
PUMP = 11.5e9


def drive(step=0.25e9):
    return DriveSpec(pump_freq=PUMP, signal_band=BAND, signal_step=step)


def band_wavenumbers(disp, freqs):
    """(k_s, k_i, k_p) of signal tones ``freqs`` against the test pump."""
    return disp.sample(freqs), disp.sample(PUMP - freqs), float(
        disp.sample(PUMP))


def cme_case(g0_total, dk_total, n_cells=360, xi=0.2, seed_ratio=1e-6):
    """(kappa, delta_k, s0, p0) of a column with the given g0 N and dk N."""
    return (g0_total / n_cells / xi, dk_total / n_cells, seed_ratio * xi, xi)


def closed_form_gain(kappa, delta_k, s0, p0, x):
    """Signal power gain (s0^2 + u) / s0^2 of the exact solution."""
    return (s0 * s0 + idler_power(kappa, delta_k, s0, p0, x)) / (s0 * s0)


def rk4_columns(disp, expansion, xi, freqs, n_cells=360, step=0.05):
    """Oracle RK4 amplitudes at x = n_cells for every (xi, tone) column of
    ``gain_profile``, and the signal seed."""
    k_s, k_i, k_p = band_wavenumbers(disp, freqs)
    xi = np.asarray(xi, dtype=float)
    seed = mixing.SEED_RATIO * xi
    kappa = coupling_constant(expansion, xi, k_s, k_i) / xi
    _, path = cme_rk4(kappa, k_p - k_s - k_i, (seed, 0.0, xi), n_cells, step)
    return path[-1], seed


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


def test_undepleted_gain_array_matches_scalar_calls():
    n = 360
    dk = np.array([0.0, 4.0, 8.0, -4.0, 12.0, 3.0]) / n
    # Column 3 sits exactly on g0 = |dk|/2, where g = 0.
    g0 = np.array([6.0, 6.0, 3.0, 2.0, 0.5, 0.0]) / n
    assert 0.5 * abs(dk[3]) == g0[3]
    got = undepleted_gain(g0, dk, n)
    assert isinstance(got, np.ndarray) and got.shape == (6,)
    expected = [undepleted_gain(float(a), float(b), n)
                for a, b in zip(g0, dk)]
    np.testing.assert_array_equal(got, expected)
    # Broadcasting: one row of couplings against a column of mismatches.
    grid = undepleted_gain(g0[None, :], dk[:, None], n)
    assert grid.shape == (6, 6)
    assert grid[2, 3] == undepleted_gain(float(g0[3]), float(dk[2]), n)
    # On g = 0 the gain is 1 + (g0 N)^2, the limit of both branches.
    assert got[3] == pytest.approx(1.0 + (g0[3] * n) ** 2, rel=1e-12)
    scalar = undepleted_gain(0.01, 0.02, 100)
    assert type(scalar) is float
    assert scalar == pytest.approx(2.0, rel=1e-12)
    for bad in (0, -1):
        with pytest.raises(ValueError):
            undepleted_gain(g0, dk, bad)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_undepleted_gain_past_the_float_range_is_inf():
    # g0 N = 792: cosh and sinh overflow and inf * 0 would give NaN;
    # g0 N = 684: only the square overflows.
    for g0, dk in [(2.2, 0.1), (2.2, 0.0), (1.9, 0.0)]:
        assert undepleted_gain(g0, dk, 360) == np.inf, (g0, dk)
    got = undepleted_gain(np.array([2.2, 0.5 / 360]), 0.1, 360)
    assert got[0] == np.inf
    assert got[1] == undepleted_gain(0.5 / 360, 0.1, 360)


@pytest.mark.parametrize("dk_branch", [0.0, 2.0, 10.0])
def test_cme_small_signal_matches_analytic(dk_branch):
    kappa, dk, s0, p0 = cme_case(6.0, dk_branch)
    got = closed_form_gain(kappa, dk, s0, p0, 360)
    expected = undepleted_gain(kappa * p0, dk, 360)
    assert got == pytest.approx(expected, rel=1e-6)


def test_cme_idler_buildup_obeys_manley_rowe():
    kappa, dk, s0, p0 = cme_case(4.0, 1.0, xi=0.3, seed_ratio=1e-2)
    xs, path = cme_rk4(kappa, dk, (s0, 0.0, p0), 360, 0.05)
    a_s, a_i, a_p = np.abs(path.T) ** 2
    # The closed form takes the signal and pump from the idler by
    # Manley-Rowe; the integration conserves both combinations on its own.
    u = idler_power(kappa, dk, s0, p0, xs)
    for got, ref in [(a_s, s0 * s0 + u), (a_i, u), (a_p, p0 * p0 - u)]:
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-8)
    assert np.max(np.abs(a_s - a_i - s0 * s0)) < 1e-8
    assert np.max(np.abs(a_s + a_p - s0 * s0 - p0 * p0)) < 1e-8
    # The pump actually depletes at this seed level.
    assert np.sqrt(p0 * p0 - u[-1]) < 0.3


@pytest.mark.parametrize("g0n, ratio, p0", [(4.0, 1e-2, 0.3),
                                            (6.0, 1e-3, 0.2),
                                            (10.0, 1e-1, 0.4)])
def test_cme_depleted_pump_matches_elliptic_solution(g0n, ratio, p0):
    n = 360
    kappa, s0 = g0n / n / p0, ratio * p0
    x = np.linspace(0.0, n, 721)
    exact = depleted_pump_intensities(kappa, s0, p0, x)
    u = idler_power(kappa, 0.0, s0, p0, x)
    # Against the conserved total along the line (the pump can pass through
    # zero on the way), at the output against each intensity itself.  The
    # reference takes m = 1 - (s0 / p0)^2 and loses its last digits there.
    total = s0 * s0 + p0 * p0
    for got, ref in zip((s0 * s0 + u, u, p0 * p0 - u), exact):
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12 * total)
        assert got[-1] == pytest.approx(ref[-1], rel=1e-9)
    # The regime is depleted, not the undepleted limit in disguise.
    assert exact[2][-1] < 0.97 * p0 * p0


def test_oracle_rk4_matches_the_elliptic_solution():
    # The two oracles agree with each other at dk = 0, so either can
    # stand for the exact solution.
    kappa, s0, p0 = 6.0 / 360 / 0.2, 1e-3 * 0.2, 0.2
    xs, path = cme_rk4(kappa, 0.0, (s0, 0.0, p0), 360, 0.05)
    exact = depleted_pump_intensities(kappa, s0, p0, xs)
    for got, ref in zip(np.abs(path.T) ** 2, exact):
        np.testing.assert_allclose(got, ref, rtol=0.0,
                                   atol=1e-12 * (s0 * s0 + p0 * p0))


def test_cme_pump_path_is_in_the_lab_frame():
    # A weak signal leaves the pump at its input value along the whole line
    # even when the tones are far from phase matching: in the lab frame of
    # the integration and in the closed form's pump power.
    kappa, dk, s0, p0 = 0.5 / 100 / 0.2, 0.1, 1e-9, 0.2
    xs, path = cme_rk4(kappa, dk, (s0, 0.0, p0), 100, 0.05)
    np.testing.assert_allclose(path[:, 2], 0.2, rtol=1e-9)
    np.testing.assert_allclose(p0 * p0 - idler_power(kappa, dk, s0, p0, xs),
                               0.04, rtol=1e-9)


def test_cme_zero_pump_propagates_unchanged():
    # No pump or no coupling leaves the idler empty and the signal as it
    # came in, also with dk = 0 where the roots coincide.
    for kappa, dk, p0 in [(0.0, 0.1, 0.0), (0.05, 0.1, 0.0), (0.0, 0.0, 0.2),
                          (0.0, 0.1, 0.2)]:
        assert idler_power(kappa, dk, 1e-3, p0, 100.0) == 0.0


def test_cme_inputs_validation(ref_dispersion, ref_expansion):
    for bad in (0, -1):
        with pytest.raises(ValueError, match="cell count must be positive"):
            gain_profile(ref_dispersion, ref_expansion, drive(),
                         n_cells=bad, xi=0.2)
    # g0 cannot be negative: the wavenumbers under its square root cannot.
    with pytest.raises(ValueError, match="non-negative"):
        coupling_constant(ref_expansion, xi=0.2, k_s=-0.1, k_i=0.5)


def test_sncndn_matches_scipy_ellipj():
    rng = np.random.default_rng(0)
    m = np.concatenate((rng.uniform(0.0, 0.999, 2000), [0.0, 0.5, 0.999]))
    u = np.concatenate((rng.uniform(-20.0, 20.0, 2000), [3.0, 0.0, -7.5]))
    got = mixing._sncndn(u, 1.0 - m)
    for a, b in zip(got, ellipj(u, m)[:3]):
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-13)
    # At u = 0 exactly: (0, 1, 1).
    assert [float(v[-2]) for v in got] == [0.0, 1.0, 1.0]


def test_drive_spec_validation():
    with pytest.raises(ValueError):
        DriveSpec(pump_freq=PUMP, signal_band=(6e9, 5e9), signal_step=1e8)
    with pytest.raises(ValueError):
        DriveSpec(pump_freq=5e9, signal_band=BAND, signal_step=1e8)


def test_optimize_working_point_resolves_xi_from_amplitude(ref_dispersion,
                                                           ref_expansion):
    result = optimize_working_point(
        ref_dispersion, ref_expansion, n_cells=360, i_c_small_ua=0.441,
        drive=drive(), pump_amplitudes_ua=[0.2, 2.0])
    assert result.xi[0] == pytest.approx(0.2 / 0.882, rel=1e-12)
    # 2.0 uA is xi 2.27, outside [0, 1): a failed row, not a raise.
    assert result.performance_db[1] == float("-inf")
    assert result.profiles[1] is None
    assert result.best == 0
    with pytest.raises(ValueError):
        optimize_working_point(
            ref_dispersion, ref_expansion, n_cells=360, i_c_small_ua=0.0,
            drive=drive(), pump_amplitudes_ua=[0.2])


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


def test_coupling_constant_over_an_xi_array_is_bitwise_per_element(
        ref_expansion):
    k_s, k_i = np.array([0.49, 0.5, 0.61]), np.array([0.64, 0.55, 0.42])
    xis = np.array([0.0, 1e-3, 0.158, 0.36, 0.499])
    g0 = coupling_constant(ref_expansion, xis[:, None], k_s, k_i)
    assert g0.shape == (5, 3)
    for row, xi in zip(g0, xis):
        np.testing.assert_array_equal(
            row, coupling_constant(ref_expansion, float(xi), k_s, k_i))
    for bad in (1.0, -1e-3, np.nan):
        with pytest.raises(ValueError, match="outside"):
            coupling_constant(ref_expansion, np.array([0.1, bad]), k_s[0],
                              k_i[0])


@pytest.mark.parametrize("xi", [0.125, 0.16, 0.1875])
def test_gain_profile_closed_form_matches_rk4_per_column(
        ref_dispersion, ref_expansion, xi):
    profile = gain_profile(ref_dispersion, ref_expansion,
                           drive(step=0.05e9),
                           n_cells=360, xi=xi)
    final, seed = rk4_columns(ref_dispersion, ref_expansion, xi,
                              profile.freqs)
    rk4_db = 10.0 * np.log10(np.abs(final[0] / seed) ** 2)
    np.testing.assert_allclose(profile.gain_db, rk4_db, rtol=0.0, atol=1e-8)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gain_profile_matches_rk4_in_deep_depletion(ref_dispersion,
                                                    ref_expansion):
    # Every column against the oracle at the old RK4 step, and the
    # depletion against the oracle's pump, to 1e-12 of the pump power.
    xis = np.array([0.4, 0.45, 0.499])[:, None]
    spec = drive(step=0.05e9)
    final, seed = rk4_columns(ref_dispersion, ref_expansion, xis,
                              signal_idler_grid(spec))
    for row, xi in enumerate(xis[:, 0]):
        profile = gain_profile(ref_dispersion, ref_expansion, spec,
                               n_cells=360, xi=xi)
        gain = 10.0 ** (profile.gain_db / 10.0)
        np.testing.assert_allclose(gain, np.abs(final[0, row] / seed[row]) ** 2,
                                   rtol=1e-9)
        np.testing.assert_allclose(
            profile.pump_depletion, 1.0 - np.abs(final[2, row] / xi) ** 2,
            rtol=0.0, atol=1e-12)
        assert_manley_rowe_depletion(profile)
    # The top of the bracket depletes the pump by more than 1e-4.
    assert np.max(profile.pump_depletion) > 1e-4


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gain_profile_stays_finite_where_the_undepleted_gain_overflows(
        ref_dispersion):
    # c3 / 2 c2 = 50 puts g0 N past 710 at 72 cells: the undepleted gain is
    # inf there, while the depleted gain stays below 1 + SEED_RATIO^-2.
    strong = PotentialExpansion(phi_min=0.0, c2=1.0, c3=100.0, c4=0.0)
    spec = drive(step=0.5e9)
    k_s, k_i, k_p = band_wavenumbers(ref_dispersion, signal_idler_grid(spec))
    assert np.all(undepleted_gain(coupling_constant(strong, 0.5, k_s, k_i),
                                  k_p - k_s - k_i, 72) == np.inf)
    profile = gain_profile(ref_dispersion, strong, spec, n_cells=72, xi=0.5)
    gain = 10.0 ** (profile.gain_db / 10.0)
    assert np.all(np.isfinite(profile.gain_db))
    assert np.all((gain > 1.0) & (gain <= 1.0 + mixing.SEED_RATIO**-2))
    assert np.all(profile.pump_depletion <= 1.0)
    assert_manley_rowe_depletion(profile)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gain_is_exactly_one_without_coupling(ref_dispersion):
    # c3 = 0 gives g0 = 0 for every tone: no idler, no gain, no depletion.
    silent = PotentialExpansion(phi_min=0.0, c2=1.0, c3=0.0, c4=0.0)
    profile = gain_profile(ref_dispersion, silent, drive(), n_cells=360,
                           xi=0.3)
    np.testing.assert_array_equal(profile.gain_db, 0.0)
    np.testing.assert_array_equal(profile.pump_depletion, 0.0)
    assert closed_form_gain(0.0, np.array([0.0, 0.02]), 1e-6, 0.3, 360.0
                            ).tolist() == [1.0, 1.0]


def assert_manley_rowe_depletion(profile):
    # The floor covers shallow columns, where 10^(dB / 10) - 1 cancels.
    expected = mixing.SEED_RATIO**2 * (10.0 ** (profile.gain_db / 10.0) - 1.0)
    np.testing.assert_allclose(profile.pump_depletion, expected, rtol=1e-9,
                               atol=1e-24)


def test_gain_profile_depletion_is_manley_rowe(ref_profile):
    assert_manley_rowe_depletion(ref_profile)
    assert np.all(ref_profile.pump_depletion > 0.0)


def test_optimize_working_point_deep_drive_matches_gain_profile(
        ref_dispersion, ref_expansion):
    i_c = 0.441
    amps = [0.1, 2.0 * i_c * 0.499]
    template = drive(step=0.05e9)
    result = optimize_working_point(
        ref_dispersion, ref_expansion, n_cells=360, i_c_small_ua=i_c,
        drive=template, pump_amplitudes_ua=amps)
    for xi, profile in zip(result.xi, result.profiles):
        single = gain_profile(ref_dispersion, ref_expansion, template,
                              n_cells=360, xi=xi)
        np.testing.assert_allclose(profile.gain_db, single.gain_db,
                                   rtol=1e-15, atol=0.0)
        assert_manley_rowe_depletion(profile)
    # The deep drive depletes the pump past 1e-4, the shallow one below 1e-6.
    assert np.max(result.profiles[1].pump_depletion) > 1e-4
    assert np.max(result.profiles[0].pump_depletion) < 1e-6
    assert result.best == 1


def test_gain_profile_zero_pump_is_flat_zero(ref_dispersion, ref_expansion):
    profile = gain_profile(ref_dispersion, ref_expansion, drive(),
                           n_cells=360, xi=0.0)
    np.testing.assert_array_equal(profile.gain_db, 0.0)
    np.testing.assert_array_equal(profile.pump_depletion, 0.0)


@pytest.fixture(scope="module")
def ref_profile(ref_dispersion, ref_expansion):
    return gain_profile(ref_dispersion, ref_expansion, drive(),
                        n_cells=360, xi=0.16)


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
        drive=drive(), pump_amplitudes_ua=amps)
    perfs = list(result.performance_db)
    assert perfs == sorted(perfs)  # gain grows with pump drive here
    assert result.best == 2
    assert len(result.profiles) == 3
    assert all(p is not None for p in result.profiles)


def test_optimize_working_point_skips_failures(ref_dispersion, ref_expansion):
    result = optimize_working_point(
        ref_dispersion, ref_expansion, n_cells=360, i_c_small_ua=0.441,
        drive=drive(), pump_amplitudes_ua=[0.1, 5.0])
    assert result.performance_db[1] == float("-inf")
    assert result.profiles[1] is None
    assert result.best == 0


def test_optimize_working_point_batch_matches_single_drives(
        ref_dispersion, ref_expansion):
    amps = [0.1, 5.0, 0.15]
    result = optimize_working_point(
        ref_dispersion, ref_expansion, n_cells=360, i_c_small_ua=0.441,
        drive=drive(), pump_amplitudes_ua=amps)
    assert result.performance_db[1] == float("-inf")
    assert result.profiles[1] is None
    for i in (0, 2):
        single = gain_profile(ref_dispersion, ref_expansion, drive(),
                              n_cells=360, xi=amps[i] / (2.0 * 0.441))
        np.testing.assert_allclose(result.profiles[i].gain_db,
                                   single.gain_db, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(result.profiles[i].freqs, single.freqs)
        assert result.performance_db[i] == pytest.approx(
            performance(single), abs=1e-12)
    assert result.best == 2


def test_optimize_working_point_all_failures_raise(ref_dispersion,
                                                   ref_expansion, monkeypatch):
    # Each drive is named with its own error.
    with pytest.raises(RuntimeError, match="every drive point failed") as exc:
        optimize_working_point(
            ref_dispersion, ref_expansion, n_cells=360, i_c_small_ua=0.441,
            drive=drive(), pump_amplitudes_ua=[2.0, 5.0])
    assert str(exc.value) == (
        "every drive point failed: "
        f"xi {2.0 / 0.882}: ValueError: normalized pump amplitude "
        f"{2.0 / 0.882} outside [0, 1); "
        f"xi {5.0 / 0.882}: ValueError: normalized pump amplitude "
        f"{5.0 / 0.882} outside [0, 1)")

    # A device the gain cannot be computed for fails every in-range drive
    # with its error, next to the out-of-range ones.
    def negative_k(disp, spec):
        raise ValueError("negative wavenumber in the signal band")

    monkeypatch.setattr(mixing, "_tones", negative_k)
    with pytest.raises(RuntimeError) as exc:
        optimize_working_point(
            ref_dispersion, ref_expansion, n_cells=360, i_c_small_ua=0.441,
            drive=drive(), pump_amplitudes_ua=[0.1, 2.0, 0.2])
    message = str(exc.value)
    for amp in (0.1, 0.2):
        assert (f"xi {amp / 0.882}: ValueError: negative wavenumber in the "
                f"signal band") in message
    assert f"xi {2.0 / 0.882}: ValueError: normalized pump amplitude" in message


def test_optimize_working_point_tie_breaks_to_lower_amplitude(
        ref_dispersion, ref_expansion):
    result = optimize_working_point(
        ref_dispersion, ref_expansion, n_cells=360, i_c_small_ua=0.441,
        drive=drive(), pump_amplitudes_ua=[0.1, 0.1])
    assert result.performance_db[0] == result.performance_db[1]
    assert result.best == 0


@given(g0n=st.floats(0.1, 5.0), dkn=st.floats(0.0, 12.0))
@settings(max_examples=50, deadline=None)
def test_undepleted_gain_is_at_least_unity_when_matched_enough(g0n, dkn):
    # With |dk| <= 2 g0 the gain branch is hyperbolic and never attenuates.
    n = 240
    gain = undepleted_gain(g0n / n, min(dkn, 2.0 * g0n) / n, n)
    assert gain >= 1.0 - 1e-12


# -- working point as a solve --------------------------------------------------


def exact_band_mean(disp, expansion, n_cells, xis):
    """Band mean (dB) of the exact gain, one per xi."""
    return np.array([performance(p) for p in mixing._gain_profiles(
        disp, expansion, drive(step=0.05e9), n_cells, xis)])


@pytest.fixture(scope="module")
def short_device():
    """The reference device at 120 cells, as find_working_point_20db builds
    it with ``--cells 120``."""
    device = DeviceParams(junction_area=0.49, current_density=0.9, alpha=0.23,
                          dielectric_thickness=9.0, inductance_load_ratio=1.5,
                          capacitance_load_ratio=1.0, pitch=3, cell_count=120)
    return bias_device(device, kerr_free_flux(device.alpha),
                       FrequencyGrid(0.0, 24e9, 1e7), CellConfig())


def bisection_bracket(disp, expansion, target=20.0, tol=0.25):
    """The bracket criterion 10's bisection ends in (same midpoints)."""
    lo, hi = mixing.XI_BRACKET
    for _ in range(30):
        xi = 0.5 * (lo + hi)
        perf = performance(gain_profile(disp, expansion, drive(step=0.05e9),
                                        n_cells=360, xi=xi))
        if abs(perf - target) < tol:
            return lo, hi
        lo, hi = (xi, hi) if perf < target else (lo, xi)
    raise AssertionError("bisection did not converge")


def test_bias_device_matches_the_reference_fixtures(
        ref_device, ref_flux, ref_grid, ref_response, ref_dispersion,
        ref_expansion):
    biased = bias_device(ref_device, ref_flux, ref_grid, CellConfig())
    np.testing.assert_array_equal(biased.response.s21, ref_response.s21)
    np.testing.assert_array_equal(biased.dispersion.k, ref_dispersion.k)
    assert biased.expansion == ref_expansion


@pytest.mark.parametrize("n_cells", [120, 360])
def test_closed_form_band_mean_is_monotone_in_xi(
        n_cells, short_device, ref_dispersion, ref_expansion):
    disp, expansion = ((short_device.dispersion, short_device.expansion)
                       if n_cells == 120 else (ref_dispersion, ref_expansion))
    xis = np.linspace(*mixing.XI_BRACKET, 2000)
    assert np.all(np.diff(exact_band_mean(disp, expansion, n_cells,
                                          xis)) > 0.0)


@pytest.mark.parametrize("target_db, tol_db, max_iter, xi, band_mean_db", [
    (20.0, 0.25, 40, "0x1.440bbb537c582p-3", "0x1.4000000001209p+4"),
    (70.0, 0.25, 40, "0x1.a6e4f90726b17p-2", "0x1.1800000000004p+6"),
])
def test_solve_working_point_frozen_values(ref_dispersion, ref_expansion,
                                           target_db, tol_db, max_iter, xi,
                                           band_mean_db):
    sol = solve_working_point(ref_dispersion, ref_expansion,
                              drive(step=0.05e9), 360, target_db, tol_db,
                              max_iter)
    assert sol.xi == float.fromhex(xi)
    assert sol.band_mean_db == float.fromhex(band_mean_db)


def test_solve_working_point_20db_is_closed_form(
        ref_dispersion, ref_expansion, monkeypatch):
    profile_calls = []
    monkeypatch.setattr(mixing, "gain_profile", lambda *a: (
        profile_calls.append(a[-1]) or gain_profile(*a)))
    sol = solve_working_point(ref_dispersion, ref_expansion,
                              drive(step=0.05e9), 360, 20.0, 0.25, 40)
    assert abs(sol.band_mean_db - 20.0) < 1e-6
    assert sol.band_mean_db == performance(sol.profile)
    assert profile_calls[:2] == list(mixing.XI_BRACKET)
    assert sol.gain_profile_calls == len(profile_calls) <= 12
    assert len(set(profile_calls)) == len(profile_calls)
    assert sol.bracket == mixing.XI_BRACKET
    assert [type(b) for b in sol.bracket] == [float, float]

    monkeypatch.undo()
    lo, hi = bisection_bracket(ref_dispersion, ref_expansion)
    assert lo < sol.xi < hi


def test_solve_working_point_70db_converges_over_the_bracket(
        ref_dispersion, ref_expansion):
    # The band mean is 86.5 dB at xi 0.499: one root-find over the whole
    # bracket, every column depleting the pump at the top.
    sol = solve_working_point(ref_dispersion, ref_expansion,
                              drive(step=0.05e9), 360, 70.0, 1e-6, 40)
    assert sol.bracket == mixing.XI_BRACKET
    assert abs(sol.band_mean_db - 70.0) <= 1e-6
    assert sol.bracket[0] < sol.xi < sol.bracket[1]
    assert sol.gain_profile_calls <= 12
    assert np.max(sol.profile.pump_depletion) > 1e-5


def test_solve_working_point_unreachable_target_raises(short_device):
    disp, expansion = short_device.dispersion, short_device.expansion
    top = performance(gain_profile(disp, expansion, drive(step=0.05e9),
                                   n_cells=120, xi=0.499))
    with pytest.raises(UnreachableTargetError, match="unreachable") as exc:
        solve_working_point(disp, expansion, drive(step=0.05e9), 120, 80.0,
                            0.25, 40)
    assert exc.value.xi == mixing.XI_BRACKET[1]
    assert exc.value.band_mean_db == top
    assert round(top, 2) == 24.56


def test_solve_working_point_checks_the_final_point(ref_dispersion,
                                                    ref_expansion):
    with pytest.raises(WorkingPointError, match="misses the target") as exc:
        solve_working_point(ref_dispersion, ref_expansion, drive(step=0.05e9),
                            360, 20.0, 1e-9, 1)
    assert not isinstance(exc.value, UnreachableTargetError)
    assert abs(exc.value.band_mean_db - 20.0) > 1e-9
    assert 0.0 < exc.value.xi < mixing.XI_BRACKET[1]


def test_solve_working_point_target_below_the_bracket_returns_its_bottom(
        ref_dispersion, ref_expansion):
    # The band mean at xi 1e-3 is 4.3e-4 dB, above a 0 dB target.
    sol = solve_working_point(ref_dispersion, ref_expansion, drive(), 360,
                              0.0, 0.01, 40)
    assert sol.xi == mixing.XI_BRACKET[0]
    assert sol.bracket == (sol.xi, sol.xi)
    assert sol.gain_profile_calls == 1


def test_bandwidth_3db_interpolates_each_edge():
    freqs = np.linspace(4.75e9, 6.75e9, 41)
    tri = 1.0 - np.abs(freqs - 5.75e9) / 1e9
    zeros = np.zeros_like(freqs)
    # Peak 40 dB at 5.75 GHz falling 2 dB per 50 MHz: the 37 dB crossings
    # sit halfway between samples, at 5.675 and 5.825 GHz.
    peaked = GainProfile(freqs, 40.0 * tri, zeros)
    assert bandwidth_3db(peaked) == pytest.approx(0.15e9, rel=1e-12)
    # Within 3 dB across the band: the band edges bound it.
    flat = GainProfile(freqs, 20.0 + tri, zeros)
    assert bandwidth_3db(flat) == pytest.approx(2e9, rel=1e-12)
    # A peak on the lower band edge is bounded by that edge.
    edge = GainProfile(freqs, 10.0 - 20.0 * (freqs - 4.75e9) / 1e9, zeros)
    assert bandwidth_3db(edge) == pytest.approx(0.15e9, rel=1e-12)


def test_solve_reports_ripple_and_bandwidth_of_its_profile(
        ref_dispersion, ref_expansion, monkeypatch):
    # Hand-built profiles 200 xi (1 - |f - 5.75 GHz| / 1 GHz) dB: band mean
    # 100 xi dB, so 20 dB at xi 0.2 with a 40 dB peak, 40 dB of ripple and
    # a 150 MHz -3 dB band.
    freqs = signal_idler_grid(drive(step=0.05e9))
    tri = 1.0 - np.abs(freqs - 5.75e9) / 1e9

    def hand_built(disp, expansion, spec, n_cells, xi):
        return GainProfile(freqs, 200.0 * xi * tri, np.zeros_like(freqs))

    monkeypatch.setattr(mixing, "gain_profile", hand_built)
    sol = solve_working_point(ref_dispersion, ref_expansion,
                              drive(step=0.05e9), 360, 20.0, 1e-6, 40)
    assert sol.xi == pytest.approx(0.2, rel=1e-9)
    assert sol.ripple_db == pytest.approx(40.0, rel=1e-9)
    assert sol.bandwidth_hz == pytest.approx(0.15e9, rel=1e-6)
