"""Loop potential, Taylor coefficients, Kerr-free bias."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    kerr_free_flux_scan,
    potential_derivative_fd,
    snail_potential_normalized,
)
import twpaopt.snail as snail
from twpaopt.constants import REDUCED_FLUX_QUANTUM
from twpaopt.snail import (
    JunctionSpec,
    NoKerrFreePointError,
    PotentialExpansion,
    SnailSpec,
    critical_current,
    effective_inductance,
    expand_potential,
    find_phase_minimum,
    josephson_inductance,
    kerr_free_flux,
    potential,
    potential_derivative,
)

JUNCTION = JunctionSpec(area=0.49, current_density=0.9)


def make_spec(alpha=0.23, flux=0.0):
    return SnailSpec(small_junction=JUNCTION, alpha=alpha, flux_ext=flux)


def test_critical_current_and_josephson_inductance():
    assert critical_current(JUNCTION) == pytest.approx(0.441, abs=1e-15)
    # L_J = Phi0 / (2 pi I_c) with I_c in uA
    l_j = josephson_inductance(0.441)
    assert l_j == pytest.approx(REDUCED_FLUX_QUANTUM / 0.441e-6, rel=1e-15)
    with pytest.raises(ValueError):
        josephson_inductance(0.0)


def test_junction_validation():
    with pytest.raises(ValueError):
        JunctionSpec(area=-1.0, current_density=1.0)
    with pytest.raises(ValueError):
        JunctionSpec(area=1.0, current_density=0.0)
    with pytest.raises(ValueError):
        SnailSpec(small_junction=JUNCTION, alpha=1.2, flux_ext=0.0)
    with pytest.raises(ValueError):
        SnailSpec(small_junction=JUNCTION, alpha=0.23, flux_ext=1.0)


def test_potential_matches_normalized_form():
    spec = make_spec(alpha=0.27, flux=0.31)
    phis = np.linspace(-2.0, 4.0, 17)
    expected = spec.small_energy * snail_potential_normalized(0.27, 0.31, phis)
    np.testing.assert_allclose(potential(spec, phis), expected, rtol=1e-14)


@pytest.mark.parametrize("alpha,flux", [(0.23, 0.0), (0.23, 0.38), (0.25, 0.2),
                                        (0.29, 0.45)])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_analytic_derivatives_against_finite_differences(alpha, flux, order):
    spec = make_spec(alpha=alpha, flux=flux)
    for phi in (-0.7, 0.0, 0.9, 2.3):
        fd = potential_derivative_fd(alpha, flux, phi, order)
        analytic = potential_derivative(spec, phi, order) / spec.small_energy
        assert analytic == pytest.approx(fd, rel=2e-5, abs=2e-5)


def test_derivative_order_validation():
    with pytest.raises(ValueError):
        potential_derivative(make_spec(), 0.0, order=5)


def test_minimum_at_zero_flux_is_exactly_zero():
    assert find_phase_minimum(make_spec(flux=0.0)) == 0.0


@given(
    alpha=st.floats(0.05, 0.32),
    flux=st.floats(0.0, 0.499),
)
@settings(max_examples=60, deadline=None)
def test_minimum_is_stationary_and_stable(alpha, flux):
    spec = make_spec(alpha=alpha, flux=flux)
    phi_min = find_phase_minimum(spec)
    residual = abs(potential_derivative(spec, phi_min, 1)) / spec.small_energy
    assert residual < 1e-12
    assert potential_derivative(spec, phi_min, 2) > 0
    # A genuine local minimum: nudging either way raises the potential.
    u0 = potential(spec, phi_min)
    assert potential(spec, phi_min + 1e-3) > u0
    assert potential(spec, phi_min - 1e-3) > u0


def test_expansion_coefficients_from_derivatives():
    spec = make_spec(alpha=0.23, flux=0.38)
    exp = expand_potential(spec)
    phi = exp.phi_min
    assert exp.c2 == pytest.approx(potential_derivative(spec, phi, 2) / 2.0,
                                   rel=1e-13)
    assert exp.c3 == pytest.approx(potential_derivative(spec, phi, 3) / 6.0,
                                   rel=1e-13)
    assert exp.c4 == pytest.approx(potential_derivative(spec, phi, 4) / 24.0,
                                   rel=1e-12, abs=1e-40)


def test_cubic_coefficient_vanishes_at_zero_flux():
    exp = expand_potential(make_spec(alpha=0.23, flux=0.0))
    assert abs(exp.c3) < 1e-12 * exp.c2
    # and turns on away from zero flux
    biased = expand_potential(make_spec(alpha=0.23, flux=0.2))
    assert abs(biased.c3) > 1e-3 * biased.c2


def test_zero_flux_inductance_is_parallel_junction_combination():
    alpha = 0.23
    exp = expand_potential(make_spec(alpha=alpha, flux=0.0))
    l_small = josephson_inductance(critical_current(JUNCTION))
    l_branch = 3.0 * alpha * l_small  # three large junctions in series
    expected = l_small * l_branch / (l_small + l_branch)
    assert effective_inductance(exp) == pytest.approx(expected, rel=1e-12)


def test_effective_inductance_rejects_unstable_expansion():
    bad = PotentialExpansion(phi_min=0.0, c2=-1e-22, c3=0.0, c4=0.0)
    with pytest.raises(ValueError):
        effective_inductance(bad)


def test_kerr_free_flux_frozen_values():
    assert kerr_free_flux(0.23) == float.fromhex("0x1.89b3f32e978d4p-2")
    assert kerr_free_flux(0.25) == float.fromhex("0x1.91b59ca872b01p-2")


@pytest.mark.parametrize("alpha, flux, expected", [
    (0.05, 0.01, "0x1.bf9c3d849288ep-5"),
    (0.1, 0.25, "0x1.48601ad71d7b6p+0"),
    (0.23, 0.38, "0x1.b26faad944a21p+0"),
    (0.25, 0.2, "0x1.7daac63f24a2dp-1"),
    (0.29, 0.45, "0x1.05ab0e1d6fd78p+1"),
    (0.32, 0.499, "0x1.7f72107cb9b5dp+1"),
])
def test_phase_minimum_frozen_values(alpha, flux, expected):
    assert snail._phase_minimum_normalized(alpha, flux) == float.fromhex(expected)


def test_kerr_free_flux_near_the_double_well_edge():
    # Just above alpha = 1/3 the minimum at flux 0.5 loses its curvature,
    # far from the bias: the bias must still be found.
    alpha = 0.33345689223057645
    flux = kerr_free_flux(alpha)
    assert flux == pytest.approx(kerr_free_flux_scan(alpha, n_flux=4000),
                                 abs=1e-6)
    below = expand_potential(make_spec(alpha=alpha, flux=flux - 1e-3)).c4
    above = expand_potential(make_spec(alpha=alpha, flux=flux + 1e-3)).c4
    assert below * above < 0


@pytest.mark.parametrize("alpha", [0.23, 0.25])
def test_kerr_free_flux_against_dense_scan(alpha):
    flux = kerr_free_flux(alpha)
    assert 0.2 < flux < 0.5
    assert flux == pytest.approx(kerr_free_flux_scan(alpha, n_flux=4000),
                                 abs=1e-6)


@pytest.mark.parametrize("alpha", [0.23, 0.25])
def test_quartic_coefficient_changes_sign_at_kerr_free_bias(alpha):
    flux = kerr_free_flux(alpha)
    below = expand_potential(make_spec(alpha=alpha, flux=flux - 1e-3)).c4
    above = expand_potential(make_spec(alpha=alpha, flux=flux + 1e-3)).c4
    assert below * above < 0
    at = expand_potential(make_spec(alpha=alpha, flux=flux)).c4
    assert abs(at) < min(abs(below), abs(above))


@given(alpha=st.floats(0.12, 0.30))
@settings(max_examples=25, deadline=None)
def test_kerr_free_flux_exists_with_live_cubic_term(alpha):
    flux = kerr_free_flux(alpha)
    assert 0.0 < flux < 0.5
    exp = expand_potential(make_spec(alpha=alpha, flux=flux))
    assert exp.c2 > 0
    assert abs(exp.c3) > 1e-6 * exp.c2  # three-wave mixing survives the bias


#: Kerr-free bias from the scalar scan (a brentq minimum search at each of
#: the 2000 grid fluxes, first c4 sign change, then bisection), as hex
#: floats, at 25 alphas spread evenly over [0.03, 0.5]; None where c4 never
#: changes sign.
SCAN_ALPHAS = np.linspace(0.03, 0.5, 25)
SCALAR_SCAN_FLUX = (
    None,
    "0x1.997fc912f1aa1p-2",
    "0x1.7883061d2f1abp-2",
    "0x1.6d6b177f7ced9p-2",
    "0x1.6a73c2276c8b5p-2",
    "0x1.6b8e7a7851eb9p-2",
    "0x1.6f068236c8b43p-2",
    "0x1.7401146d0e561p-2",
    "0x1.7a03ea69fbe75p-2",
    "0x1.80c5463ced919p-2",
    "0x1.881623c51eb85p-2",
    "0x1.8fd7418fdf3b5p-2",
    "0x1.97f32e1810625p-2",
    "0x1.a05adaf126e97p-2",
    "0x1.a9038af851eb7p-2",
    "0x1.b1e5855cac085p-2",
    "0x1.bafb3d5a9fbe7p-2",
    "0x1.c440c1ff7ced9p-2",
    "0x1.cdb35be0c49bbp-2",
    "0x1.d7514906a7efap-2",
    "0x1.e1198d4f5c28fp-2",
    "0x1.eb0bd11810625p-2",
    "0x1.f5284a1e353f7p-2",
    "0x1.ff6fabfd70a3fp-2",
    None,
)


@pytest.mark.parametrize("alpha,expected", zip(SCAN_ALPHAS, SCALAR_SCAN_FLUX))
def test_vectorized_scan_picks_the_scalar_well_and_bracket(alpha, expected):
    # The closed-form cell is the scan's bracket, so the bisection and its
    # bits are the scan's too.
    alpha = float(alpha)
    if expected is None:
        with pytest.raises(NoKerrFreePointError):
            kerr_free_flux(alpha)
        return
    fluxes = np.linspace(0.0, 0.5, snail._KERR_FREE_GRID_POINTS + 1)[1:]
    i = int(np.searchsorted(fluxes, snail._kerr_free_guess(alpha),
                            side="right")) - 1
    lo, hi = float(fluxes[i]), float(fluxes[i + 1])
    c4_lo = snail._expansion_normalized(alpha, lo)[3]
    c4_hi = snail._expansion_normalized(alpha, hi)[3]
    assert np.sign(c4_lo) == -np.sign(c4_hi) != 0
    assert lo < float.fromhex(expected) < hi
    assert kerr_free_flux(alpha) == float.fromhex(expected)


def test_kerr_free_flux_rejects_a_cell_without_a_sign_change(monkeypatch):
    step = 0.5 / snail._KERR_FREE_GRID_POINTS
    guess = snail._kerr_free_guess
    monkeypatch.setattr(snail, "_kerr_free_guess", lambda a: guess(a) + step)
    snail._kerr_free_flux_normalized.cache_clear()
    with pytest.raises(NoKerrFreePointError, match="does not change sign"):
        kerr_free_flux(0.23)


def test_kerr_free_flux_alpha_validation():
    with pytest.raises(ValueError):
        kerr_free_flux(0.0)
    with pytest.raises((ValueError, NoKerrFreePointError)):
        kerr_free_flux(1.5)


def test_frozen_cubic_quadratic_ratio(ref_expansion):
    # Nonlinearity strength at the reference bias, used by the gain model.
    ratio = abs(ref_expansion.c3) / (2.0 * ref_expansion.c2)
    assert ratio == pytest.approx(0.11662584834033728, rel=1e-12)


def test_potential_scales_linearly_with_junction_energy():
    big = SnailSpec(JunctionSpec(0.98, 0.9), alpha=0.23, flux_ext=0.3)
    small = SnailSpec(JunctionSpec(0.49, 0.9), alpha=0.23, flux_ext=0.3)
    phis = np.linspace(-1.0, 1.0, 7)
    np.testing.assert_allclose(
        potential(big, phis), 2.0 * potential(small, phis), rtol=1e-14)
    # The minimum location is scale free.
    assert find_phase_minimum(big) == find_phase_minimum(small)
