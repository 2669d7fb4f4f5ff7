"""Flux-biased SNAIL loop: potential, Taylor coefficients, effective inductance.

The element is a superconducting loop with one small Josephson junction in
parallel with a series branch of three larger junctions (each with area
``area / alpha``, so the small junction is the weaker one for alpha < 1).
An external DC flux through the loop shapes the potential seen by the
small-junction phase.  Away from zero flux the cubic coefficient turns on
(three-wave mixing), and at one particular bias the quartic coefficient
crosses zero, which is the operating point used for Kerr-free amplification.

Units: junction geometry is carried in fabrication units (area in um^2,
critical current density in uA/um^2, currents in uA); energies, inductances
and capacitances are SI.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import REDUCED_FLUX_QUANTUM
from .roots import brentq

TWO_PI = 2.0 * np.pi

#: Relative tolerance on the stationarity residual |U'(phi_min)| / E_Js.
_MIN_RESIDUAL_TOL = 1e-12

#: Kerr-free bias: the closed form picks one cell of a uniform grid of
#: _KERR_FREE_GRID_POINTS fluxes over (0, 0.5] Phi0, and bisection narrows
#: that cell down to _KERR_FREE_TOL Phi0.  Together they fix the output bits.
_KERR_FREE_GRID_POINTS = 2000
_KERR_FREE_TOL = 1e-10


class NoKerrFreePointError(RuntimeError):
    """No quartic-coefficient zero crossing exists in (0, 0.5) Phi0."""


class MinimumNotFoundError(RuntimeError):
    """The potential minimum search failed to converge."""


@dataclass(frozen=True)
class JunctionSpec:
    """Small-junction geometry.

    area: junction area in um^2.
    current_density: critical current density in uA/um^2.
    """

    area: float
    current_density: float

    def __post_init__(self):
        if not self.area > 0:
            raise ValueError(f"junction area must be positive, got {self.area}")
        if not self.current_density > 0:
            raise ValueError(
                f"current density must be positive, got {self.current_density}"
            )


@dataclass(frozen=True)
class SnailSpec:
    """One SNAIL loop: small junction, junction-size ratio, applied flux.

    alpha is the ratio of small-junction to large-junction critical current
    (equivalently of areas at fixed current density), strictly inside (0, 1).
    flux_ext is the external flux through the loop in units of Phi0, in
    [0, 1).  The large-junction branch always has three junctions.
    """

    small_junction: JunctionSpec
    alpha: float
    flux_ext: float

    def __post_init__(self):
        _check_bias(self.alpha, self.flux_ext)

    @property
    def small_energy(self) -> float:
        """Josephson energy of the small junction, in J."""
        junction = self.small_junction
        return josephson_energy(junction.area, junction.current_density)


@dataclass(frozen=True)
class PotentialExpansion:
    """Taylor data of the potential about its minimum.

    Coefficients use the 1/n! convention, U(phi_min + x) = sum_n c_n x^n,
    and carry units of J.  phi_min is in rad.
    """

    phi_min: float
    c2: float
    c3: float
    c4: float


def _check_bias(alpha: float, flux_ext: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not 0.0 <= flux_ext < 1.0:
        raise ValueError(f"flux_ext must be in [0, 1) Phi0, got {flux_ext}")


def critical_current(junction: JunctionSpec) -> float:
    """Critical current in uA, area times current density."""
    return junction.area * junction.current_density


def josephson_energy(area, current_density):
    """Josephson energy (Phi0 / 2 pi) I_c in J of a junction of the given
    area (um^2) and critical current density (uA/um^2); arrays broadcast."""
    i_c = area * current_density * 1e-6  # A
    return REDUCED_FLUX_QUANTUM * i_c


def josephson_inductance(i_c_ua: float) -> float:
    """Josephson inductance Phi0 / (2 pi I_c) in H for a critical current in uA."""
    if not i_c_ua > 0:
        raise ValueError(f"critical current must be positive, got {i_c_ua}")
    return REDUCED_FLUX_QUANTUM / (i_c_ua * 1e-6)


def _phase_args(spec: SnailSpec, phi):
    phi_ext = TWO_PI * spec.flux_ext
    return phi, (phi_ext - np.asarray(phi)) / 3.0


def potential(spec: SnailSpec, phi) -> float:
    """Loop potential U(phi) in J at small-junction phase phi (rad).

    U(phi) = -E_Js cos(phi) - 3 E_Jl cos((phi_ext - phi) / 3), with
    phi_ext = 2 pi flux_ext and E_Jl = E_Js / alpha.
    """
    phi, u = _phase_args(spec, phi)
    e_s = spec.small_energy
    return e_s * (-np.cos(phi) - (3.0 / spec.alpha) * np.cos(u))


# Normalized derivative chain, in units of E_Js.  Closed forms follow from
# d/dphi [(phi_ext - phi)/3] = -1/3.


def _u1(alpha: float, phi_ext: float, phi):
    u = (phi_ext - np.asarray(phi)) / 3.0
    return np.sin(phi) - np.sin(u) / alpha


def _u2(alpha: float, phi_ext: float, phi):
    u = (phi_ext - np.asarray(phi)) / 3.0
    return np.cos(phi) + np.cos(u) / (3.0 * alpha)


def _u3(alpha: float, phi_ext: float, phi):
    u = (phi_ext - np.asarray(phi)) / 3.0
    return -np.sin(phi) + np.sin(u) / (9.0 * alpha)


def _u4(alpha: float, phi_ext: float, phi):
    u = (phi_ext - np.asarray(phi)) / 3.0
    return -np.cos(phi) - np.cos(u) / (27.0 * alpha)


def potential_derivative(spec: SnailSpec, phi, order: int = 1):
    """Analytic d^n U / d phi^n in J/rad^n, for order in 1..4."""
    funcs = {1: _u1, 2: _u2, 3: _u3, 4: _u4}
    if order not in funcs:
        raise ValueError(f"derivative order must be 1..4, got {order}")
    phi_ext = TWO_PI * spec.flux_ext
    return spec.small_energy * funcs[order](spec.alpha, phi_ext, phi)


def _phase_minimum_normalized(alpha: float, flux_ext: float) -> float:
    """Potential minimum phase, independent of junction scale.

    Scans one full 6 pi period of the normalized potential, takes the global
    grid minimum (the branch continuously connected to phi = 0 at zero flux
    for the single-well alpha range used here), then refines by root finding
    on the first derivative plus Newton polish.
    """
    if flux_ext == 0.0:
        return 0.0
    phi_ext = TWO_PI * flux_ext

    grid = np.linspace(phi_ext - 3.0 * np.pi, phi_ext + 3.0 * np.pi, 4097)
    u_vals = -np.cos(grid) - (3.0 / alpha) * np.cos((phi_ext - grid) / 3.0)
    j = int(np.argmin(u_vals))
    lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, grid.size - 1)]

    f = lambda p: _u1(alpha, phi_ext, p)
    if not (f(lo) < 0.0 < f(hi)):
        raise MinimumNotFoundError(
            f"no bracketed minimum near phi={grid[j]:.6f} "
            f"(alpha={alpha}, flux_ext={flux_ext})"
        )
    phi_min = brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16)
    # Two Newton steps push the residual to rounding level.
    for _ in range(2):
        d2 = _u2(alpha, phi_ext, phi_min)
        if d2 <= 0:
            break
        phi_min = phi_min - f(phi_min) / d2

    residual = abs(f(phi_min))
    curvature = _u2(alpha, phi_ext, phi_min)
    if residual >= _MIN_RESIDUAL_TOL or curvature <= 0.0:
        raise MinimumNotFoundError(
            f"minimum search failed: residual={residual:.3e} E_Js/rad, "
            f"curvature={curvature:.3e} E_Js (alpha={alpha}, flux_ext={flux_ext})"
        )
    return float(phi_min)


def find_phase_minimum(spec: SnailSpec) -> float:
    """Phase of the potential minimum, in rad.

    Satisfies |U'(phi_min)| < 1e-12 E_Js/rad and U''(phi_min) > 0.  At zero
    flux the minimum sits exactly at phi = 0.
    """
    return _phase_minimum_normalized(spec.alpha, spec.flux_ext)


@functools.lru_cache(maxsize=8192)
def _expansion_normalized(alpha: float, flux_ext: float):
    """(phi_min, c2, c3, c4) with coefficients in units of E_Js."""
    phi_min = _phase_minimum_normalized(alpha, flux_ext)
    phi_ext = TWO_PI * flux_ext
    c2 = _u2(alpha, phi_ext, phi_min) / 2.0
    c3 = _u3(alpha, phi_ext, phi_min) / 6.0
    c4 = _u4(alpha, phi_ext, phi_min) / 24.0
    return phi_min, float(c2), float(c3), float(c4)


def normalized_expansion(alpha: float, flux_ext: float):
    """(phi_min, c2, c3, c4) about the minimum, coefficients in units of E_Js.

    alpha and flux_ext are checked as SnailSpec checks them.  The result
    does not depend on the junction scale and is cached per (alpha, flux).
    """
    _check_bias(alpha, flux_ext)
    return _expansion_normalized(alpha, flux_ext)


def scale_expansion(normalized, small_energy) -> PotentialExpansion:
    """The expansion in J of normalized (phi_min, c2, c3, c4) coefficients
    for a small-junction energy in J.  Each entry may be an array with one
    element per loop."""
    phi_min, c2, c3, c4 = normalized
    e_s = small_energy
    return PotentialExpansion(phi_min=phi_min, c2=e_s * c2, c3=e_s * c3, c4=e_s * c4)


def expand_potential(spec: SnailSpec) -> PotentialExpansion:
    """Analytic Taylor coefficients c2..c4 of U about its minimum, in J."""
    return scale_expansion(_expansion_normalized(spec.alpha, spec.flux_ext),
                           spec.small_energy)


def effective_inductance(expansion: PotentialExpansion):
    """Linear inductance (Phi0 / 2 pi)^2 / (2 c2) of the expanded loop, in H.

    c2 may be an array of loops; the first one that is not positive is
    named in the error.
    """
    c2 = np.asarray(expansion.c2)
    unstable = ~(c2 > 0)
    if unstable.any():
        raise ValueError(
            f"no stable minimum: quadratic coefficient c2={c2[unstable].flat[0]:.3e} J"
        )
    return REDUCED_FLUX_QUANTUM**2 / (2.0 * expansion.c2)


def _kerr_free_guess(alpha: float) -> float:
    """Closed-form flux in Phi0 where U' = 0 and c4 = 0, for alpha > 1/27.

    U' = 0 gives sin u = alpha sin phi and c4 = 0 gives
    cos u = -27 alpha cos phi, so sin^2 phi = (729 alpha^2 - 1) / (728 alpha^2)
    on the branch with cos phi < 0, and phi_ext = phi + 3 u.
    """
    phi = math.pi - math.asin(
        math.sqrt((729.0 * alpha**2 - 1.0) / (728.0 * alpha**2)))
    return (phi + 3.0 * math.asin(alpha * math.sin(phi))) / TWO_PI


@functools.lru_cache(maxsize=1024)
def _kerr_free_flux_normalized(alpha: float) -> float:
    if alpha <= 1.0 / 27.0:
        raise NoKerrFreePointError(
            f"no closed-form Kerr-free bias for alpha={alpha} <= 1/27")
    fluxes = np.linspace(0.0, 0.5, _KERR_FREE_GRID_POINTS + 1)[1:]
    guess = _kerr_free_guess(alpha)
    i = int(np.searchsorted(fluxes, guess, side="right")) - 1
    if not 0 <= i < fluxes.size - 1:
        raise NoKerrFreePointError(
            f"closed-form Kerr-free bias {guess} Phi0 is off the "
            f"({fluxes[0]}, {fluxes[-1]}) Phi0 grid for alpha={alpha}"
        )
    lo, hi = float(fluxes[i]), float(fluxes[i + 1])
    # The closed form only picks the cell; the scalar minimum search checks
    # it and the bisection sets the bits.
    f_lo = _expansion_normalized(alpha, lo)[3]
    if not f_lo * _expansion_normalized(alpha, hi)[3] < 0.0:
        raise NoKerrFreePointError(
            f"c4 does not change sign over [{lo}, {hi}] Phi0 for alpha={alpha}"
        )

    while hi - lo > _KERR_FREE_TOL:
        mid = 0.5 * (lo + hi)
        f_mid = _expansion_normalized(alpha, mid)[3]
        if f_mid == 0.0:
            return mid
        if (f_lo < 0) == (f_mid < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def kerr_free_flux(alpha: float) -> float:
    """The flux in (0, 0.5) Phi0 where the quartic coefficient vanishes.

    Located once per alpha in two steps.  The closed form of U' = c4 = 0
    picks the cell of a _KERR_FREE_GRID_POINTS flux grid that holds the
    bias, and the scalar minimum search (_expansion_normalized) checks that
    c4 changes sign across it.  Bisection through the same search then
    narrows the cell to _KERR_FREE_TOL Phi0.  Depends on alpha alone: every
    coefficient is proportional to E_Js, so the junction scale drops out.
    Raises NoKerrFreePointError when there is no closed form (alpha <= 1/27),
    when it falls off the grid, when c4 keeps its sign across the cell, or
    when the cubic coefficient vanishes at the bias, and
    MinimumNotFoundError when the minimum search fails at a cell end or a
    bisection point.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    flux = _kerr_free_flux_normalized(alpha)

    # The bias is only useful if three-wave mixing survives there.
    _, c2, c3, _ = _expansion_normalized(alpha, flux)
    if abs(c3) <= 1e-6 * c2:
        raise NoKerrFreePointError(
            f"cubic coefficient vanishes at the Kerr-free bias for alpha={alpha}"
        )
    return flux
