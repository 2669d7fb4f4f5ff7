"""Stage 3: three-wave-mixing gain from coupled mode equations.

Signal, idler and pump amplitudes evolve along the cell index x as

    dA_s/dx = i kappa A_p conj(A_i) exp(-i dk x)
    dA_i/dx = i kappa A_p conj(A_s) exp(-i dk x)
    dA_p/dx = i kappa A_s A_i exp(+i dk x)

with dk = k_p - k_s - k_i the per-cell phase mismatch, kappa = g0 / xi and
pump input A_p(0) = xi, the pump current in units of twice the small
junction critical current.  The coupling g0 comes from the cubic/quadratic
coefficient ratio of the biased loop potential.

Each column -- one (xi, tone) pair -- has constant coefficients and an empty
idler at x = 0, so the equations have an exact solution with the pump
depleting, for any dk (Armstrong, Bloembergen, Ducuing & Pershan, Phys.
Rev. 127, 1918 (1962)).  With real inputs A_s(0) = s0 and A_p(0) = p0 the
Manley-Rowe relations |A_s|^2 = s0^2 + u and |A_p|^2 = p0^2 - u leave one
equation for the idler power u = |A_i|^2,

    (du/dx)^2 = 4 kappa^2 u (u1 - u) (u - u2),

where u1 > 0 > u2 are the roots of 4 kappa^2 (s0^2 + u)(p0^2 - u) = dk^2 u.
From u(0) = 0 it is

    u(x) = u1 |u2| / (u1 - u2) sd^2(kappa sqrt(u1 - u2) x | m)

with complementary parameter m_c = 1 - m = |u2| / (u1 - u2).  In the gain
regime m_c is about (s0 / p0)^2, so ``_sncndn`` takes m_c itself rather
than m, whose distance from 1 would be lost to rounding.

The signal is seeded at SEED_RATIO of the pump, so a column's signal power
gain G = (s0^2 + u) / s0^2 stays below 1 + SEED_RATIO^-2, and by Manley-Rowe
the pump gives up SEED_RATIO^2 (G - 1) of its power.  xi is the one drive
variable: ``gain_profile`` takes it directly, and ``optimize_working_point``
turns a list of pump currents into one xi array and returns the index of
the best.  ``solve_working_point`` finds the drive for a target band-mean
gain instead, with one root-find over XI_BRACKET.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .metric import band_average
from .network import (
    CellConfig,
    DeviceParams,
    DispersionCurve,
    FrequencyGrid,
    TwoPortResponse,
    dispersion,
    simulate_linear,
)
from .roots import brentq
from .snail import JunctionSpec, PotentialExpansion, SnailSpec, expand_potential

#: The integration step the removed RK4 used.  Only the traced
#: ``attach_gain_profile`` hook of ``perfbench/worker.py`` reads it, to
#: estimate RK4 steps per call; ROADMAP item 5's benchmark change deletes it.
RK4_STEP = 0.05
SEED_RATIO = 1e-6
#: Drive bracket (xi) of ``solve_working_point``.
XI_BRACKET = (1e-3, 0.499)


class WorkingPointError(RuntimeError):
    """A drive solve that ends off its target; carries the drive it ended
    at and that drive's band-mean gain."""

    def __init__(self, message: str, xi: float, band_mean_db: float):
        super().__init__(message)
        self.xi = xi
        self.band_mean_db = band_mean_db


class UnreachableTargetError(WorkingPointError):
    """The target band-mean gain lies above the gain at the top of the drive
    bracket; ``xi`` is that bracket value."""


@dataclass(frozen=True)
class DriveSpec:
    """Pump and signal tones of a drive.

    pump_freq in Hz; signal_band (lo, hi) in Hz with signal_step the gain
    grid spacing.  The pump strength is not part of the spec: every gain
    call takes it as xi, the pump current over twice the small-junction
    critical current.  The flux bias is fixed by the expansion the gain is
    computed from.
    """

    pump_freq: float
    signal_band: tuple[float, float]
    signal_step: float

    def __post_init__(self):
        if not self.pump_freq > 0:
            raise ValueError("pump frequency must be positive")
        lo, hi = self.signal_band
        if not 0 < lo < hi < self.pump_freq:
            raise ValueError(
                "signal band must satisfy 0 < f_lo < f_hi < f_pump"
            )
        if not self.signal_step > 0:
            raise ValueError("signal grid step must be positive")


#: Column header of a gain-profile table, one row per signal tone.
GAIN_PROFILE_COLUMNS = ("f_signal_Hz", "gain_dB", "pump_depletion")


@dataclass
class GainProfile:
    """Signal power gain across the band for one drive point."""

    freqs: np.ndarray = field(repr=False)
    gain_db: np.ndarray = field(repr=False)
    pump_depletion: np.ndarray = field(repr=False)


@dataclass
class WorkingPointResult:
    """Drive-grid sweep outcome, one entry per listed pump amplitude.

    ``xi`` holds each drive, ``performance_db`` its band-mean gain (-inf
    where the drive failed) and ``profiles`` its GainProfile (None where it
    failed); ``best`` is the index of the best drive.
    """

    xi: np.ndarray
    performance_db: np.ndarray
    profiles: list
    best: int


@dataclass
class WorkingPointSolution:
    """Drive that meets a target band-mean gain, and its figures of merit.

    ``ripple_db`` is max - min of the in-band gain (dB), ``bandwidth_hz``
    the -3 dB width around the gain peak, ``bracket`` the xi interval the
    root-find ran on and ``gain_profile_calls`` the profiles computed.
    """

    xi: float
    profile: GainProfile = field(repr=False)
    band_mean_db: float
    ripple_db: float
    bandwidth_hz: float
    bracket: tuple[float, float]
    gain_profile_calls: int


class BiasedDevice(NamedTuple):
    """Linear response, dispersion and loop expansion at one flux bias."""

    response: TwoPortResponse
    dispersion: DispersionCurve
    expansion: PotentialExpansion


def bias_device(
    device: DeviceParams, flux: float, grid: FrequencyGrid, cell: CellConfig
) -> BiasedDevice:
    """Simulate ``device`` at ``flux`` (Phi0) over ``grid`` and expand its
    loop potential there: everything a gain computation needs."""
    response = simulate_linear(device, flux, grid, cell)
    junction = JunctionSpec(device.junction_area, device.current_density)
    expansion = expand_potential(
        SnailSpec(small_junction=junction, alpha=device.alpha, flux_ext=flux))
    return BiasedDevice(response, dispersion(response, device.cell_count),
                        expansion)


def coupling_constant(expansion: PotentialExpansion, xi, k_s, k_i):
    """Three-wave coupling g0 = |c3| / (2 c2) * xi * sqrt(k_s k_i), rad/cell.

    ``xi``, ``k_s`` and ``k_i`` broadcast against each other; every xi must
    lie in [0, 1).
    """
    if not expansion.c2 > 0:
        raise ValueError("expansion must come from a stable minimum (c2 > 0)")
    if np.any(k_s < 0) or np.any(k_i < 0):
        raise ValueError("signal and idler wavenumbers must be non-negative")
    xi = np.asarray(xi, dtype=float)
    if not np.all((xi >= 0.0) & (xi < 1.0)):
        raise ValueError(f"normalized pump amplitude {xi} outside [0, 1)")
    return abs(expansion.c3) / (2.0 * expansion.c2) * xi * np.sqrt(k_s * k_i)


def _sncndn(u, m_c):
    """Jacobi sn, cn and dn of ``u`` at complementary parameter m_c = 1 - m.

    Bulirsch's descending Landen transformation (Numer. Math. 7, 78 (1965)):
    the arithmetic-geometric mean of 1 and sqrt(m_c), then back down from
    sin and cos of the scaled argument.  Every element takes the same 14
    AGM steps, enough for any 0 < m_c <= 1 down to the smallest float;
    steps past convergence only repeat the converged mean.  ``u`` and
    ``m_c`` broadcast.
    """
    a, b = np.broadcast_arrays(np.ones_like(m_c, dtype=float),
                               np.sqrt(m_c))
    means = []
    for _ in range(14):
        means.append((a, b))
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    w = np.asarray(u, dtype=float) * a
    sn, cn = np.sin(w), np.cos(w)
    moving = sn != 0.0  # sn = 0 keeps (0, +-1, 1)
    ratio = np.where(moving, cn, 1.0) / np.where(moving, sn, 1.0)
    c = a * ratio
    dn = np.ones_like(c)
    for am, gm in reversed(means):
        ratio = ratio * c
        c = c * dn
        dn = (gm + ratio) / (am + ratio)
        ratio = c / am
    s = np.copysign(1.0 / np.sqrt(c * c + 1.0), sn)
    return (np.where(moving, s, sn), np.where(moving, c * s, cn),
            np.where(moving, dn, 1.0))


def idler_power(kappa, delta_k, s0, p0, x):
    """Idler power |A_i(x)|^2 of the coupled mode equations, exactly.

    The inputs are A_s(0) = s0 >= 0, A_i(0) = 0 and A_p(0) = p0 >= 0 with
    coupling ``kappa`` and mismatch ``delta_k`` per cell; every argument
    broadcasts.  The roots u1, u2 enter scaled by kappa^2, so no coupling,
    no signal or no pump gives exactly 0 without dividing by zero.  The
    signal power is s0^2 plus the result, the pump power p0^2 minus it.
    """
    k2 = np.square(kappa)
    q = k2 * s0 * p0
    beta = k2 * (np.square(p0) - np.square(s0)) - 0.25 * np.square(delta_k)
    # With q = 0 the idler stays empty; beta = -1 keeps the formula finite.
    beta = np.where(q > 0.0, beta, -1.0)
    # kappa^2 u1 and kappa^2 u2 solve v^2 - beta v - q^2 = 0: the root of
    # beta's sign by the quadratic formula, the other from their product.
    spread = np.hypot(beta, 2.0 * q)  # kappa^2 (u1 - u2)
    outer = 0.5 * (np.abs(beta) + spread)
    m_c = np.where(beta < 0.0, outer, q * q / outer) / spread
    sn, _, dn = _sncndn(np.sqrt(spread) * x, m_c)
    return q * s0 * p0 / spread * np.square(sn / dn)


def signal_idler_grid(drive: DriveSpec) -> np.ndarray:
    lo, hi = drive.signal_band
    return FrequencyGrid(lo, hi, drive.signal_step).freqs()


def _tones(disp, drive):
    """Signal tones of ``drive`` with their signal and idler wavenumbers and
    the per-cell phase mismatch k_p - k_s - k_i."""
    f_s = signal_idler_grid(drive)
    k_s = disp.sample(f_s)
    k_i = disp.sample(drive.pump_freq - f_s)
    k_p = float(disp.sample(drive.pump_freq))
    if np.any(k_s < 0) or np.any(k_i < 0):
        raise ValueError("negative wavenumber in the signal band")
    return f_s, k_s, k_i, k_p - k_s - k_i


def _gain_profiles(disp, expansion, drive, n_cells, xis):
    """Gain profile for each xi.

    Tones come from ``drive``; xi == 0 is the flat zero profile.  Every
    (xi > 0, tone) column takes the exact depleted-pump gain, with the
    signal seeded at SEED_RATIO * xi and the idler empty, so by Manley-Rowe
    the pump loses SEED_RATIO^2 (G - 1) of its power.
    """
    if n_cells <= 0:
        raise ValueError("cell count must be positive")
    f_s, k_s, k_i, mismatch = _tones(disp, drive)
    zeros = np.zeros_like(f_s)
    flat = GainProfile(freqs=f_s, gain_db=zeros, pump_depletion=zeros)
    driven = np.array([xi for xi in xis if xi != 0.0])[:, None]
    if not driven.size:
        return [flat for _ in xis]

    g0 = coupling_constant(expansion, driven, k_s, k_i)
    seed = SEED_RATIO * driven
    gain = (seed * seed + idler_power(g0 / driven, mismatch, seed, driven,
                                      n_cells)) / (seed * seed)
    solved = iter(zip(10.0 * np.log10(gain), SEED_RATIO**2 * (gain - 1.0)))
    return [flat if xi == 0.0 else GainProfile(f_s, *next(solved))
            for xi in xis]


def gain_profile(
    disp: DispersionCurve,
    expansion: PotentialExpansion,
    drive: DriveSpec,
    n_cells: int,
    xi: float,
) -> GainProfile:
    """Signal gain across the band at drive xi, idler at f_p - f_s, seeded
    from vacuum scale; each signal frequency takes the exact depleted-pump
    gain."""
    [profile] = _gain_profiles(disp, expansion, drive, n_cells, [float(xi)])
    return profile


def performance(profile: GainProfile) -> float:
    """Width-normalized trapezoidal mean of the gain (dB) over the profile's
    signal band."""
    band = (float(profile.freqs[0]), float(profile.freqs[-1]))
    return float(band_average(profile.freqs, profile.gain_db, band))


def optimize_working_point(
    disp: DispersionCurve,
    expansion: PotentialExpansion,
    n_cells: int,
    i_c_small_ua: float,
    drive: DriveSpec,
    pump_amplitudes_ua,
) -> WorkingPointResult:
    """Exhaustive pump-amplitude sweep at the bias of ``expansion``.

    Each amplitude becomes xi = I_p / (2 I_c,small) and every xi in [0, 1)
    is evaluated in one batch.  Scores each drive by band-mean gain; ties
    resolve to the first listed amplitude.  A drive that fails (an xi
    outside [0, 1), or a device the gain cannot be computed for) scores
    -inf and gets no profile; if every drive fails the sweep itself raises,
    naming each drive's xi and error.
    """
    amplitudes = np.asarray(pump_amplitudes_ua, dtype=float)
    if amplitudes.size == 0:
        raise ValueError("pump amplitude grid is empty")
    if not i_c_small_ua > 0:
        raise ValueError("critical current must be positive")
    xi = amplitudes / (2.0 * i_c_small_ua)
    in_range = (xi >= 0.0) & (xi < 1.0)
    errors = [None if ok else ValueError(
        f"normalized pump amplitude {x} outside [0, 1)")
        for x, ok in zip(xi, in_range)]
    performance_db = np.full(xi.shape, -np.inf)
    profiles = [None] * xi.size
    try:
        solved = _gain_profiles(disp, expansion, drive, n_cells, xi[in_range])
    except Exception as exc:  # a failure of the device fails every drive
        errors = [err or exc for err in errors]
    else:
        for i, profile in zip(np.flatnonzero(in_range), solved):
            performance_db[i] = performance(profile)
            profiles[i] = profile
    scored = [i for i, p in enumerate(profiles) if p is not None]
    if not scored:
        raise RuntimeError("every drive point failed: " + "; ".join(
            f"xi {x}: {type(err).__name__}: {err}"
            for x, err in zip(xi, errors)))
    best = scored[int(np.argmax(performance_db[scored]))]
    return WorkingPointResult(xi=xi, performance_db=performance_db,
                              profiles=profiles, best=best)


def bandwidth_3db(profile: GainProfile) -> float:
    """Width (Hz) of the band around the gain peak where the gain stays
    within 3 dB of the peak.

    Each edge is interpolated linearly in dB between the last sample inside
    and the first outside; where the gain stays within 3 dB up to the end
    of the profile, that end is the edge.
    """
    f, g = profile.freqs, profile.gain_db
    peak = int(np.argmax(g))
    floor = g[peak] - 3.0
    below = np.flatnonzero(g < floor)
    left, right = below[below < peak], below[below > peak]

    def crossing(inside, outside):
        t = (g[inside] - floor) / (g[inside] - g[outside])
        return f[inside] + t * (f[outside] - f[inside])

    lo = crossing(left[-1] + 1, left[-1]) if left.size else f[0]
    hi = crossing(right[0] - 1, right[0]) if right.size else f[-1]
    return float(hi - lo)


def solve_working_point(
    disp: DispersionCurve,
    expansion: PotentialExpansion,
    drive: DriveSpec,
    n_cells: int,
    target_db: float,
    tol_db: float,
    max_iter: int,
) -> WorkingPointSolution:
    """Drive xi in XI_BRACKET whose band-mean gain equals ``target_db``.

    Band-mean gain rises monotonically with xi, so brentq runs on
    XI_BRACKET.  ``max_iter`` caps its iterations; a final band mean more
    than ``tol_db`` off the target raises WorkingPointError, and a target
    above the band mean at the top of the bracket raises
    UnreachableTargetError.  A target at or below the band mean at the
    bottom returns the bottom.

    Every profile comes from ``gain_profile``, the bottom of the bracket
    first; each xi is computed once.
    """
    profiles = {}

    def shortfall(xi):
        if xi not in profiles:
            profile = gain_profile(disp, expansion, drive, n_cells, xi)
            profiles[xi] = (performance(profile), profile)
        return profiles[xi][0] - target_db

    lo, hi = XI_BRACKET
    if shortfall(lo) >= 0.0:
        hi = xi = lo
    else:
        if shortfall(hi) < 0.0:
            raise UnreachableTargetError(
                f"target {target_db} dB unreachable below xi {hi}: the band "
                f"mean there is {profiles[hi][0]:.4g} dB",
                hi, profiles[hi][0])
        xi = brentq(shortfall, lo, hi, maxiter=max_iter, disp=False)
        shortfall(xi)
    band_mean, profile = profiles[xi]
    if not abs(band_mean - target_db) <= tol_db:
        raise WorkingPointError(
            f"band mean {band_mean:.6g} dB at xi {xi} misses the target "
            f"{target_db} dB by more than {tol_db} dB", xi, band_mean)
    return WorkingPointSolution(
        xi=xi,
        profile=profile,
        band_mean_db=band_mean,
        ripple_db=float(np.ptp(profile.gain_db)),
        bandwidth_hz=bandwidth_3db(profile),
        bracket=(lo, hi),
        gain_profile_calls=len(profiles),
    )
