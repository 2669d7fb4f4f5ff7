"""Stage 3: three-wave-mixing gain from coupled mode equations.

Signal, idler and pump amplitudes evolve along the cell index x as

    dA_s/dx = i kappa A_p conj(A_i) exp(-i dk x)
    dA_i/dx = i kappa A_p conj(A_s) exp(-i dk x)
    dA_p/dx = i kappa A_s A_i exp(+i dk x)

with dk = k_p - k_s - k_i the per-cell phase mismatch, kappa = g0 / xi and
pump input A_p(0) = xi, the pump current in units of twice the small
junction critical current.  The coupling g0 comes from the cubic/quadratic
coefficient ratio of the biased loop potential.

Gain profiles are computed in closed form first.  With the pump held at
its input the signal power gain is |cosh(g x) + (i dk / 2 g) sinh(g x)|^2
with g = sqrt(g0^2 - (dk/2)^2), continued to oscillatory behavior when the
mismatch dominates.  The signal is seeded at SEED_RATIO of the pump, so by
Manley-Rowe (|A_s|^2 + |A_p|^2 is conserved) the pump gives up
SEED_RATIO^2 (G - 1) of its power, and the closed form's relative gain
error is about 0.5-0.6 times that depletion.  Only the columns -- each
(xi, tone) pair -- whose predicted depletion exceeds HALVING_TOL are
integrated, so every column meets the same tolerance.  xi is the one drive
variable: ``gain_profile`` takes it directly, and ``optimize_working_point``
turns a list of pump currents into one xi array and returns the index of
the best.

Integration is fixed-step RK4 in the pump frame B_p = A_p exp(-i dk x):

    dA_s/dx = i kappa B_p conj(A_i)
    dA_i/dx = i kappa B_p conj(A_s)
    dB_p/dx = -i dk B_p + i kappa A_s A_i

which has no explicit x, so no phase factor is evaluated per step; B_p is
rotated back by exp(i dk x) where amplitudes are returned.  A zero pump
stays exactly zero in this frame and the signal is left untouched.

Every integrated column runs in one loop together with its step-halving
copy: per step the copies take their first h/2 step in the same array
operations as the h step of the originals, then their second h/2 step
alone.  The two runs must agree component by component to HALVING_TOL
relative, each amplitude on its own scale, so error in the small signal is
not hidden behind the pump.  The conserved Manley-Rowe combinations
|A_s|^2 - |A_i|^2 and |A_s|^2 + |A_p|^2 also check accuracy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .metric import band_average
from .network import DispersionCurve, FrequencyGrid
from .snail import PotentialExpansion

RK4_STEP = 0.05
SEED_RATIO = 1e-6
HALVING_TOL = 1e-6


class AccuracyError(RuntimeError):
    """Step-halving disagreement above tolerance."""


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


@dataclass(frozen=True)
class CmeInputs:
    """Per-tone wavenumbers (rad/cell), coupling, and device length."""

    k_s: float
    k_i: float
    k_p: float
    g0: float
    n_cells: int

    def __post_init__(self):
        if self.n_cells <= 0:
            raise ValueError("cell count must be positive")
        if self.g0 < 0:
            raise ValueError("coupling g0 cannot be negative")

    @property
    def delta_k(self) -> float:
        return self.k_p - self.k_s - self.k_i


@dataclass
class CmeTrajectory:
    """Amplitudes along the line, one sample per RK4 step."""

    x: np.ndarray = field(repr=False)
    a_s: np.ndarray = field(repr=False)
    a_i: np.ndarray = field(repr=False)
    a_p: np.ndarray = field(repr=False)

    def manley_rowe_drift(self) -> tuple[float, float]:
        """Max drift of the two conserved combinations along the line."""
        d1 = np.abs(self.a_s) ** 2 - np.abs(self.a_i) ** 2
        d2 = np.abs(self.a_s) ** 2 + np.abs(self.a_p) ** 2
        return (
            float(np.max(np.abs(d1 - d1[0]))),
            float(np.max(np.abs(d2 - d2[0]))),
        )


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


def coupling_constant(
    expansion: PotentialExpansion, xi: float, k_s: float, k_i: float
) -> float:
    """Three-wave coupling g0 = |c3| / (2 c2) * xi * sqrt(k_s k_i), rad/cell."""
    if not expansion.c2 > 0:
        raise ValueError("expansion must come from a stable minimum (c2 > 0)")
    if np.any(k_s < 0) or np.any(k_i < 0):
        raise ValueError("signal and idler wavenumbers must be non-negative")
    if not 0.0 <= xi < 1.0:
        raise ValueError(f"normalized pump amplitude {xi} outside [0, 1)")
    return abs(expansion.c3) / (2.0 * expansion.c2) * xi * np.sqrt(k_s * k_i)


def undepleted_gain(g0, delta_k, n_cells: int):
    """Closed-form undepleted-pump signal power gain over n_cells.

    Uses the complex square root, so the exponential branch
    (g0 > |dk|/2) and the oscillatory branch continue into each other.
    ``g0`` and ``delta_k`` broadcast against each other; scalars give a
    float, arrays an array of the broadcast shape.  A gain beyond the float
    range is +inf.
    """
    if n_cells <= 0:
        raise ValueError("cell count must be positive")
    g0 = np.asarray(g0, dtype=float)
    delta_k = np.asarray(delta_k, dtype=float)
    g = np.sqrt((g0 * g0 - 0.25 * delta_k * delta_k).astype(complex))
    x = float(n_cells)
    gx = g * x
    near_zero = np.abs(gx) < 1e-8
    # g x is real (gain grows) or imaginary (bounded), so any overflow
    # means |value|^2 = cosh^2 + (dk/2 sinh/g)^2 is past the float range:
    # the square overflows past g x ~ 355, cosh and sinh past ~ 710, and
    # then inf * 0 in the complex product gives NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        # sinh(g x)/g, with its series x (1 + (g x)^2 / 6) as g -> 0.
        sinhc = np.where(near_zero, x * (1.0 + gx * gx / 6.0),
                         np.sinh(gx) / np.where(near_zero, 1.0, g))
        value = np.cosh(gx) + 0.5j * delta_k * sinhc
        gain = value.real * value.real + value.imag * value.imag
    overflowed = np.isnan(gain) & np.isfinite(g0) & np.isfinite(delta_k)
    gain = np.where(overflowed, np.inf, gain)
    return float(gain) if gain.ndim == 0 else gain


def _rhs(y, ck, cd, out, tmp):
    """Pump-frame right-hand side times the step, per column, into ``out``.

    ck = i kappa h and cd = -i dk h per column; y rows are (A_s, A_i, B_p).
    """
    np.multiply(ck, y[2], out=tmp)
    np.conjugate(y[1::-1], out=out[:2])
    out[:2] *= tmp
    np.multiply(cd, y[2], out=out[2])
    np.multiply(y[0], y[1], out=tmp)
    tmp *= ck
    out[2] += tmp


def _rk4_step(y, ck, cd, k, acc, ytmp, tmp):
    """One classical RK4 step of every column of y, in place.

    k holds each stage's h-scaled slope in turn, acc = k1 + 2 k2 + 2 k3 + k4
    and ytmp the next stage's input; tmp is one row of scratch.
    """
    _rhs(y, ck, cd, k, tmp)
    np.copyto(acc, k)
    np.multiply(k, 0.5, out=ytmp)
    ytmp += y
    _rhs(ytmp, ck, cd, k, tmp)
    np.multiply(k, 0.5, out=ytmp)
    ytmp += y
    k *= 2.0
    acc += k
    _rhs(ytmp, ck, cd, k, tmp)
    np.add(y, k, out=ytmp)
    k *= 2.0
    acc += k
    _rhs(ytmp, ck, cd, k, tmp)
    acc += k
    acc *= 1.0 / 6.0
    y += acc


def _integrate(a0, kappa, delta_k, n_cells, step, keep_path=False):
    """RK4 over x in [0, n_cells] at step h and at h/2, in one loop.

    ``a0`` is (3, F): (A_s, A_i, A_p) at x = 0 for F independent columns,
    with per-column ``kappa`` and ``delta_k``.  h = n_cells / n with
    n = round(n_cells / step), which must be at least 1.  The state is (3, 2F): columns [0:F] take one
    step h while columns [F:2F] take their first h/2 step in the same array
    operations, then [F:2F] alone take their second h/2 step.

    Returns the amplitudes at x = n_cells from the h run and from the h/2
    run, each (3, F); with ``keep_path`` also the sample points
    x = 0, h, ..., n_cells and the h run along them, (n + 1, 3, F).
    """
    if not step > 0 or round(n_cells / step) < 1:
        raise ValueError(
            f"integration step {step!r} must be positive and below "
            f"2 * n_cells = {2 * n_cells} to take at least one RK4 step"
        )
    n_steps = int(round(n_cells / step))
    h = n_cells / n_steps
    a0 = np.asarray(a0, dtype=complex)
    f = a0.shape[1]
    kappa = np.broadcast_to(kappa, (f,))
    delta_k = np.broadcast_to(delta_k, (f,))
    h_col = np.repeat([h, 0.5 * h], f)
    ck = 1j * np.tile(kappa, 2) * h_col
    cd = -1j * np.tile(delta_k, 2) * h_col
    # B_p(0) = A_p(0): the pump frame coincides with the lab frame at x = 0.
    y = np.tile(a0, 2)
    bufs = [np.empty_like(y) for _ in range(3)] + [np.empty(2 * f, complex)]
    half = (y[:, f:], ck[f:], cd[f:]) + tuple(b[..., f:] for b in bufs)
    path = [a0.copy()] if keep_path else None
    for _ in range(n_steps):
        _rk4_step(y, ck, cd, *bufs)
        _rk4_step(*half)
        if keep_path:
            path.append(y[:, :f].copy())
    # Back to the lab frame: A_p = B_p exp(i dk x).
    y[2] *= np.tile(np.exp(1j * delta_k * n_cells), 2)
    full, halved = y[:, :f], y[:, f:]
    if not keep_path:
        return full, halved
    xs = np.linspace(0.0, float(n_cells), n_steps + 1)
    path = np.array(path)
    path[:, 2] *= np.exp(1j * np.outer(xs, delta_k))
    return full, halved, xs, path


def _halving_error(full, half):
    """Per-column max over components of |full - half| / |half|.

    Each component is compared on its own scale, floored at 1e-9 of the
    column's largest amplitude: the signal seed sits orders of magnitude
    below the pump, so dividing by the column maximum would hide
    integration error in exactly the mode whose gain is being measured.
    """
    mag = np.abs(half)
    scale = np.maximum(np.max(mag, axis=0), 1e-300)
    denom = np.maximum(mag, 1e-9 * scale)
    return np.max(np.abs(full - half) / denom, axis=0)


def _halving_failure(err: float) -> AccuracyError | None:
    """The AccuracyError for a step-halving error above HALVING_TOL."""
    if err <= HALVING_TOL:
        return None
    return AccuracyError(
        f"step-halving disagreement {err:.3e} exceeds {HALVING_TOL}; "
        f"reduce the integration step"
    )


def integrate_cme(
    inputs: CmeInputs,
    initial,
    step: float = RK4_STEP,
    accuracy_check: bool = True,
) -> CmeTrajectory:
    """Integrate the coupled mode equations from given initial amplitudes.

    ``initial`` is (A_s(0), A_i(0), A_p(0)); kappa is g0 / |A_p(0)| (zero
    pump input propagates unchanged).  With ``accuracy_check`` the half-step
    run must agree to HALVING_TOL, component by component in relative
    terms, otherwise AccuracyError suggests a smaller step.
    """
    a0 = np.asarray(initial, dtype=complex).reshape(3, 1)
    xi = float(np.abs(a0[2, 0]))
    kappa = inputs.g0 / xi if xi > 0 else 0.0
    final, final_half, xs, path = _integrate(
        a0, kappa, inputs.delta_k, inputs.n_cells, step, keep_path=True
    )
    if accuracy_check:
        failure = _halving_failure(float(_halving_error(final, final_half)[0]))
        if failure is not None:
            raise failure
    return CmeTrajectory(
        x=xs,
        a_s=path[:, 0, 0],
        a_i=path[:, 1, 0],
        a_p=path[:, 2, 0],
    )


def signal_idler_grid(drive: DriveSpec) -> np.ndarray:
    lo, hi = drive.signal_band
    return FrequencyGrid(lo, hi, drive.signal_step).freqs()


def _gain_profiles(disp, expansion, drive, n_cells, xis):
    """Gain profile, or the AccuracyError that rejects it, for each xi.

    Tones come from ``drive``; xi == 0 is the flat zero profile.  Every
    (xi > 0, tone) column first gets the undepleted closed form G, with the
    signal seeded at SEED_RATIO * xi and the idler empty, so by Manley-Rowe
    the pump loses SEED_RATIO^2 (G - 1) of its power.  Only columns whose
    predicted depletion exceeds HALVING_TOL -- where the closed form stops
    being accurate to that tolerance, or overflows to inf -- integrate, as
    columns of one _integrate call; the step-halving guard applies to each
    xi over its integrated columns.
    """
    f_s = signal_idler_grid(drive)
    f_i = drive.pump_freq - f_s
    k_s = disp.sample(f_s)
    k_i = disp.sample(f_i)
    k_p = float(disp.sample(drive.pump_freq))
    if np.any(k_s < 0) or np.any(k_i < 0):
        raise ValueError("negative wavenumber in the signal band")

    zeros = np.zeros_like(f_s)
    flat = GainProfile(freqs=f_s, gain_db=zeros, pump_depletion=zeros)
    driven = [xi for xi in xis if xi != 0.0]
    if not driven:
        return [flat for _ in xis]

    g0 = np.array([coupling_constant(expansion, xi, k_s, k_i)
                   for xi in driven])
    delta_k = np.broadcast_to(k_p - k_s - k_i, g0.shape)
    gain = undepleted_gain(g0, delta_k, n_cells)
    err = np.zeros_like(gain)
    depleted = ~(SEED_RATIO**2 * (gain - 1.0) <= HALVING_TOL)
    if np.any(depleted):
        pump = np.broadcast_to(np.array(driven)[:, None], g0.shape)[depleted]
        seed = SEED_RATIO * pump
        a0 = np.zeros((3, pump.size), dtype=complex)
        a0[0] = seed
        a0[2] = pump
        final, final_half = _integrate(
            a0, g0[depleted] / pump, delta_k[depleted], n_cells, RK4_STEP
        )
        err[depleted] = _halving_error(final, final_half)
        gain[depleted] = np.abs(final[0] / seed) ** 2
    gain_db = 10.0 * np.log10(gain)
    depletion = np.maximum(SEED_RATIO**2 * (gain - 1.0), 0.0)
    solved = iter(zip(err.max(axis=1), gain_db, depletion))
    out = []
    for xi in xis:
        if xi == 0.0:
            out.append(flat)
            continue
        e, g, d = next(solved)
        out.append(_halving_failure(float(e))
                   or GainProfile(freqs=f_s, gain_db=g, pump_depletion=d))
    return out


def gain_profile(
    disp: DispersionCurve,
    expansion: PotentialExpansion,
    drive: DriveSpec,
    n_cells: int,
    xi: float,
) -> GainProfile:
    """Signal gain across the band at drive xi, idler at f_p - f_s, seeded
    from vacuum scale.

    Each signal frequency takes the undepleted closed form unless its
    predicted pump depletion exceeds HALVING_TOL; those integrate as
    columns of one RK4 loop with their half-step verification columns.
    """
    [profile] = _gain_profiles(disp, expansion, drive, n_cells, [float(xi)])
    if isinstance(profile, AccuracyError):
        raise profile
    return profile


def performance(profile: GainProfile, band: tuple[float, float] | None = None) -> float:
    """Width-normalized trapezoidal mean of the gain (dB) over the band."""
    if band is None:
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
    is evaluated in one batch (closed form, RK4 for the columns that
    deplete the pump).  Scores each drive by band-mean gain; ties resolve
    to the first listed amplitude.  Per-drive failures (an xi outside
    [0, 1), a step-halving rejection) score -inf and get no profile; if
    every drive fails the sweep itself raises.
    """
    amplitudes = np.asarray(pump_amplitudes_ua, dtype=float)
    if amplitudes.size == 0:
        raise ValueError("pump amplitude grid is empty")
    if not i_c_small_ua > 0:
        raise ValueError("critical current must be positive")
    xi = amplitudes / (2.0 * i_c_small_ua)
    in_range = (xi >= 0.0) & (xi < 1.0)
    try:
        solved = iter(
            _gain_profiles(disp, expansion, drive, n_cells, xi[in_range])
        )
    except Exception as exc:  # a failure of the device fails every drive
        solved = itertools.repeat(exc)

    performance_db = np.full(xi.shape, -np.inf)
    profiles = [None] * xi.size
    last_error = None
    for i, ok in enumerate(in_range):
        outcome = next(solved) if ok else ValueError(
            f"normalized pump amplitude {xi[i]} outside [0, 1)")
        if not isinstance(outcome, Exception):
            try:
                performance_db[i] = performance(outcome)
                profiles[i] = outcome
                continue
            except Exception as exc:
                outcome = exc
        last_error = outcome
    scored = [i for i, p in enumerate(profiles) if p is not None]
    if not scored:
        raise RuntimeError(
            f"every drive point failed; last error: {last_error}"
        )
    best = scored[int(np.argmax(performance_db[scored]))]
    return WorkingPointResult(xi=xi, performance_db=performance_db,
                              profiles=profiles, best=best)
