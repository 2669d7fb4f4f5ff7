"""Stage 3: three-wave-mixing gain from coupled mode equations.

Signal, idler and pump amplitudes evolve along the cell index x as

    dA_s/dx = i kappa A_p conj(A_i) exp(-i dk x)
    dA_i/dx = i kappa A_p conj(A_s) exp(-i dk x)
    dA_p/dx = i kappa A_s A_i exp(+i dk x)

with dk = k_p - k_s - k_i the per-cell phase mismatch, kappa = g0 / xi and
pump input A_p(0) = xi, the pump current in units of twice the small
junction critical current.  The coupling g0 comes from the cubic/quadratic
coefficient ratio of the biased loop potential.

Integration is fixed-step RK4 in the pump frame B_p = A_p exp(-i dk x):

    dA_s/dx = i kappa B_p conj(A_i)
    dA_i/dx = i kappa B_p conj(A_s)
    dB_p/dx = -i dk B_p + i kappa A_s A_i

which has no explicit x, so no phase factor is evaluated per step; B_p is
rotated back by exp(i dk x) where amplitudes are returned.  A zero pump
stays exactly zero in this frame and the signal is left untouched.

Every independent column -- each signal tone, and in a drive sweep each
(amplitude, tone) pair -- integrates in one loop together with its
step-halving copy: per step the copies take their first h/2 step in the
same array operations as the h step of the originals, then their second
h/2 step alone.  The two runs must agree component by component to
HALVING_TOL relative, each amplitude on its own scale, so error in the
small signal is not hidden behind the pump.  The conserved Manley-Rowe
combinations |A_s|^2 - |A_i|^2 and |A_s|^2 + |A_p|^2 also check accuracy.
In the undepleted-pump limit the signal power gain has the
closed form |cosh(g x) + (i dk / 2 g) sinh(g x)|^2 with
g = sqrt(g0^2 - (dk/2)^2), continued to oscillatory behavior when the
mismatch dominates.
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
    """Pump and signal drive settings.

    pump_freq in Hz; signal_band (lo, hi) in Hz with signal_step the gain
    grid spacing.  The pump strength is either ``xi`` directly (pump current
    over twice the small-junction critical current) or ``pump_amplitude_ua``
    in uA, resolved against the device.  The flux bias is not part of the
    drive: it is fixed by the expansion the gain is computed from.
    """

    pump_freq: float
    signal_band: tuple[float, float]
    signal_step: float
    pump_amplitude_ua: float | None = None
    xi: float | None = None

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
        if self.xi is None and self.pump_amplitude_ua is None:
            raise ValueError("either xi or pump_amplitude_ua must be given")

    def resolve_xi(self, i_c_small_ua: float) -> float:
        """Normalized pump amplitude; xi = I_p / (2 I_c,small) when in uA."""
        if self.xi is not None:
            xi = float(self.xi)
        else:
            if not i_c_small_ua > 0:
                raise ValueError("critical current must be positive")
            xi = self.pump_amplitude_ua / (2.0 * i_c_small_ua)
        if not 0.0 <= xi < 1.0:
            raise ValueError(f"normalized pump amplitude {xi} outside [0, 1)")
        return xi


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
    """Drive-grid sweep outcome: per-amplitude performance and the best."""

    rows: list
    best: dict
    profiles: list


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


def undepleted_gain(g0: float, delta_k: float, n_cells: int) -> float:
    """Closed-form undepleted-pump signal power gain over n_cells.

    Uses the complex square root, so the exponential branch
    (g0 > |dk|/2) and the oscillatory branch continue into each other.
    """
    if n_cells <= 0:
        raise ValueError("cell count must be positive")
    g = np.sqrt(complex(g0 * g0 - 0.25 * delta_k * delta_k))
    x = float(n_cells)
    gx = g * x
    if abs(gx) < 1e-8:
        sinhc = x * (1.0 + gx * gx / 6.0)  # sinh(g x)/g as g -> 0
    else:
        sinhc = np.sinh(gx) / g
    value = np.cosh(gx) + 0.5j * delta_k * sinhc
    return float(np.abs(value) ** 2)


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


def _gain_profiles(disp, expansion, template, n_cells, xis):
    """Gain profile, or the AccuracyError that rejects it, for each xi.

    Tones come from ``template`` (its own pump strength is not used).  Every
    (xi > 0, tone) pair is one column of a single _integrate call, seeded at
    SEED_RATIO * xi with the idler empty; xi == 0 is the flat zero profile.
    The step-halving guard applies to each xi separately.
    """
    f_s = signal_idler_grid(template)
    f_i = template.pump_freq - f_s
    k_s = disp.sample(f_s)
    k_i = disp.sample(f_i)
    k_p = float(disp.sample(template.pump_freq))
    if np.any(k_s < 0) or np.any(k_i < 0):
        raise ValueError("negative wavenumber in the signal band")

    zeros = np.zeros_like(f_s)
    flat = GainProfile(freqs=f_s, gain_db=zeros, pump_depletion=zeros)
    driven = [xi for xi in xis if xi != 0.0]
    if not driven:
        return [flat for _ in xis]

    kappa = np.concatenate(
        [coupling_constant(expansion, xi, k_s, k_i) / xi for xi in driven]
    )
    pump = np.repeat(driven, f_s.size)
    seed = SEED_RATIO * pump
    a0 = np.zeros((3, pump.size), dtype=complex)
    a0[0] = seed
    a0[2] = pump
    final, final_half = _integrate(
        a0, kappa, np.tile(k_p - k_s - k_i, len(driven)), n_cells, RK4_STEP
    )

    shape = (len(driven), f_s.size)
    err = _halving_error(final, final_half).reshape(shape).max(axis=1)
    gain_db = (10.0 * np.log10(np.abs(final[0] / seed) ** 2)).reshape(shape)
    depletion = np.maximum(1.0 - np.abs(final[2] / pump) ** 2, 0.0)
    depletion = depletion.reshape(shape)
    solved = iter(zip(err, gain_db, depletion))
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
    i_c_small_ua: float,
) -> GainProfile:
    """Signal gain across the band, idler at f_p - f_s, seeded from vacuum scale.

    All signal frequencies integrate as columns of one RK4 loop (per-column
    phase mismatch) together with their half-step verification columns.
    """
    xi = drive.resolve_xi(i_c_small_ua)
    [profile] = _gain_profiles(disp, expansion, drive, n_cells, [xi])
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
    drive_template: DriveSpec,
    pump_amplitudes_ua,
    flux_phi0: float,
) -> WorkingPointResult:
    """Exhaustive pump-amplitude sweep at fixed flux bias.

    Every amplitude is resolved first, then all of them integrate as one
    batch.  Scores each amplitude by band-mean gain; ties resolve to the
    first listed amplitude.  Per-point failures (an amplitude outside the
    drive range, a step-halving rejection) are recorded with -inf
    performance and skipped; if every point fails the sweep itself raises.
    ``flux_phi0`` is the bias ``expansion`` was taken at; it only fills the
    flux column of each row.
    """
    amplitudes = [float(a) for a in pump_amplitudes_ua]
    if not amplitudes:
        raise ValueError("pump amplitude grid is empty")
    resolved = []
    for amp in amplitudes:
        drive = DriveSpec(
            pump_freq=drive_template.pump_freq,
            signal_band=drive_template.signal_band,
            signal_step=drive_template.signal_step,
            pump_amplitude_ua=amp,
        )
        try:
            resolved.append(drive.resolve_xi(i_c_small_ua))
        except ValueError as exc:
            resolved.append(exc)
    xis = [r for r in resolved if not isinstance(r, Exception)]
    try:
        solved = iter(
            _gain_profiles(disp, expansion, drive_template, n_cells, xis)
        )
    except Exception as exc:  # a failure of the device fails every drive
        solved = itertools.repeat(exc)

    rows, profiles = [], []
    best = None
    last_error = None
    for amp, r in zip(amplitudes, resolved):
        outcome = r if isinstance(r, Exception) else next(solved)
        if not isinstance(outcome, Exception):
            try:
                perf = performance(outcome)
            except Exception as exc:
                outcome = exc
        failed = isinstance(outcome, Exception)
        rows.append({
            "pump_amplitude_ua": amp,
            "flux_phi0": flux_phi0,
            "performance_db": float("-inf") if failed else perf,
            "failed": failed,
        })
        profiles.append(None if failed else outcome)
        if failed:
            last_error = outcome
        elif best is None or perf > best["performance_db"]:
            best = rows[-1]
    if best is None:
        raise RuntimeError(
            f"every drive point failed; last error: {last_error}"
        )
    return WorkingPointResult(rows=rows, best=dict(best), profiles=profiles)
