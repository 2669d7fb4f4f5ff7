"""Lumped transmission-line model of the amplifier and its S-parameters.

Each unit cell is a series SNAIL inductance followed by a shunt gate
capacitance to ground (an L-section).  Dispersion engineering replaces every
P-th cell with a "loaded" variant whose junction areas and shunt capacitance
are rescaled, so the chain is a periodic macrocell of P-1 unloaded cells and
one loaded cell, repeated N/P times.

The cascade builds the macrocell ABCD (chain) matrix once per frequency and
raises it to the N/P-th power in closed form with the Chebyshev identity for
unimodular matrices (the Abeles formula for periodic stacks).  Deep in a
stopband the chain-matrix entries grow like exp(kappa N) and would overflow,
so that growth is carried separately as a logarithmic scale; S-parameters are
ratios and come out finite either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import VACUUM_PERMITTIVITY
from .snail import JunctionSpec, SnailSpec, effective_inductance, expand_potential


class ConfigurationError(ValueError):
    """Inconsistent device or grid configuration."""


class SimulationError(RuntimeError):
    """Linear response evaluation failed or violated a physical invariant."""


@dataclass(frozen=True)
class DeviceParams:
    """One candidate device in the design space.

    junction_area: small-junction area of the unloaded cell, um^2.
    current_density: critical current density, uA/um^2.
    alpha: small/large junction size ratio.
    dielectric_thickness: gate dielectric thickness, nm.
    inductance_load_ratio / capacitance_load_ratio: loaded-cell rescale
        factors (junction areas divided by the former, shunt capacitance
        multiplied by the latter).
    pitch: macrocell period P, one loaded cell every P cells.
    cell_count: total number of cells N.
    """

    junction_area: float
    current_density: float
    alpha: float
    dielectric_thickness: float
    inductance_load_ratio: float
    capacitance_load_ratio: float
    pitch: int
    cell_count: int

    def __post_init__(self):
        if not self.junction_area > 0:
            raise ConfigurationError("junction_area must be positive")
        if not self.current_density > 0:
            raise ConfigurationError("current_density must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1), got {self.alpha}")
        if not self.dielectric_thickness > 0:
            raise ConfigurationError("dielectric_thickness must be positive")
        if not self.inductance_load_ratio >= 1.0:
            raise ConfigurationError("inductance_load_ratio must be >= 1")
        if not self.capacitance_load_ratio >= 1.0:
            raise ConfigurationError("capacitance_load_ratio must be >= 1")
        if int(self.pitch) != self.pitch or self.pitch < 2:
            raise ConfigurationError(f"pitch must be an integer >= 2, got {self.pitch}")
        if int(self.cell_count) != self.cell_count or self.cell_count <= 0:
            raise ConfigurationError("cell_count must be a positive integer")


@dataclass(frozen=True)
class CellConfig:
    """Cell environment shared across the design space.

    pad_area: gate capacitor pad area in um^2.
    rel_permittivity: gate dielectric relative permittivity.
    ref_impedance: port reference impedance in ohm.
    mutual_phi0_per_ua: optional flux-line mutual, Phi0 per uA of line
        current.  Left unset, flux biases must be given directly in Phi0.
    """

    pad_area: float = 30.0
    rel_permittivity: float = 9.8
    ref_impedance: float = 50.0
    mutual_phi0_per_ua: float | None = None

    def __post_init__(self):
        if not self.pad_area > 0 or not self.rel_permittivity > 0:
            raise ConfigurationError("pad area and permittivity must be positive")
        if not self.ref_impedance > 0:
            raise ConfigurationError("reference impedance must be positive")


@dataclass(frozen=True)
class CellImmittance:
    """Series inductance (H) and shunt capacitance (F) of one cell."""

    series_inductance: float
    shunt_capacitance: float

    def __post_init__(self):
        if self.series_inductance < 0 or self.shunt_capacitance < 0:
            raise ConfigurationError("cell immittances cannot be negative")


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform frequency grid [start, stop] with the given step, in Hz."""

    start: float
    stop: float
    step: float

    def __post_init__(self):
        if self.start < 0:
            raise ConfigurationError("grid start cannot be negative")
        if not self.step > 0:
            raise ConfigurationError("grid step must be positive")
        if not self.stop > self.start:
            raise ConfigurationError("grid stop must exceed start")

    @property
    def points(self) -> int:
        return int(np.floor((self.stop - self.start) / self.step + 1e-9)) + 1

    def freqs(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.points)


@dataclass
class TwoPortResponse:
    """S-parameters on a frequency grid at a real reference impedance."""

    freqs: np.ndarray
    s11: np.ndarray
    s21: np.ndarray
    s12: np.ndarray
    s22: np.ndarray
    ref_impedance: float = 50.0

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=float)
        for name in ("s11", "s21", "s12", "s22"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            if arr.shape != self.freqs.shape:
                raise ValueError(f"{name} length does not match the frequency grid")
            setattr(self, name, arr)
        if self.freqs.size and np.any(np.diff(self.freqs) <= 0):
            raise ValueError("frequency grid must be strictly ascending")

    def validate(self, passivity_tol: float = 1e-9, reciprocity_tol: float = 1e-12):
        """Check finiteness, losslessness/passivity and reciprocity."""
        for name in ("s11", "s21", "s12", "s22"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise SimulationError(f"{name} has non-finite entries")
        power = np.abs(self.s11) ** 2 + np.abs(self.s21) ** 2
        worst = float(np.max(np.abs(power - 1.0))) if power.size else 0.0
        if worst > passivity_tol:
            raise SimulationError(
                f"losslessness violated: max | |S11|^2+|S21|^2 - 1 | = {worst:.3e}"
            )
        recip = float(np.max(np.abs(self.s12 - self.s21))) if self.freqs.size else 0.0
        if recip > reciprocity_tol:
            raise SimulationError(
                f"reciprocity violated: max |S12 - S21| = {recip:.3e}"
            )


@dataclass(frozen=True)
class DispersionCurve:
    """Per-cell wavenumber k(f) in rad/cell on a DC-anchored grid."""

    freqs: np.ndarray = field(repr=False)
    k: np.ndarray = field(repr=False)

    def sample(self, f):
        """Linear interpolation of k at frequency f (Hz)."""
        f = np.asarray(f, dtype=float)
        if np.any(f < self.freqs[0]) or np.any(f > self.freqs[-1]):
            raise ValueError("requested frequency outside the dispersion grid")
        return np.interp(f, self.freqs, self.k)


@dataclass(frozen=True)
class CascadedAbcd:
    """Total chain matrix per frequency, stored as matrices * exp(log_scale).

    log_scale is zero wherever the entries cannot overflow, in which case
    ``matrices`` is the plain ABCD product.
    """

    matrices: np.ndarray
    log_scale: np.ndarray


def gate_capacitance(thickness_nm: float, cfg: CellConfig) -> float:
    """Parallel-plate gate capacitance in F for a dielectric thickness in nm."""
    if not thickness_nm > 0:
        raise ConfigurationError("dielectric thickness must be positive")
    area_m2 = cfg.pad_area * 1e-12
    return VACUUM_PERMITTIVITY * cfg.rel_permittivity * area_m2 / (thickness_nm * 1e-9)


def build_cells(
    p: DeviceParams, flux_ext: float, cfg: CellConfig
) -> tuple[CellImmittance, CellImmittance]:
    """(unloaded, loaded) cell immittances at the given flux bias (Phi0).

    The loaded cell is recomputed with every junction area divided by the
    inductance load ratio (alpha unchanged) and the shunt capacitance
    multiplied by the capacitance load ratio.
    """
    c_gate = gate_capacitance(p.dielectric_thickness, cfg)

    def snail_inductance(area: float) -> float:
        spec = SnailSpec(
            small_junction=JunctionSpec(area, p.current_density),
            alpha=p.alpha,
            flux_ext=flux_ext,
        )
        return effective_inductance(expand_potential(spec))

    l_unloaded = snail_inductance(p.junction_area)
    l_loaded = snail_inductance(p.junction_area / p.inductance_load_ratio)
    c_loaded = p.capacitance_load_ratio * c_gate

    unloaded = CellImmittance(l_unloaded, c_gate)
    loaded = CellImmittance(l_loaded, c_loaded)
    for cell in (unloaded, loaded):
        if not cell.series_inductance > 0 or not cell.shunt_capacitance > 0:
            raise ConfigurationError("cell immittances must be positive")
    return unloaded, loaded


def cell_abcd(cell: CellImmittance, freq) -> np.ndarray:
    """ABCD matrix of one L-section cell, series jwL then shunt jwC.

    Returns shape (2, 2) for scalar frequency, else (F, 2, 2).
    """
    freq = np.asarray(freq, dtype=float)
    scalar = freq.ndim == 0
    w = 2.0 * np.pi * np.atleast_1d(freq)
    out = np.empty(w.shape + (2, 2), dtype=complex)
    wl = w * cell.series_inductance
    wc = w * cell.shunt_capacitance
    out[:, 0, 0] = 1.0 - wl * wc
    out[:, 0, 1] = 1j * wl
    out[:, 1, 0] = 1j * wc
    out[:, 1, 1] = 1.0
    return out[0] if scalar else out


#: Stopband growth n Re(t) above which cascade() moves exp((n-1) Re t) into
#: log_scale; below it every entry stays under ~e^300, far from overflow.
_LOG_SCALE_ONSET = 300.0


def cascade(p: DeviceParams, grid: FrequencyGrid, cells) -> CascadedAbcd:
    """Total ABCD of the periodic chain, (U^(P-1) L)^(N/P) per frequency.

    The macrocell M = U^(P-1) L is unimodular, so with n = N/P and
    x = tr M / 2 = cosh t its power is M^n = U_{n-1}(x) M - U_{n-2}(x) I,
    where U_{k-1}(cosh t) = sinh(kt) / sinh t is the Chebyshev polynomial of
    the second kind.  x is folded onto Re x >= 0 first, using
    U_{k-1}(-x) = (-1)^(k-1) U_{k-1}(x), so t vanishes only at x = +-1,
    where U_{k-1} = k is taken directly.
    """
    unloaded, loaded = cells
    n, pitch = p.cell_count, p.pitch
    if n % pitch != 0:
        raise ConfigurationError(
            f"cell_count {n} is not divisible by pitch {pitch}"
        )
    n //= pitch
    freqs = grid.freqs()
    macro = np.linalg.matrix_power(cell_abcd(unloaded, freqs), pitch - 1)
    macro = macro @ cell_abcd(loaded, freqs)

    x = 0.5 * (macro[:, 0, 0] + macro[:, 1, 1])
    sign = np.where(x.real < 0, -1.0, 1.0)
    t = np.arccosh(sign * x)
    log_scale = np.where(n * t.real > _LOG_SCALE_ONSET, (n - 1) * t.real, 0.0)
    edge = t == 0
    sinh_t = np.where(edge, 1.0, np.sinh(t))

    def chebyshev_u(k: int) -> np.ndarray:
        """U_{k-1}(sign * x) * exp(-log_scale)."""
        # sinh(z) = -exp(z) expm1(-2z) / 2 is accurate for small z and takes
        # the scale out before anything can overflow.
        scaled = -0.5 * np.exp(k * t - log_scale) * np.expm1(-2.0 * k * t)
        return np.where(edge, k, scaled / sinh_t)

    shift = sign**n * chebyshev_u(n - 1)
    macro *= (sign ** (n - 1) * chebyshev_u(n))[:, None, None]
    macro[:, 0, 0] -= shift
    macro[:, 1, 1] -= shift
    return CascadedAbcd(matrices=macro, log_scale=log_scale)


def abcd_to_s(abcd: np.ndarray, z0: float, log_scale=None, det=None):
    """Standard ABCD to S conversion at a real reference impedance.

    Denominator is A + B/Z0 + C Z0 + D.  ``log_scale`` accounts for
    scaled matrices (true ABCD = abcd * exp(log_scale)).  ``det``
    optionally supplies the true chain determinant; passing 1.0 for a
    cascade of analytically unimodular cells keeps S12 equal to S21 at
    rounding level even where the float determinant of a huge-entry matrix
    would be meaningless.  Returns (s11, s21, s12, s22).
    """
    if not z0 > 0:
        raise ValueError("reference impedance must be positive")
    abcd = np.asarray(abcd, dtype=complex)
    a = abcd[..., 0, 0]
    b = abcd[..., 0, 1]
    c = abcd[..., 1, 0]
    d = abcd[..., 1, 1]
    delta = a + b / z0 + c * z0 + d
    singular = np.nonzero(delta == 0)[0] if delta.ndim else (delta == 0)
    if np.any(delta == 0):
        raise ValueError(f"singular conversion denominator at indices {singular}")

    s11 = (a + b / z0 - c * z0 - d) / delta
    s22 = (-a + b / z0 - c * z0 + d) / delta
    s21 = 2.0 / delta
    if log_scale is not None:
        s21 = s21 * np.exp(-np.asarray(log_scale))
    if det is None:
        det = a * d - b * c
        if log_scale is not None:
            det = det * np.exp(2.0 * np.asarray(log_scale))
    s12 = det * s21
    return s11, s21, s12, s22


def simulate_linear(
    p: DeviceParams, flux_ext: float, grid: FrequencyGrid, cfg: CellConfig
) -> TwoPortResponse:
    """Linear S-parameters of the device at a flux bias (Phi0).

    Deterministic: identical inputs produce bit-identical responses.
    """
    cells = build_cells(p, flux_ext, cfg)
    total = cascade(p, grid, cells)
    try:
        s11, s21, s12, s22 = abcd_to_s(
            total.matrices, cfg.ref_impedance, log_scale=total.log_scale, det=1.0
        )
    except ValueError as exc:
        raise SimulationError(str(exc)) from exc
    resp = TwoPortResponse(
        freqs=grid.freqs(),
        s11=s11,
        s21=s21,
        s12=s12,
        s22=s22,
        ref_impedance=cfg.ref_impedance,
    )
    resp.validate()
    return resp


def dispersion(resp: TwoPortResponse, n_cells: int) -> DispersionCurve:
    """Per-cell dispersion k(f) = -arg(S21)/N with DC-anchored unwrapping."""
    if resp.freqs.size == 0 or resp.freqs[0] != 0.0:
        raise ValueError("dispersion extraction requires a DC-anchored grid")
    if n_cells <= 0:
        raise ValueError("cell count must be positive")
    phase = np.unwrap(np.angle(resp.s21))
    k = -phase / float(n_cells) + 0.0  # +0.0 normalizes -0.0 at DC
    return DispersionCurve(freqs=resp.freqs, k=k)
