"""Lumped transmission-line model of the amplifier and its S-parameters.

Each unit cell is a series SNAIL inductance followed by a shunt gate
capacitance to ground (an L-section).  Dispersion engineering replaces every
P-th cell with a "loaded" variant whose junction areas and shunt capacitance
are rescaled, so the chain is a periodic macrocell of P-1 unloaded cells and
one loaded cell, repeated N/P times.

The cascade builds the macrocell ABCD (chain) matrix once per frequency and
raises it to the N/P-th power in closed form with the Chebyshev identity for
unimodular matrices (the Abeles formula for periodic stacks).  A lossless
L-section's matrix is [[a, jb], [jc, d]] with a, b, c, d real, and products
and powers of such matrices keep that form, so the whole cascade runs on the
four real entries as elementwise array products: no per-matrix BLAS call and
no complex transcendental.  The half-trace x is real, and the Chebyshev
factors take a sine form in the passband (|x| <= 1) and a hyperbolic-sine
form in the stopband (|x| > 1).  Deep in a stopband the chain-matrix entries
grow like exp(kappa N) and would overflow, so that growth is carried
separately as a logarithmic scale; S-parameters are ratios and come out
finite either way.  The ABCD to S conversion reads the four real entries
and the scale directly: the complex 2x2 matrix is never formed.

Everything from the device parameters to the S-parameters works on a
leading device axis: devices that share pitch and cell count are simulated
as one batch, each element through the same operations as on its own.  The
cells are built as (B,) arrays, with one cached loop expansion looked up
per device.  A single device is a batch of one.  ``sparam_faults``
validates a batch of (B, F) S-parameters at once and names each failing
row's fault; ``TwoPortResponse.validate`` is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import VACUUM_PERMITTIVITY
from .snail import (effective_inductance, josephson_energy, normalized_expansion,
                    scale_expansion)


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
    """Series inductance (H) and shunt capacitance (F) of one cell.

    Scalars for one device, or equal-shape arrays with one entry per device
    of a batch (see ``build_cells``).
    """

    series_inductance: float | np.ndarray
    shunt_capacitance: float | np.ndarray

    def __post_init__(self):
        if (np.less(self.series_inductance, 0.0).any()
                or np.less(self.shunt_capacitance, 0.0).any()):
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


#: S-parameter names in the order of an (s11, s21, s12, s22) tuple.
SPARAM_NAMES = ("s11", "s21", "s12", "s22")


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
        for name in SPARAM_NAMES:
            arr = np.asarray(getattr(self, name), dtype=complex)
            if arr.shape != self.freqs.shape:
                raise ValueError(f"{name} length does not match the frequency grid")
            setattr(self, name, arr)
        if self.freqs.size and np.any(np.diff(self.freqs) <= 0):
            raise ValueError("frequency grid must be strictly ascending")

    def validate(self, passivity_tol: float = 1e-9, reciprocity_tol: float = 1e-12):
        """Check finiteness, losslessness/passivity and reciprocity.

        A batch of one through ``sparam_faults``.
        """
        sparams = [getattr(self, name)[None] for name in SPARAM_NAMES]
        (fault,) = sparam_faults(self.freqs, sparams, passivity_tol,
                                 reciprocity_tol)
        if fault is not None:
            raise SimulationError(fault)


def sparam_faults(freqs, sparams, passivity_tol: float = 1e-9,
                  reciprocity_tol: float = 1e-12) -> list[str | None]:
    """Why each device of a batch fails validation, or None where it passes.

    ``sparams`` is (s11, s21, s12, s22), each (B, F) on the shared grid
    ``freqs``, whose ascending order is checked once.  Each row is checked
    for finiteness, then for losslessness, max | |S11|^2 + |S21|^2 - 1 |
    against ``passivity_tol``, then for reciprocity, max |S12 - S21|
    against ``reciprocity_tol``; the first check a row fails names its
    fault.  The worst cases are per-row maxima, which do not depend on the
    other rows, so a row gets the same fault in any batch.
    """
    freqs = np.asarray(freqs, dtype=float)
    if freqs.size and np.any(np.diff(freqs) <= 0):
        raise ValueError("frequency grid must be strictly ascending")
    s11, s21, s12, s22 = sparams
    finite = [np.isfinite(s).all(axis=-1) for s in sparams]
    if freqs.size:
        # Rows with non-finite entries are reported as such below; their
        # inf - inf here must not warn.
        with np.errstate(invalid="ignore", over="ignore"):
            power = np.abs(s11) ** 2 + np.abs(s21) ** 2
            worst = np.max(np.abs(power - 1.0), axis=-1)
            recip = np.max(np.abs(s12 - s21), axis=-1)
    else:
        worst = recip = np.zeros(len(s11))
    faults = []
    for row in range(len(s11)):
        bad = [name for name, ok in zip(SPARAM_NAMES, finite) if not ok[row]]
        if bad:
            faults.append(f"{bad[0]} has non-finite entries")
        elif worst[row] > passivity_tol:
            faults.append("losslessness violated: max | |S11|^2+|S21|^2 - 1 | "
                          f"= {float(worst[row]):.3e}")
        elif recip[row] > reciprocity_tol:
            faults.append(
                f"reciprocity violated: max |S12 - S21| = {float(recip[row]):.3e}")
        else:
            faults.append(None)
    return faults


@dataclass(frozen=True)
class DispersionCurve:
    """Per-cell wavenumber k(f) in rad/cell on a DC-anchored grid.

    k has shape (F,) for one device; the metric also takes a (B, F) batch
    on one grid (``metric.score_batch``).
    """

    freqs: np.ndarray = field(repr=False)
    k: np.ndarray = field(repr=False)

    def sample(self, f):
        """Linear interpolation of k at frequency f (Hz)."""
        f = np.asarray(f, dtype=float)
        if np.any(f < self.freqs[0]) or np.any(f > self.freqs[-1]):
            raise ValueError("requested frequency outside the dispersion grid")
        return np.interp(f, self.freqs, self.k)


def gate_capacitance(thickness_nm, cfg: CellConfig):
    """Parallel-plate gate capacitance in F for a dielectric thickness in nm.

    The thickness may be an array with one entry per device.
    """
    if not np.all(np.greater(thickness_nm, 0.0)):
        raise ConfigurationError("dielectric thickness must be positive")
    area_m2 = cfg.pad_area * 1e-12
    return VACUUM_PERMITTIVITY * cfg.rel_permittivity * area_m2 / (thickness_nm * 1e-9)


def build_cells(devices, fluxes, cfg: CellConfig
                ) -> tuple[CellImmittance, CellImmittance]:
    """(unloaded, loaded) cell immittances of B devices at their flux biases
    (Phi0), each holding (B,) arrays.

    The loaded cell has every junction area divided by the inductance load
    ratio (alpha unchanged) and the shunt capacitance multiplied by the
    capacitance load ratio.  Each device's loop expansion is looked up once,
    normalized to the small-junction energy, and scaled to both cells'
    junctions.  Every quantity is one array expression, so a device's cells
    do not depend on the batch.  A batch of one raises what the device's
    own cell build raises; a larger batch raises one failing device's
    error, and ``sweep._evaluate_batch`` then redoes its devices alone.
    """
    def column(name):
        return np.array([getattr(p, name) for p in devices], dtype=float)

    c_gate = gate_capacitance(column("dielectric_thickness"), cfg)
    normalized = np.array([normalized_expansion(p.alpha, f)
                           for p, f in zip(devices, fluxes)]).T
    density = column("current_density")

    def snail_inductance(area):
        energy = josephson_energy(area, density)
        return effective_inductance(scale_expansion(normalized, energy))

    area = column("junction_area")
    l_unloaded = snail_inductance(area)
    l_loaded = snail_inductance(area / column("inductance_load_ratio"))
    c_loaded = column("capacitance_load_ratio") * c_gate

    unloaded = CellImmittance(l_unloaded, c_gate)
    loaded = CellImmittance(l_loaded, c_loaded)
    if not all(np.all(v > 0) for v in (l_unloaded, c_gate, l_loaded, c_loaded)):
        raise ConfigurationError("cell immittances must be positive")
    return unloaded, loaded


def _cell_entries(cell: CellImmittance, freq):
    """Real entries (a, b, c, d) of the cell matrix [[a, jb], [jc, d]].

    a, b and c have shape cell shape + freq shape; d is the scalar 1.0.
    """
    w = 2.0 * np.pi * np.asarray(freq, dtype=float)
    wl = np.multiply.outer(cell.series_inductance, w)
    wc = np.multiply.outer(cell.shunt_capacitance, w)
    return 1.0 - wl * wc, wl, wc, 1.0


def _chain_product(m, n):
    """Real entries of the product of two [[a, jb], [jc, d]] matrices."""
    a1, b1, c1, d1 = m
    a2, b2, c2, d2 = n
    return (a1 * a2 - b1 * c2, a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2, d1 * d2 - c1 * b2)


#: Stopband growth n t above which cascade() moves exp((n-1) t) into
#: log_scale; below it every entry stays under ~e^300, far from overflow.
_LOG_SCALE_ONSET = 300.0


def cascade(p: DeviceParams, grid: FrequencyGrid, cells):
    """Total ABCD of the periodic chain, (U^(P-1) L)^(N/P) per frequency.

    ``cells`` is the (unloaded, loaded) pair.  With (B,) immittance arrays
    (``build_cells``) it describes B devices that share p's pitch and cell
    count; scalar immittances describe one device.  Returns the real
    entries (a, b, c, d) and log_scale, each (B, F) or (F,), of the chain
    matrix [[a, jb], [jc, d]] * exp(log_scale).  log_scale is zero wherever
    the entries cannot overflow.  Every element goes through the same
    operations whatever the batch size, so a device's chain matrix does not
    depend on the batch it was computed in.

    Every matrix here has the lossless form [[a, jb], [jc, d]] with real
    a, b, c, d, so the products are written out on those four real arrays.
    The macrocell M = U^(P-1) L is unimodular, so with n = N/P and
    x = tr M / 2 its power is M^n = U_{n-1}(x) M - U_{n-2}(x) I, with
    U_{k-1} the Chebyshev polynomial of the second kind.  x is real and is
    folded onto x >= 0 first, using U_{k-1}(-x) = (-1)^(k-1) U_{k-1}(x).
    In the passband, x = cos(theta) and U_{k-1} = sin(k theta) / sin(theta);
    in the stopband, x = cosh(t) and U_{k-1} = sinh(k t) / sinh(t).  Both
    angles vanish at x = 1, where U_{k-1} = k is taken directly.
    """
    unloaded, loaded = cells
    n, pitch = p.cell_count, p.pitch
    if n % pitch != 0:
        raise ConfigurationError(
            f"cell_count {n} is not divisible by pitch {pitch}"
        )
    n //= pitch
    freqs = grid.freqs()
    unit = _cell_entries(unloaded, freqs)
    macro = unit
    for _ in range(pitch - 2):
        macro = _chain_product(macro, unit)
    a, b, c, d = _chain_product(macro, _cell_entries(loaded, freqs))

    x = 0.5 * (a + d)
    sign = np.where(x < 0, -1.0, 1.0)
    x *= sign
    stop = x > 1.0
    edge = x == 1.0
    theta = np.arccos(np.minimum(x, 1.0))  # 0 in the stopband
    t = np.arccosh(np.maximum(x, 1.0))  # 0 in the passband
    log_scale = np.where(n * t > _LOG_SCALE_ONSET, (n - 1) * t, 0.0)
    divisor = np.where(stop, np.sinh(t), np.where(edge, 1.0, np.sin(theta)))

    def chebyshev_u(k: int) -> np.ndarray:
        """U_{k-1}(x) * exp(-log_scale) at the folded x."""
        # sinh(z) = -exp(z) expm1(-2z) / 2 is accurate for small z and takes
        # the scale out before anything can overflow.
        growth = -0.5 * np.exp(k * t - log_scale) * np.expm1(-2.0 * k * t)
        wave = np.where(stop, growth, np.sin(k * theta))
        return np.where(edge, k, wave / divisor)

    # sign is exactly +-1.0, so sign**k is sign for odd k and 1.0 for even k.
    scale = (1.0 if n % 2 else sign) * chebyshev_u(n)
    shift = (sign if n % 2 else 1.0) * chebyshev_u(n - 1)
    return (scale * a - shift, scale * b, scale * c, scale * d - shift), log_scale


def abcd_to_s(entries, log_scale, z0: float):
    """S-parameters of the chain matrix [[a, jb], [jc, d]] * exp(log_scale)
    at a real reference impedance.

    ``entries`` are the real (a, b, c, d) and ``log_scale`` their scale,
    as ``cascade`` returns them, all of one shape, e.g. (B, F) for a batch
    of devices.  The denominator is a + d + j (b / Z0 + c Z0).  The chain
    of unimodular cells has determinant 1, so S12 equals S21 even where the
    float determinant of huge entries would be meaningless.  Returns
    (s11, s21, s12, s22).
    """
    if not z0 > 0:
        raise ValueError("reference impedance must be positive")
    a, b, c, d = entries
    # b * (1 / z0) rounds as numpy's complex division by z0 does.
    b_z, c_z = b * (1.0 / z0), c * z0
    delta = np.empty(np.shape(a), dtype=complex)
    delta.real = a + d
    delta.imag = b_z + c_z
    if np.any(delta == 0):
        axes = {1: "frequency ", 2: "(device, frequency) "}.get(delta.ndim, "")
        raise ValueError(f"singular conversion denominator at {axes}indices "
                         f"{np.argwhere(delta == 0).tolist()}")

    numerator = np.empty_like(delta)
    numerator.real = a - d
    numerator.imag = b_z - c_z
    s11 = numerator / delta
    numerator.real = d - a
    s22 = numerator / delta
    s21 = 2.0 / delta * np.exp(-log_scale)
    return s11, s21, s21.copy(), s22


def linear_sparams(devices, fluxes, grid: FrequencyGrid, cfg: CellConfig):
    """(s11, s21, s12, s22), each (B, F), of B devices at their flux biases.

    The devices must share pitch and cell count; they go through one cell
    build, one cascade and one ABCD to S conversion.  Nothing is validated
    here, see ``sparam_faults``.
    """
    shape = {(p.pitch, p.cell_count) for p in devices}
    if len(shape) != 1:
        raise ValueError(f"a batch needs one (pitch, cell count), got {shape}")
    cells = build_cells(devices, fluxes, cfg)
    entries, log_scale = cascade(devices[0], grid, cells)
    try:
        return abcd_to_s(entries, log_scale, cfg.ref_impedance)
    except ValueError as exc:
        raise SimulationError(str(exc)) from exc


def simulate_linear(
    p: DeviceParams, flux_ext: float, grid: FrequencyGrid, cfg: CellConfig
) -> TwoPortResponse:
    """Linear S-parameters of the device at a flux bias (Phi0).

    A batch of one through ``linear_sparams``.  Deterministic: identical
    inputs produce bit-identical responses, alone or in any batch.
    """
    sparams = linear_sparams([p], [flux_ext], grid, cfg)
    resp = TwoPortResponse(grid.freqs(), *(s[0] for s in sparams),
                           ref_impedance=cfg.ref_impedance)
    resp.validate()
    return resp


def wavenumbers(freqs, s21, n_cells: int) -> np.ndarray:
    """k(f) = -unwrap(arg S21) / N in rad/cell along the last axis of s21.

    The frequency grid must start at DC, which anchors the unwrapping.  Any
    leading shape is kept, so a batch of devices unwraps in one call.
    """
    if freqs.size == 0 or freqs[0] != 0.0:
        raise ValueError("dispersion extraction requires a DC-anchored grid")
    if n_cells <= 0:
        raise ValueError("cell count must be positive")
    phase = np.unwrap(np.angle(s21), axis=-1)
    return -phase / float(n_cells) + 0.0  # +0.0 normalizes -0.0 at DC


def dispersion(resp: TwoPortResponse, n_cells: int) -> DispersionCurve:
    """Per-cell dispersion k(f) = -arg(S21)/N with DC-anchored unwrapping."""
    return DispersionCurve(
        freqs=resp.freqs, k=wavenumbers(resp.freqs, resp.s21, n_cells))
