"""Independent reference implementations used to cross-check the package.

Everything here deliberately uses a different algorithm than the code under
test: nodal admittance instead of chain matrices, time stepping and
scipy's Jacobi elliptic functions instead of the Bulirsch elliptic closed
form, ordered chain products instead of the Chebyshev closed form, finite
differences instead of analytic derivatives, dense scans plus warm-started
Newton instead of bracketed root finding, plain dense linear algebra
instead of cached Cholesky factors, a dense EI argmax instead of the
bounded one, one SnailSpec per cell instead of the batch's cell arrays, and
the general complex ABCD to S conversion instead of the real-entry one.
Slow and simple on purpose.

``undepleted_gain`` is the small-signal gain the exact depleted-pump gain
must reduce to (itself checked against a matrix exponential), and
``cme_rk4`` integrates the coupled mode equations directly, so every
amplitude along the line can be compared.

The per-device validation and metric below are the reference for the
batched ones: one device at a time, with a 1-D np.max per worst case,
np.interp, a 1-D np.trapezoid and the scalar abs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import ellipj

from twpaopt.bayesopt import expected_improvement
from twpaopt.metric import VERBATIM_CAP, BandCoverageError, MetricBreakdown
from twpaopt.network import (
    CellImmittance,
    ConfigurationError,
    SimulationError,
    gate_capacitance,
)
from twpaopt.snail import (
    JunctionSpec,
    SnailSpec,
    effective_inductance,
    expand_potential,
)


def nodal_ladder_sparams(series_l, shunt_c, freqs, z0):
    """S-parameters of an L-section ladder by direct nodal analysis.

    Cell i is a series inductor series_l[i] followed by a shunt capacitor
    shunt_c[i] to ground.  Nodes run 0 (port 1) .. n (port 2); each port is
    terminated in z0 and excited by a 2 V Thevenin source in turn, so
    S11 = V0 - 1 and S21 = Vn for excitation at port 1, symmetrically for
    port 2.  Frequencies must be strictly positive (the series branch is a
    short at DC).  Returns an (F, 2, 2) array ordered [[S11, S12], [S21, S22]].
    """
    series_l = np.asarray(series_l, dtype=float)
    shunt_c = np.asarray(shunt_c, dtype=float)
    if series_l.shape != shunt_c.shape or series_l.ndim != 1:
        raise ValueError("series_l and shunt_c must be 1-d and equally long")
    n = series_l.size
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    if np.any(freqs <= 0):
        raise ValueError("nodal solve needs strictly positive frequencies")

    out = np.empty((freqs.size, 2, 2), dtype=complex)
    for fi, f in enumerate(freqs):
        w = 2.0 * np.pi * f
        y = np.zeros((n + 1, n + 1), dtype=complex)
        for i in range(n):
            yl = 1.0 / (1j * w * series_l[i])
            y[i, i] += yl
            y[i + 1, i + 1] += yl
            y[i, i + 1] -= yl
            y[i + 1, i] -= yl
            y[i + 1, i + 1] += 1j * w * shunt_c[i]
        y[0, 0] += 1.0 / z0
        y[n, n] += 1.0 / z0

        rhs = np.zeros(n + 1, dtype=complex)
        rhs[0] = 2.0 / z0
        v = np.linalg.solve(y, rhs)
        out[fi, 0, 0] = v[0] - 1.0   # S11
        out[fi, 1, 0] = v[n]         # S21

        rhs = np.zeros(n + 1, dtype=complex)
        rhs[n] = 2.0 / z0
        v = np.linalg.solve(y, rhs)
        out[fi, 1, 1] = v[n] - 1.0   # S22
        out[fi, 0, 1] = v[0]         # S12
    return out


def per_device_cells(p, flux_ext, cfg):
    """(unloaded, loaded) scalar cell immittances of one device, built from
    one SnailSpec per cell through the scalar expansion."""
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


def cell_abcd(cell, freq):
    """ABCD matrix of one L-section cell, series jwL then shunt jwC.

    Returns shape cell shape + freq shape + (2, 2): (2, 2) for one device
    at one frequency, (B, F, 2, 2) for a batch of B devices on F
    frequencies.
    """
    w = 2.0 * np.pi * np.asarray(freq, dtype=float)
    wl = np.multiply.outer(cell.series_inductance, w)
    wc = np.multiply.outer(cell.shunt_capacitance, w)
    out = np.empty(np.shape(wl) + (2, 2), dtype=complex)
    out[..., 0, 0] = 1.0 - wl * wc
    out[..., 0, 1] = 1j * wl
    out[..., 1, 0] = 1j * wc
    out[..., 1, 1] = 1.0
    return out


def general_abcd_to_s(abcd, z0, log_scale=None, det=None):
    """Textbook ABCD to S conversion of complex (..., 2, 2) matrices.

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
    if np.any(delta == 0):
        raise ValueError("singular conversion denominator")

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


def pack_abcd(entries):
    """Complex (..., 2, 2) matrices [[a, jb], [jc, d]] of real entries."""
    a, b, c, d = entries
    out = np.zeros(np.shape(a) + (2, 2), dtype=complex)
    out.real[..., 0, 0] = a
    out.imag[..., 0, 1] = b
    out.imag[..., 1, 0] = c
    out.real[..., 1, 1] = d
    return out


def real_entries(abcd):
    """Real (a, b, c, d) of lossless matrices [[a, jb], [jc, d]]."""
    return (abcd[..., 0, 0].real, abcd[..., 0, 1].imag,
            abcd[..., 1, 0].imag, abcd[..., 1, 1].real)


def chain_abcd(cells, freqs):
    """Plain ordered product of cell matrices (input cell leftmost).

    Reference path for small chains; no overflow handling.
    """
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    total = np.broadcast_to(np.eye(2, dtype=complex), (freqs.size, 2, 2)).copy()
    for cell in cells:
        total = total @ cell_abcd(cell, freqs)
    return total


def plain_abcd(entries, log_scale):
    """Unscaled matrices of a cascade's scaled real entries (may overflow
    deep in a stopband)."""
    return pack_abcd(entries) * np.exp(log_scale)[..., None, None]


def periodic_cell_sequence(unloaded, loaded, pitch, n_cells):
    """(series_l, shunt_c) arrays for the repeated U^(pitch-1) L pattern."""
    if n_cells % pitch != 0:
        raise ValueError("cell count must divide by the pitch")
    ls, cs = [], []
    for _ in range(n_cells // pitch):
        for _ in range(pitch - 1):
            ls.append(unloaded[0])
            cs.append(unloaded[1])
        ls.append(loaded[0])
        cs.append(loaded[1])
    return np.array(ls), np.array(cs)


def bloch_wavenumber(freqs, series_l, shunt_c):
    """Per-cell Bloch phase arccos(1 - w^2 L C / 2) of a uniform ladder."""
    w = 2.0 * np.pi * np.asarray(freqs, dtype=float)
    return np.arccos(np.clip(1.0 - 0.5 * w * w * series_l * shunt_c, -1.0, 1.0))


def snail_potential_normalized(alpha, flux_ext, phi):
    """Loop potential in units of the small-junction energy."""
    phi_ext = 2.0 * np.pi * flux_ext
    return -np.cos(phi) - (3.0 / alpha) * np.cos((phi_ext - phi) / 3.0)


# Central-difference step per order, balancing h^2 truncation against the
# eps * |U| / h^n rounding floor of a potential whose scale is 3/alpha ~ 13.
_FD_STEPS = {1: 1e-6, 2: 1e-3, 3: 1e-2, 4: 2e-2}


def _central_difference(u, phi, order, h):
    if order == 1:
        return (u(phi + h) - u(phi - h)) / (2.0 * h)
    if order == 2:
        return (u(phi + h) - 2.0 * u(phi) + u(phi - h)) / h**2
    if order == 3:
        return (u(phi + 2 * h) - 2 * u(phi + h) + 2 * u(phi - h)
                - u(phi - 2 * h)) / (2.0 * h**3)
    if order == 4:
        return (u(phi + 2 * h) - 4 * u(phi + h) + 6 * u(phi)
                - 4 * u(phi - h) + u(phi - 2 * h)) / h**4
    raise ValueError(f"unsupported derivative order {order}")


def potential_derivative_fd(alpha, flux_ext, phi, order):
    """Finite-difference d^n/dphi^n of the normalized potential, order 1..4.

    Orders 2..4 Richardson-extrapolate the h^2 stencil error away so the
    step can stay large enough to keep cancellation noise below ~1e-5.
    """
    u = lambda p: snail_potential_normalized(alpha, flux_ext, p)
    h = _FD_STEPS[order]
    if order == 1:
        return _central_difference(u, phi, 1, h)
    coarse = _central_difference(u, phi, order, h)
    fine = _central_difference(u, phi, order, h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def kerr_free_flux_scan(alpha, n_flux=10000):
    """First quartic-coefficient zero in (0, 0.5) Phi0 from a dense scan.

    Tracks the potential minimum along the flux axis by warm-started Newton
    iteration on the stationarity condition, evaluates the normalized c4 at
    every scan point, and linearly interpolates the first sign change.
    """
    fluxes = np.linspace(0.0, 0.5, n_flux + 1)[1:]
    c4 = np.empty(fluxes.size)
    phi = 0.0
    for i, fx in enumerate(fluxes):
        pe = 2.0 * math.pi * fx
        for _ in range(60):
            arg = (pe - phi) / 3.0
            g = math.sin(phi) - math.sin(arg) / alpha
            if abs(g) < 1e-14:
                break
            h = math.cos(phi) + math.cos(arg) / (3.0 * alpha)
            phi -= g / h
        arg = (pe - phi) / 3.0
        c4[i] = (-math.cos(phi) - math.cos(arg) / (27.0 * alpha)) / 24.0

    flips = np.nonzero(np.diff(np.sign(c4)) != 0)[0]
    if flips.size == 0:
        raise ValueError(f"no c4 sign change found for alpha={alpha}")
    i = int(flips[0])
    x0, x1 = fluxes[i], fluxes[i + 1]
    return float(x0 - c4[i] * (x1 - x0) / (c4[i + 1] - c4[i]))


def undepleted_gain_expm(g0, delta_k, n_cells):
    """Signal power gain of the linearized mixing system via expm.

    In the co-rotating frame the (signal, conjugate idler) pair obeys a
    constant-coefficient 2x2 system; the gain is the squared magnitude of
    the (0, 0) transfer-matrix entry over the full length.
    """
    m = np.array(
        [[0.5j * delta_k, 1j * g0], [-1j * g0, -0.5j * delta_k]],
        dtype=complex,
    )
    u = expm(m * float(n_cells))
    return float(abs(u[0, 0]) ** 2)


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


def cme_rk4(kappa, delta_k, initial, n_cells, step):
    """Coupled mode equations by classical fixed-step RK4 in the lab frame.

    dA_s/dx = i kappa A_p conj(A_i) e^(-i dk x), dA_i/dx = i kappa A_p
    conj(A_s) e^(-i dk x), dA_p/dx = i kappa A_s A_i e^(i dk x), with the
    phase factors evaluated at every stage.  ``initial`` is (A_s(0),
    A_i(0), A_p(0)); its entries, ``kappa`` and ``delta_k`` broadcast, each
    element an independent column.  The step is n_cells / round(n_cells /
    step).  Returns the sample points x = 0, h, ..., n_cells and the
    amplitudes there, shaped (n + 1, 3, *columns).
    """
    n_steps = round(n_cells / step)
    h = n_cells / n_steps

    def rhs(x, a):
        a_s, a_i, a_p = a
        phase = np.exp(-1j * delta_k * x)
        return np.array([
            1j * kappa * a_p * np.conj(a_i) * phase,
            1j * kappa * a_p * np.conj(a_s) * phase,
            1j * kappa * a_s * a_i / phase,
        ])

    shape = np.broadcast_shapes(np.shape(kappa), np.shape(delta_k),
                                *(np.shape(a) for a in initial))
    a = np.array([np.broadcast_to(v, shape) for v in initial], dtype=complex)
    path = [a]
    for j in range(n_steps):
        x = j * h
        k1 = rhs(x, a)
        k2 = rhs(x + 0.5 * h, a + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h, a + 0.5 * h * k2)
        k4 = rhs(x + h, a + h * k3)
        a = a + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        path.append(a)
    return np.linspace(0.0, float(n_cells), n_steps + 1), np.array(path)


def depleted_pump_intensities(kappa, s0, p0, x):
    """Exact phase-matched three-wave intensities with pump depletion.

    For dk = 0, A_i(0) = 0 and real A_s(0) = s0, A_p(0) = p0 the coupled
    mode equations dA_s/dx = i kappa A_p conj(A_i), dA_i/dx = i kappa A_p
    conj(A_s), dA_p/dx = i kappa A_s A_i have the Jacobi-elliptic solution
    (Armstrong, Bloembergen, Ducuing & Pershan, Phys. Rev. 127, 1918 (1962))

        |A_i|^2 = p0^2 s0^2 / (p0^2 + s0^2) sd^2(kappa sqrt(p0^2 + s0^2) x | m)

    with m = p0^2 / (p0^2 + s0^2) and sd = sn / dn; the Manley-Rowe
    relations then give |A_s|^2 = s0^2 + |A_i|^2, |A_p|^2 = p0^2 - |A_i|^2.
    Returns (|A_s|^2, |A_i|^2, |A_p|^2) at the positions x.
    """
    total = p0 * p0 + s0 * s0
    sn, _, dn, _ = ellipj(kappa * math.sqrt(total) * np.asarray(x, float),
                          p0 * p0 / total)
    idler = p0 * p0 * s0 * s0 / total * (sn / dn) ** 2
    return s0 * s0 + idler, idler, p0 * p0 - idler


def sq_exp_kernel_loops(xa, xb, signal_variance, length_scales):
    """Anisotropic squared-exponential kernel by explicit loops."""
    xa = np.atleast_2d(xa)
    xb = np.atleast_2d(xb)
    ell = np.asarray(length_scales, dtype=float)
    out = np.empty((xa.shape[0], xb.shape[0]))
    for i in range(xa.shape[0]):
        for j in range(xb.shape[0]):
            r2 = np.sum(((xa[i] - xb[j]) / ell) ** 2)
            out[i, j] = signal_variance * math.exp(-0.5 * r2)
    return out


def gp_posterior_dense(x_train, y_train, x_query, signal, lengths, noise):
    """GP posterior mean/variance by a dense solve, no factor caching."""
    x_train = np.atleast_2d(x_train)
    x_query = np.atleast_2d(x_query)
    y = np.asarray(y_train, dtype=float)
    offset = float(np.mean(y))
    k = sq_exp_kernel_loops(x_train, x_train, signal, lengths)
    k += noise * np.eye(x_train.shape[0])
    k_star = sq_exp_kernel_loops(x_query, x_train, signal, lengths)
    k_inv = np.linalg.inv(k)
    mean = offset + k_star @ k_inv @ (y - offset)
    var = signal - np.sum((k_star @ k_inv) * k_star, axis=1)
    return mean, np.maximum(var, 0.0)


def log_marginal_likelihood_dense(x, y, signal, lengths, noise):
    """LML by slogdet and a dense solve."""
    x = np.atleast_2d(x)
    y = np.asarray(y, dtype=float)
    resid = y - float(np.mean(y))
    k = sq_exp_kernel_loops(x, x, signal, lengths) + noise * np.eye(x.shape[0])
    _, logdet = np.linalg.slogdet(k)
    return float(
        -0.5 * resid @ np.linalg.solve(k, resid)
        - 0.5 * logdet
        - 0.5 * y.size * math.log(2.0 * math.pi)
    )


def expected_improvement_quad(mean, var, best):
    """EI for minimization by numerical quadrature over the Gaussian."""
    sd = math.sqrt(var)
    if sd == 0.0:
        return max(best - mean, 0.0)
    pdf = lambda t: math.exp(-0.5 * ((t - mean) / sd) ** 2) / (
        sd * math.sqrt(2.0 * math.pi)
    )
    lo = min(mean - 12.0 * sd, best - 12.0 * sd)
    value, _ = quad(lambda t: (best - t) * pdf(t), lo, best, limit=200)
    return value


def pattern_search_unmemoized(fun, theta0, lower, upper, max_evals):
    """Reference for ``bayesopt._pattern_search`` that scores every candidate.

    The same coordinate pattern search, calling ``fun`` on each candidate,
    a theta it has already scored included.
    """
    theta = np.clip(np.asarray(theta0, dtype=float), lower, upper)
    best = fun(theta)
    evals = 1
    step = 0.5
    while evals < max_evals and step > 1e-3:
        improved = False
        for i in range(theta.size):
            for sign in (1.0, -1.0):
                if evals >= max_evals:
                    break
                cand = theta.copy()
                cand[i] = min(max(cand[i] + sign * step, lower[i]), upper[i])
                if cand[i] == theta[i]:
                    continue
                val = fun(cand)
                evals += 1
                if val < best - 1e-12:
                    theta, best = cand, val
                    improved = True
                    break
        if not improved:
            step *= 0.5
    return theta, best


def ei_argmax_dense(model, cands):
    """EI argmax with every candidate solved: one dense triangular solve."""
    return int(np.argmax(expected_improvement(model, cands)))


def trapezoid_band_mean(freqs, values, lo, hi, n_dense=200001):
    """Band mean by brute-force dense resampling of the linear interpolant."""
    xs = np.linspace(lo, hi, n_dense)
    if np.iscomplexobj(values):
        ys = np.interp(xs, freqs, values.real) + 1j * np.interp(
            xs, freqs, values.imag
        )
    else:
        ys = np.interp(xs, freqs, values)
    return np.trapezoid(ys, xs) / (hi - lo)


class PerDeviceResponse:
    """One device's S-parameters with the per-device validity check."""

    def __init__(self, freqs, s11, s21, s12, s22):
        self.freqs = np.asarray(freqs, dtype=float)
        self.s11, self.s21, self.s12, self.s22 = (
            np.asarray(s, dtype=complex) for s in (s11, s21, s12, s22))

    def validate(self, passivity_tol=1e-9, reciprocity_tol=1e-12):
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


def _interp_complex(f, freqs, values):
    if np.iscomplexobj(values):
        return np.interp(f, freqs, values.real) + 1j * np.interp(
            f, freqs, values.imag
        )
    return np.interp(f, freqs, values)


def per_device_band_average(freqs, values, band):
    """Trapezoidal band mean of one device: np.interp edges, 1-D np.trapezoid."""
    lo, hi = band
    if lo < freqs[0] or hi > freqs[-1]:
        raise BandCoverageError(f"band {band} outside the grid")
    interior = (freqs > lo) & (freqs < hi)
    xs = np.concatenate(([lo], freqs[interior], [hi]))
    ys = np.concatenate((
        [_interp_complex(lo, freqs, values)],
        values[interior],
        [_interp_complex(hi, freqs, values)],
    ))
    return np.trapezoid(ys, xs) / (hi - lo)


def per_device_breakdown(freqs, s11, s21, k_freqs, k, cfg):
    """One device's MetricBreakdown, term by term with scalar arithmetic."""
    mean = complex(per_device_band_average(freqs, s11, cfg.band))
    if cfg.pump_freq > k_freqs[-1] or cfg.pump_freq / 2.0 < k_freqs[0]:
        raise BandCoverageError("pump frequency outside the dispersion grid")
    k_p = np.interp(cfg.pump_freq, k_freqs, k)
    k_half = np.interp(cfg.pump_freq / 2.0, k_freqs, k)
    dk = float(abs(k_p - 2.0 * k_half))
    f2 = 2.0 * cfg.pump_freq
    if f2 > freqs[-1]:
        raise BandCoverageError("second harmonic above the grid")
    source = s21 if cfg.harmonic_use_s21 else s11
    mag_2fp = abs(_interp_complex(f2, freqs, source))
    mean_mag = abs(mean)
    capped = False
    if cfg.matching_mode == "verbatim":
        if mean_mag < VERBATIM_CAP:
            matching = cfg.weight_a / VERBATIM_CAP
            capped = True
        else:
            matching = cfg.weight_a / mean_mag
    else:
        matching = cfg.weight_a * mean_mag
    phase = cfg.weight_b * dk
    harmonic = cfg.weight_c * mag_2fp
    return MetricBreakdown(
        matching_term=float(matching),
        phase_term=float(phase),
        harmonic_term=float(harmonic),
        total=float(matching + phase + harmonic),
        band_mean_s11=mean,
        delta_k=dk,
        matching_capped=capped,
    )
