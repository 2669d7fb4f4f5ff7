"""Scalar figure of demerit for the linear stage.

Three additive terms, all to be minimized: an in-band impedance matching
term built from the band-averaged complex S11, a phase-matching term
b * |k(f_p) - 2 k(f_p/2)|, and a second-harmonic term c * |S11(2 f_p)|.

The matching term supports two modes.  "verbatim" scores a / |mean S11|,
which rewards strong in-band reflection; "direct" scores a * |mean S11|,
which rewards good matching.  Both are kept because they rank devices very
differently and the choice materially changes what the optimizer returns.

``score_batch`` scores a batch of devices from (B, F) S11, S21 and k on one
frequency grid: the band means, the interpolations at the band edges, f_p,
f_p/2 and 2 f_p, and the mismatch are array operations over the batch, and
each device's result does not depend on the batch.  ``evaluate_metric``,
for a single device, is a batch of one, and ``band_average`` is the 1-D
case of ``band_means``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import DispersionCurve, TwoPortResponse

#: Band-mean magnitude below which the verbatim matching term is capped.
VERBATIM_CAP = 1e-15

MATCHING_MODES = ("verbatim", "direct")


class BandCoverageError(ValueError):
    """A frequency the metric needs lies outside the simulated grid."""


@dataclass(frozen=True)
class MetricConfig:
    """Weights, band and pump frequency for the metric.

    matching_mode is mandatory and must be "verbatim" or "direct".
    band is (f_lo, f_hi) in Hz; pump_freq in Hz.  cutoff, when set, is the
    analysis threshold applied after the sweep.  harmonic_use_s21 switches
    the second-harmonic term to |S21(2 f_p)|; default keeps |S11(2 f_p)|.
    """

    matching_mode: str
    band: tuple[float, float]
    pump_freq: float
    weight_a: float = 10.0
    weight_b: float = 1.0
    weight_c: float = 10.0
    cutoff: float | None = None
    harmonic_use_s21: bool = False

    def __post_init__(self):
        if self.matching_mode not in MATCHING_MODES:
            raise ValueError(
                f"matching_mode must be one of {MATCHING_MODES}, "
                f"got {self.matching_mode!r}"
            )
        lo, hi = self.band
        if not 0 <= lo < hi:
            raise ValueError(f"band must satisfy 0 <= f_lo < f_hi, got {self.band}")
        if not self.pump_freq > 0:
            raise ValueError("pump frequency must be positive")
        for w in (self.weight_a, self.weight_b, self.weight_c):
            if not w > 0:
                raise ValueError("metric weights must be positive")
        if self.cutoff is not None and not self.cutoff > 0:
            raise ValueError("cutoff must be positive when given")


#: A breakdown document's keys in order: the MetricBreakdown fields, with
#: band_mean_s11 split into band_mean_re and band_mean_im.
BREAKDOWN_KEYS = ("matching_term", "phase_term", "harmonic_term", "total",
                  "band_mean_re", "band_mean_im", "delta_k", "matching_capped")


@dataclass(frozen=True)
class MetricBreakdown:
    """Per-term metric values; total is their sum."""

    matching_term: float
    phase_term: float
    harmonic_term: float
    total: float
    band_mean_s11: complex
    delta_k: float
    matching_capped: bool = False

    def to_doc(self) -> dict:
        """The breakdown as a JSON object with the BREAKDOWN_KEYS."""
        s11 = {"band_mean_re": self.band_mean_s11.real,
               "band_mean_im": self.band_mean_s11.imag}
        return {key: s11[key] if key in s11 else getattr(self, key)
                for key in BREAKDOWN_KEYS}

    @classmethod
    def from_doc(cls, doc: dict) -> MetricBreakdown:
        """The breakdown that ``to_doc`` wrote as doc."""
        fields = {key: doc[key] for key in BREAKDOWN_KEYS}
        s11 = complex(fields.pop("band_mean_re"), fields.pop("band_mean_im"))
        return cls(band_mean_s11=s11, **fields)


def band_average(freqs: np.ndarray, values: np.ndarray, band: tuple[float, float]):
    """Trapezoidal mean of sampled values over [f_lo, f_hi], width-normalized.

    Band edges off the grid are handled by linear interpolation; edges must
    lie inside the sampled range.  A batch of one through ``band_means``,
    bit for bit ``np.trapezoid`` of the 1-D samples.
    """
    return band_means(freqs, np.asarray(values)[None], band)[0]


def band_means(freqs, values, band: tuple[float, float]) -> np.ndarray:
    """``band_average`` of every row of (B, F) values on the shared grid.

    The band's abscissae and the edge brackets are found once.  The
    trapezoid terms are np.trapezoid's, elementwise; each row is then summed
    on its own, because a sum along the last axis of the (B, n) terms may
    round differently from the 1-D sum, so a row's mean would depend on B.
    """
    freqs = np.asarray(freqs, dtype=float)
    lo, hi = band
    if not lo < hi:
        raise ValueError(f"band must be ordered, got {band}")
    if lo < freqs[0]:
        raise BandCoverageError(
            f"band edge {lo} Hz below grid start {freqs[0]} Hz"
        )
    if hi > freqs[-1]:
        raise BandCoverageError(
            f"band edge {hi} Hz above grid stop {freqs[-1]} Hz"
        )
    interior = (freqs > lo) & (freqs < hi)
    xs = np.concatenate(([lo], freqs[interior], [hi]))
    ys = np.concatenate((
        _interp_rows(lo, freqs, values)[:, None],
        values[:, interior],
        _interp_rows(hi, freqs, values)[:, None],
    ), axis=1)
    terms = np.diff(xs) * (ys[:, 1:] + ys[:, :-1]) / 2.0
    return np.array([row.sum() for row in terms]) / (hi - lo)


def _interp_rows(x: float, freqs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """np.interp(x, freqs, row) for every row of (B, F) values, bit for bit.

    x must lie in [freqs[0], freqs[-1]] and the values must be finite.  The
    rows share the grid, so they share np.interp's bracket
    freqs[j] <= x < freqs[j + 1] and its formula; an exact grid hit returns
    the sample.  Complex rows are interpolated as real and imaginary parts,
    as ``np.interp`` does.
    """
    if np.iscomplexobj(values):
        return (_interp_rows(x, freqs, values.real)
                + 1j * _interp_rows(x, freqs, values.imag))
    j = int(np.searchsorted(freqs, x, side="right")) - 1
    if j == freqs.size - 1 or freqs[j] == x:
        return values[:, j]
    slope = (values[:, j + 1] - values[:, j]) / (freqs[j + 1] - freqs[j])
    return slope * (x - freqs[j]) + values[:, j]


def _delta_k_rows(freqs, k: np.ndarray, pump_freq: float) -> np.ndarray:
    """|k(f_p) - 2 k(f_p/2)| for every row of (B, F) wavenumbers."""
    freqs = np.asarray(freqs, dtype=float)
    if pump_freq > freqs[-1] or pump_freq / 2.0 < freqs[0]:
        raise BandCoverageError(
            f"pump frequency {pump_freq} Hz not covered by the dispersion grid"
        )
    k_p = _interp_rows(pump_freq, freqs, k)
    k_half = _interp_rows(pump_freq / 2.0, freqs, k)
    return np.abs(k_p - 2.0 * k_half)


def evaluate_metric(
    resp: TwoPortResponse, disp: DispersionCurve, cfg: MetricConfig
) -> MetricBreakdown:
    """Evaluate all three terms; total = matching + phase + harmonic.

    A batch of one through ``score_batch``.
    """
    batch = DispersionCurve(freqs=disp.freqs, k=np.asarray(disp.k)[None])
    (out,) = score_batch(resp.freqs, resp.s11[None], resp.s21[None], batch, cfg)
    return out


def score_batch(freqs, s11: np.ndarray, s21: np.ndarray,
                disp: DispersionCurve, cfg: MetricConfig) -> list[MetricBreakdown]:
    """Breakdowns of B devices with (B, F) S11 and S21 on the shared grid.

    ``disp`` holds their (B, F') wavenumbers on its own grid.  Band means,
    interpolations and the phase mismatch are computed for all rows at
    once; each row's magnitudes use the scalar ``abs`` (np.abs on a complex
    array can differ in the last bit), so a device scores the same bits in
    any batch.
    """
    freqs = np.asarray(freqs, dtype=float)
    means = band_means(freqs, s11, cfg.band)
    dks = _delta_k_rows(disp.freqs, disp.k, cfg.pump_freq)

    f2 = 2.0 * cfg.pump_freq
    if f2 > freqs[-1]:
        raise BandCoverageError(
            f"second harmonic {f2} Hz above grid stop {freqs[-1]} Hz"
        )
    harmonic_source = s21 if cfg.harmonic_use_s21 else s11
    at_2fp = _interp_rows(f2, freqs, harmonic_source)

    out = []
    for mean, dk, value_2fp in zip(means, dks, at_2fp):
        mean, dk = complex(mean), float(dk)
        mag_2fp = abs(complex(value_2fp))
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
        out.append(MetricBreakdown(
            matching_term=matching,
            phase_term=phase,
            harmonic_term=harmonic,
            total=matching + phase + harmonic,
            band_mean_s11=mean,
            delta_k=dk,
            matching_capped=capped,
        ))
    return out
