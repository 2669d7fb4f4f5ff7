"""Scalar metric: band averaging, phase mismatch, mode arithmetic."""

from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    per_device_band_average,
    per_device_breakdown,
    trapezoid_band_mean,
)
from twpaopt.metric import (
    BandCoverageError,
    MetricConfig,
    VERBATIM_CAP,
    band_average,
    band_means,
    evaluate_metric,
    score_batch,
    _delta_k_rows,
    _interp_rows,
)
from twpaopt.network import DispersionCurve, TwoPortResponse

BAND = (4.75e9, 6.75e9)
PUMP = 11.5e9


def flat_response(freqs, s11):
    s11 = np.asarray(s11, dtype=complex)
    s21 = np.sqrt(np.maximum(1.0 - np.abs(s11) ** 2, 0.0)).astype(complex)
    return TwoPortResponse(freqs=freqs, s11=s11, s21=s21, s12=s21,
                           s22=s11.copy())


def synthetic_pair(mean_s11, dk, mag_2fp):
    """Response + dispersion hitting exact metric inputs.

    S11 is mean_s11 across the band with a linear rise toward mag_2fp at
    2 f_p; the dispersion is piecewise linear with the requested mismatch
    at the pump.
    """
    freqs = np.array([0.0, 4.0e9, BAND[0], BAND[1], 7.0e9,
                      2.0 * PUMP, 25.0e9])
    s11 = np.array([0.0, mean_s11, mean_s11, mean_s11, mean_s11,
                    mag_2fp, mag_2fp], dtype=complex)
    resp = flat_response(freqs, s11)
    disp = DispersionCurve(
        freqs=np.array([0.0, PUMP / 2.0, PUMP, 25.0e9]),
        k=np.array([0.0, 1.0, 2.0 + dk, 4.0]),
    )
    return resp, disp


@pytest.mark.parametrize(
    "mode,expected",
    [("verbatim", 100.0 + 0.01 + 9.0), ("direct", 1.0 + 0.01 + 9.0)],
)
def test_metric_reference_arithmetic(mode, expected):
    # |mean S11| = 0.1, delta k = 0.01, |S11(2 f_p)| = 0.9, a = c = 10, b = 1:
    # verbatim 10/0.1 + 0.01 + 9 = 109.01, direct 10*0.1 + 0.01 + 9 = 10.01.
    resp, disp = synthetic_pair(0.1, 0.01, 0.9)
    cfg = MetricConfig(matching_mode=mode, band=BAND, pump_freq=PUMP)
    out = evaluate_metric(resp, disp, cfg)
    assert out.total == pytest.approx(expected, abs=1e-12)
    assert not out.matching_capped


def test_metric_second_arithmetic_case():
    resp, disp = synthetic_pair(0.2, 0.3, 0.05)
    direct = MetricConfig(matching_mode="direct", band=BAND, pump_freq=PUMP)
    verbatim = MetricConfig(matching_mode="verbatim", band=BAND,
                            pump_freq=PUMP)
    assert evaluate_metric(resp, disp, direct).total == pytest.approx(
        10.0 * 0.2 + 0.3 + 10.0 * 0.05, abs=1e-12)
    assert evaluate_metric(resp, disp, verbatim).total == pytest.approx(
        10.0 / 0.2 + 0.3 + 10.0 * 0.05, abs=1e-12)


def test_metric_custom_weights():
    resp, disp = synthetic_pair(0.1, 0.01, 0.9)
    cfg = MetricConfig(matching_mode="direct", band=BAND, pump_freq=PUMP,
                       weight_a=2.0, weight_b=5.0, weight_c=1.0)
    out = evaluate_metric(resp, disp, cfg)
    assert out.total == pytest.approx(2.0 * 0.1 + 5.0 * 0.01 + 0.9, abs=1e-12)


def test_verbatim_cap_on_perfect_match():
    resp, disp = synthetic_pair(0.0, 0.01, 0.9)
    cfg = MetricConfig(matching_mode="verbatim", band=BAND, pump_freq=PUMP)
    out = evaluate_metric(resp, disp, cfg)
    assert out.matching_capped
    assert out.matching_term == pytest.approx(10.0 / VERBATIM_CAP)


def test_harmonic_term_can_use_s21():
    resp, disp = synthetic_pair(0.1, 0.01, 0.9)
    cfg = MetricConfig(matching_mode="direct", band=BAND, pump_freq=PUMP,
                       harmonic_use_s21=True)
    out = evaluate_metric(resp, disp, cfg)
    mag = abs(np.interp(2.0 * PUMP, resp.freqs, resp.s21.real))
    assert out.harmonic_term == pytest.approx(10.0 * mag, rel=1e-12)


def test_band_average_of_linear_function_is_midpoint():
    freqs = np.linspace(0.0, 10e9, 11)
    values = 3.0 * freqs + 1.0
    lo, hi = 2.3e9, 7.9e9  # off-grid edges exercise the interpolation
    avg = band_average(freqs, values, (lo, hi))
    assert avg == pytest.approx(3.0 * (lo + hi) / 2.0 + 1.0, rel=1e-12)


def test_band_average_complex_against_dense_resampling():
    rng = np.random.default_rng(3)
    freqs = np.linspace(0.0, 10e9, 41)
    values = rng.normal(size=41) + 1j * rng.normal(size=41)
    got = band_average(freqs, values, BAND)
    ref = trapezoid_band_mean(freqs, values, *BAND)
    assert got == pytest.approx(ref, rel=1e-9)


def test_band_average_coverage_errors():
    freqs = np.linspace(5e9, 10e9, 6)
    with pytest.raises(BandCoverageError):
        band_average(freqs, np.ones(6), (4e9, 6e9))
    with pytest.raises(BandCoverageError):
        band_average(freqs, np.ones(6), (6e9, 11e9))
    with pytest.raises(ValueError):
        band_average(freqs, np.ones(6), (7e9, 6e9))


def test_delta_k_linear_dispersion_is_zero():
    freqs, k = np.linspace(0.0, 20e9, 21), np.linspace(0.0, 2.0, 21)
    assert _delta_k_rows(freqs, k[None], 10e9)[0] == 0.0


def test_delta_k_coverage_error():
    freqs, k = np.linspace(0.0, 8e9, 9), np.linspace(0.0, 1.0, 9)
    with pytest.raises(BandCoverageError):
        _delta_k_rows(freqs, k[None], PUMP)


def test_second_harmonic_must_be_on_grid():
    freqs = np.linspace(0.0, 12e9, 13)
    resp = flat_response(freqs, 0.1 * np.ones(13))
    disp = DispersionCurve(freqs=freqs, k=np.linspace(0.0, 1.2, 13))
    cfg = MetricConfig(matching_mode="direct", band=BAND, pump_freq=PUMP)
    with pytest.raises(BandCoverageError):
        evaluate_metric(resp, disp, cfg)


def test_metric_config_validation():
    with pytest.raises(ValueError):
        MetricConfig(matching_mode="both", band=BAND, pump_freq=PUMP)
    with pytest.raises(ValueError):
        MetricConfig(matching_mode="direct", band=(6e9, 5e9), pump_freq=PUMP)
    with pytest.raises(ValueError):
        MetricConfig(matching_mode="direct", band=BAND, pump_freq=PUMP,
                     weight_b=0.0)
    with pytest.raises(ValueError):
        MetricConfig(matching_mode="direct", band=BAND, pump_freq=PUMP,
                     cutoff=-1.0)


def test_reference_device_frozen_breakdown(ref_breakdown):
    b = ref_breakdown
    assert abs(b.band_mean_s11) == pytest.approx(0.07945868817682537,
                                                 rel=1e-12)
    assert b.delta_k == pytest.approx(0.011615105639330325, rel=1e-12)
    assert b.matching_term == pytest.approx(0.7945868817682537, rel=1e-12)
    # 2 f_p = 23 GHz sits in a stopband: total reflection.
    assert b.harmonic_term == pytest.approx(10.0, abs=1e-9)
    assert b.total == pytest.approx(10.806201987407592, rel=1e-12)
    assert not b.matching_capped


def test_reference_device_verbatim_total(ref_response, ref_dispersion):
    cfg = MetricConfig(matching_mode="verbatim", band=BAND, pump_freq=PUMP)
    out = evaluate_metric(ref_response, ref_dispersion, cfg)
    assert out.total == pytest.approx(135.86317683475133, rel=1e-12)


def test_band_mean_s11_matches_band_average(ref_response, ref_breakdown):
    direct = band_average(ref_response.freqs, ref_response.s11, BAND)
    assert ref_breakdown.band_mean_s11 == complex(direct)


def score_rows(batch, rows, cfg):
    s11, s21 = (s[rows] for s in batch.sparams[:2])
    return score_batch(batch.freqs, s11, s21,
                       DispersionCurve(freqs=batch.freqs, k=batch.k[rows]), cfg)


@pytest.mark.parametrize("pitch", [2, 3])
@pytest.mark.parametrize("mode, use_s21", [("direct", False),
                                           ("verbatim", True)])
def test_score_batch_is_each_device_alone_bit_for_bit(pitch, mode, use_s21,
                                                      desk_batch):
    # repr of a breakdown shows every float exactly, and its type.
    batch = desk_batch(pitch)
    cfg = replace(batch.cfg.metric, matching_mode=mode,
                  harmonic_use_s21=use_s21)
    scores = score_rows(batch, slice(None), cfg)
    assert len(scores) == 16
    s11, s21 = batch.sparams[:2]
    for row, got in enumerate(scores):
        want = per_device_breakdown(batch.freqs, s11[row], s21[row],
                                    batch.freqs, batch.k[row], cfg)
        assert repr(got) == repr(want)
        assert repr(score_rows(batch, [row], cfg)) == repr([got])
        resp = TwoPortResponse(batch.freqs, *(s[row] for s in batch.sparams))
        disp = DispersionCurve(freqs=batch.freqs, k=batch.k[row])
        assert repr(evaluate_metric(resp, disp, cfg)) == repr(got)


def test_shared_bracket_interpolation_is_np_interp_bit_for_bit():
    rng = np.random.default_rng(5)
    for n in (2, 7, 481):
        freqs = np.sort(rng.uniform(0.0, 24e9, n))
        values = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
        xs = [*freqs, *(0.5 * (freqs[1:] + freqs[:-1])),
              *rng.uniform(freqs[0], freqs[-1], 50)]
        for x in xs:
            got = _interp_rows(x, freqs, values)
            for row in range(4):
                want = (np.interp(x, freqs, values[row].real)
                        + 1j * np.interp(x, freqs, values[row].imag))
                assert got[row].tobytes() == want.tobytes()


def test_band_means_are_the_1d_trapezoid_bit_for_bit():
    rng = np.random.default_rng(11)
    freqs = np.sort(rng.uniform(0.0, 20e9, 97))
    values = rng.normal(size=(5, 97)) + 1j * rng.normal(size=(5, 97))
    # Off-grid edges, edges on grid points, and the grid's own end points.
    bands = [(4.75e9, 6.75e9), (freqs[10], freqs[60]), (freqs[0], freqs[-1]),
             (freqs[3], 19.3e9)]
    for band in bands:
        means = band_means(freqs, values, band)
        for row in range(5):
            for v in (values[row], values[row].real):
                want = per_device_band_average(freqs, v, band)
                got = band_average(freqs, v, band)
                assert type(got) is type(want)
                assert got.tobytes() == want.tobytes()
            assert means[row].tobytes() == per_device_band_average(
                freqs, values[row], band).tobytes()


def test_score_batch_coverage_errors_still_raise():
    freqs = np.linspace(0.0, 12e9, 13)
    s = np.full((3, 13), 0.1 + 0j)
    disp = DispersionCurve(freqs=freqs,
                           k=np.tile(np.linspace(0.0, 1.0, 13), (3, 1)))
    cfg = MetricConfig(matching_mode="direct", band=BAND, pump_freq=PUMP)
    with pytest.raises(BandCoverageError, match="second harmonic"):
        score_batch(freqs, s, s, disp, cfg)
    with pytest.raises(BandCoverageError, match="band edge"):
        score_batch(freqs, s, s, disp, replace(cfg, band=(4e9, 13e9)))
    short = DispersionCurve(freqs=freqs[:8], k=disp.k[:, :8])
    with pytest.raises(BandCoverageError, match="pump frequency"):
        score_batch(freqs, s, s, short, cfg)
