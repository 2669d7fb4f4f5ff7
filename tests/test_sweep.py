"""Grid enumeration, checkpointed sweep, record analysis."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from oracles import cell_abcd
import twpaopt.network as network_mod
import twpaopt.sweep as sweep_mod
from twpaopt.config import load_config
from twpaopt.metric import MetricBreakdown, MetricConfig
from twpaopt.network import (
    CellConfig,
    CellImmittance,
    ConfigurationError,
    DeviceParams,
    FrequencyGrid,
    build_cells,
    simulate_linear,
)
from twpaopt.snail import kerr_free_flux
from twpaopt.sweep import (
    CSV_COLUMNS,
    DIMENSION_NAMES,
    DIMENSIONS,
    PARAM_COLUMNS,
    GridDimension,
    ParameterGrid,
    SweepConfig,
    SweepRecord,
    build_analysis,
    correlation_matrix,
    device_from_values,
    enumerate_grid,
    evaluate_point,
    filter_by_cutoff,
    load_checkpoint,
    metric_frequency_grid,
    params_as_row,
    read_records_csv,
    run_sweep,
    table_grid,
    weighted_histograms,
    write_records_csv,
)

DESK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "desk.json"

METRIC = MetricConfig(matching_mode="direct", band=(4.75e9, 6.75e9),
                      pump_freq=11.5e9)


def tiny_grid():
    return ParameterGrid((
        GridDimension("A_J", 0.3, 0.6, 0.3),
        GridDimension("rho_Ic", 0.9, 0.9, 0.1),
        GridDimension("alpha", 0.23, 0.23, 0.02),
        GridDimension("t", 9.0, 9.0, 1.0),
        GridDimension("L_load", 1.5, 1.5, 0.5),
        GridDimension("C_load", 1.0, 1.5, 0.5),
        GridDimension("pitch", 2.0, 2.0, 1.0),
    ))


def grid_values(grid, index):
    """Parameter values at a flat grid index, first dimension slowest."""
    return [float(d.values()[i])
            for d, i in zip(grid.dimensions, np.unravel_index(index, grid.shape))]


def tiny_sweep_cfg():
    return SweepConfig(
        cell_count=60,
        freq_grid=FrequencyGrid(0.0, 24e9, 5e7),
        cell=CellConfig(),
    )


def test_table_grid_shape_and_size():
    grid = table_grid()
    assert grid.shape == (11, 11, 2, 20, 2, 2, 2)
    assert grid.size == 38720


def test_grid_dimension_values():
    dim = GridDimension("t", 1.0, 20.0, 1.0)
    assert dim.count == 20
    np.testing.assert_allclose(dim.values(), np.arange(1.0, 21.0), rtol=1e-15)
    with pytest.raises(ValueError):
        GridDimension("t", 1.0, 20.0, 0.0)
    with pytest.raises(ValueError):
        GridDimension("t", 20.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="does not divide"):
        GridDimension("alpha", 0.2, 0.3, 0.06)


def test_parameter_grid_takes_dimensions_in_canonical_order():
    dims = table_grid().dimensions
    assert tuple(d.name for d in dims) == DIMENSION_NAMES
    assert table_grid()["t"] == GridDimension("t", 1.0, 20.0, 1.0)
    with pytest.raises(ValueError, match="are not"):
        ParameterGrid((dims[1], dims[0], *dims[2:]))
    with pytest.raises(ValueError, match="are not"):
        ParameterGrid(dims[:-1])


def test_enumerate_grid_lexicographic_order():
    grid = table_grid()
    points = enumerate_grid(grid, 120)
    assert len(points) == grid.size
    assert points[0] == device_from_values(
        (0.1, 0.5, 0.23, 1.0, 1.5, 1.0, 2.0), 120)
    # Last dimension (pitch) varies fastest.
    assert points[1] == device_from_values(
        (0.1, 0.5, 0.23, 1.0, 1.5, 1.0, 3.0), 120)
    assert points[-1] == device_from_values(
        (0.6, 1.5, 0.25, 20.0, 2.0, 1.5, 3.0), 120)


def test_enumerate_grid_matches_point_values():
    # weighted_histograms bins a record by np.unravel_index of its index.
    grid = load_config(DESK_CONFIG).grid
    points = enumerate_grid(grid, 120)
    assert points == [device_from_values(grid_values(grid, i), 120)
                      for i in range(grid.size)]


def test_multi_index_round_trip():
    grid = tiny_grid()
    for i in range(grid.size):
        mi = np.unravel_index(i, grid.shape)
        flat = 0
        for n, j in zip(grid.shape, mi):
            flat = flat * n + int(j)
        assert flat == i


def test_device_from_values_rounds_pitch():
    dev = device_from_values((0.3, 0.9, 0.23, 9.0, 1.5, 1.0, 3.0), 120)
    assert dev.pitch == 3
    assert dev.cell_count == 120
    near = device_from_values((0.3, 0.9, 0.23, 9.0, 1.5, 1.0, 2.9999999), 120)
    assert type(near.pitch) is int and near.pitch == 3


def test_dimension_table_is_the_device_params_field_order():
    # device_from_values passes the converted values by position.
    fields = [f.name for f in dataclasses.fields(DeviceParams)]
    assert [d.field for d in DIMENSIONS] + ["cell_count"] == fields
    assert tuple(d.name for d in DIMENSIONS) == DIMENSION_NAMES
    assert tuple(d.column for d in DIMENSIONS) == PARAM_COLUMNS


def test_device_values_round_trip_on_the_desk_grid():
    grid = load_config(DESK_CONFIG).grid
    points = enumerate_grid(grid, 120)
    assert len(points) == grid.size
    for p in points:
        row = params_as_row(p)
        assert tuple(map(type, row)) == (float,) * 6 + (int,)
        assert device_from_values(row, 120) == p


def test_metric_frequency_grid_extension():
    base = FrequencyGrid(0.0, 20e9, 1e7)
    extended = metric_frequency_grid(base, 11.5e9)
    assert extended.stop == 24e9
    assert extended.step == base.step
    untouched = metric_frequency_grid(FrequencyGrid(0.0, 30e9, 1e7), 11.5e9)
    assert untouched.stop == 30e9


def test_run_sweep_records_and_determinism(tmp_path):
    grid = tiny_grid()
    records = run_sweep(grid, tiny_sweep_cfg(), METRIC)
    assert [r.index for r in records] == list(range(grid.size))
    assert not any(r.failed for r in records)
    totals = [r.metric_total for r in records]
    assert all(np.isfinite(totals))
    again = run_sweep(grid, tiny_sweep_cfg(), METRIC)
    assert [r.metric_total for r in again] == totals
    # Flux bias is shared across points with equal alpha.
    assert len({r.flux_ext for r in records}) == 1


def test_run_sweep_checkpoint_resume(tmp_path):
    grid = tiny_grid()
    ckpt = tmp_path / "checkpoint.jsonl"
    full = run_sweep(grid, tiny_sweep_cfg(), METRIC, checkpoint_path=ckpt)

    lines = ckpt.read_text().splitlines()
    assert len(lines) == grid.size
    # Simulate an interrupted run: half the records plus a torn final line.
    ckpt.write_text("\n".join(lines[: grid.size // 2]) + "\n{\"index\": 2,")
    seen = []
    resumed = run_sweep(grid, tiny_sweep_cfg(), METRIC, checkpoint_path=ckpt,
                        progress=lambda done, total: seen.append((done, total)))
    assert seen == [(done, grid.size)
                    for done in range(grid.size // 2 + 1, grid.size + 1)]
    assert [r.metric_total for r in resumed] == [r.metric_total for r in full]

    done = load_checkpoint(ckpt, enumerate_grid(grid, 60))
    assert sorted(done) == list(range(grid.size))


def test_run_sweep_flags_failures_without_aborting(tmp_path, monkeypatch):
    grid = tiny_grid()
    sweep_cfg = tiny_sweep_cfg()
    # The batched sweep scores each batch through score_batch; a batch
    # holding the poisoned row, recognised by its S11 (which does not
    # depend on the batch), raises, and the sweep redoes its points alone.
    target = next(p for p in enumerate_grid(grid, sweep_cfg.cell_count)
                  if p.junction_area == 0.3 and p.capacitance_load_ratio == 1.0)
    target_s11 = simulate_linear(
        target, kerr_free_flux(target.alpha),
        metric_frequency_grid(sweep_cfg.freq_grid, METRIC.pump_freq),
        sweep_cfg.cell).s11
    real = sweep_mod.score_batch

    def poisoned(freqs, s11, s21, disp, metric_cfg):
        if any(np.array_equal(row, target_s11) for row in s11):
            raise RuntimeError("injected failure")
        return real(freqs, s11, s21, disp, metric_cfg)

    monkeypatch.setattr(sweep_mod, "score_batch", poisoned)
    records = run_sweep(grid, sweep_cfg, METRIC)
    failed = [r for r in records if r.failed]
    assert len(failed) == 1
    assert failed[0].metric_total == np.inf
    assert "injected failure" in failed[0].error
    assert sum(not r.failed for r in records) == grid.size - 1


def mixed_grid():
    """24 points over both pitches: one full chunk and a partial one."""
    return ParameterGrid((
        GridDimension("A_J", 0.3, 0.6, 0.3),
        GridDimension("rho_Ic", 0.9, 0.9, 0.1),
        GridDimension("alpha", 0.23, 0.25, 0.02),
        GridDimension("t", 3.0, 9.0, 6.0),
        GridDimension("L_load", 1.5, 1.5, 0.5),
        GridDimension("C_load", 1.0, 1.5, 0.5),
        GridDimension("pitch", 2.0, 3.0, 1.0),
    ))


def record_fields(rec):
    """Every record field but the wall time, floats exactly (repr)."""
    return (rec.index, rec.params, repr(rec.flux_ext), repr(rec.breakdown),
            rec.failed, rec.error)


def pump_in_stopband(params, flux, sweep_cfg):
    unloaded, loaded = (
        CellImmittance(cell.series_inductance[0], cell.shunt_capacitance[0])
        for cell in build_cells([params], [flux], sweep_cfg.cell))
    macro = np.linalg.matrix_power(
        cell_abcd(unloaded, METRIC.pump_freq), params.pitch - 1)
    macro = macro @ cell_abcd(loaded, METRIC.pump_freq)
    return abs(0.5 * (macro[0, 0] + macro[1, 1]).real) > 1.0


def test_batched_sweep_matches_single_points():
    grid, sweep_cfg = mixed_grid(), tiny_sweep_cfg()
    assert grid.size > sweep_mod.CHUNK_POINTS
    records = run_sweep(grid, sweep_cfg, METRIC)
    assert not any(r.failed for r in records)
    assert {r.params.pitch for r in records[:sweep_mod.CHUNK_POINTS]} == {2, 3}
    assert any(pump_in_stopband(r.params, r.flux_ext, sweep_cfg)
               for r in records)
    assert not all(pump_in_stopband(r.params, r.flux_ext, sweep_cfg)
                   for r in records)
    for rec in records:
        single = evaluate_point(rec.params, rec.flux_ext, sweep_cfg, METRIC)
        assert repr(rec.breakdown) == repr(single)
    # Chunks mapped over worker processes give the same records.
    pooled = run_sweep(grid, sweep_cfg, METRIC, workers=2)
    assert list(map(record_fields, pooled)) == list(map(record_fields, records))


def test_batch_failure_fails_one_point_with_its_own_error(monkeypatch):
    grid, sweep_cfg = mixed_grid(), tiny_sweep_cfg()
    real = network_mod.build_cells

    def poisoned(devices, fluxes, cell_cfg):
        if any(p.junction_area == 0.6 and p.dielectric_thickness == 3.0
               for p in devices):
            raise ConfigurationError("injected cell failure")
        return real(devices, fluxes, cell_cfg)

    monkeypatch.setattr(network_mod, "build_cells", poisoned)
    records = run_sweep(grid, sweep_cfg, METRIC)
    failed = [r for r in records if r.failed]
    assert len(failed) == 8  # both alphas, load ratios and pitches
    for rec in failed:
        with pytest.raises(ConfigurationError) as exc:
            evaluate_point(rec.params, rec.flux_ext, sweep_cfg, METRIC)
        assert rec.error == f"ConfigurationError: {exc.value}"
    monkeypatch.undo()
    clean = run_sweep(grid, sweep_cfg, METRIC)
    for rec, ref in zip(records, clean):
        if not rec.failed:
            assert record_fields(rec) == record_fields(ref)


def test_resume_inside_a_chunk_is_bitwise_equal(tmp_path):
    grid, sweep_cfg = mixed_grid(), tiny_sweep_cfg()
    ckpt = tmp_path / "checkpoint.jsonl"
    full = run_sweep(grid, sweep_cfg, METRIC, checkpoint_path=ckpt)
    lines = ckpt.read_text().splitlines()
    assert len(lines) == grid.size

    # Interrupted five records into the second chunk, mid-way through a line.
    cut = sweep_mod.CHUNK_POINTS + 5
    ckpt.write_text("\n".join(lines[:cut]) + "\n" + lines[cut][:30])
    seen = []
    resumed = run_sweep(grid, sweep_cfg, METRIC, checkpoint_path=ckpt,
                        progress=lambda done, _total: seen.append(done))
    assert seen == list(range(cut + 1, grid.size + 1))
    assert list(map(record_fields, resumed)) == list(map(record_fields, full))
    reloaded = load_checkpoint(ckpt, enumerate_grid(grid, sweep_cfg.cell_count))
    assert [record_fields(reloaded[i]) for i in range(grid.size)] == list(
        map(record_fields, full))


def test_records_csv_round_trip(tmp_path):
    grid = tiny_grid()
    records = run_sweep(grid, tiny_sweep_cfg(), METRIC)
    records.append(fake_record(3, mixed_grid(), 0.0, failed=True))
    path = tmp_path / "records.csv"
    write_records_csv(path, records)

    header = path.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)

    rows = read_records_csv(path)
    assert len(rows) == grid.size + 1
    for rec, (params, total, failed) in zip(records, rows):
        assert failed == rec.failed
        assert total == rec.metric_total  # 17 significant digits round-trip
        assert list(params) == list(DIMENSION_NAMES)
        assert tuple(params.values()) == sweep_mod.params_as_row(rec.params)
    assert rows[-1][1:] == (np.inf, True)
    # The failed row's parameters differ from every clean row's in t and pitch.
    assert (rows[-1][0]["t"], rows[-1][0]["pitch"]) == (3.0, 3.0)


def test_read_records_csv_rejects_a_short_row(tmp_path):
    path = tmp_path / "records.csv"
    write_records_csv(path, run_sweep(tiny_grid(), tiny_sweep_cfg(), METRIC))
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = lines[2][:lines[2].rindex(",")] + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: 14 columns")):
        read_records_csv(path)


def test_checkpoint_lines_are_pinned():
    params = device_from_values((0.3, 0.9, 0.23, 9.0, 1.5, 1.0, 2.0), 60)
    clean = SweepRecord(
        index=5, params=params, flux_ext=0.375, failed=False, wall_time=0.25,
        breakdown=MetricBreakdown(
            matching_term=1.5, phase_term=0.125, harmonic_term=2.0,
            total=3.625, band_mean_s11=complex(-0.5, 0.75), delta_k=0.01,
            matching_capped=True))
    failed = SweepRecord(
        index=6, params=params, flux_ext=0.375, breakdown=None, failed=True,
        error="SimulationError: S21 is not finite", wall_time=0.5)
    lines = [sweep_mod._checkpoint_line(rec) for rec in (clean, failed)]
    assert lines == [
        '{"index": 5, "flux_ext": 0.375, "failed": false, "error": "", '
        '"wall_time": 0.25, "breakdown": {"matching_term": 1.5, '
        '"phase_term": 0.125, "harmonic_term": 2.0, "total": 3.625, '
        '"band_mean_re": -0.5, "band_mean_im": 0.75, "delta_k": 0.01, '
        '"matching_capped": true}}',
        '{"index": 6, "flux_ext": 0.375, "failed": true, '
        '"error": "SimulationError: S21 is not finite", "wall_time": 0.5}',
    ]
    for rec, line in zip((clean, failed), lines):
        assert sweep_mod._record_from_checkpoint(json.loads(line), params) == rec


def test_read_records_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_records_csv(path)


def fake_record(index, grid, total, failed=False):
    values = grid_values(grid, index)
    breakdown = None
    if not failed:
        breakdown = MetricBreakdown(
            matching_term=total, phase_term=0.0, harmonic_term=0.0,
            total=total, band_mean_s11=0j, delta_k=0.0)
    return SweepRecord(
        index=index,
        params=device_from_values(values, 60),
        flux_ext=0.38,
        breakdown=breakdown,
        failed=failed,
    )


def test_filter_by_cutoff_excludes_failures():
    grid = tiny_grid()
    records = [fake_record(0, grid, 1.0), fake_record(1, grid, 80.0),
               fake_record(2, grid, 5.0, failed=True)]
    surviving = filter_by_cutoff(records, 50.0)
    assert [r.index for r in surviving] == [0]
    with pytest.raises(ValueError):
        filter_by_cutoff(records, 0.0)


def test_correlation_matrix_against_numpy():
    grid = table_grid()
    rng = np.random.default_rng(7)
    idx = rng.choice(grid.size, size=200, replace=False)
    records = [fake_record(int(i), grid, 1.0) for i in idx]
    corr, flags = correlation_matrix(records)
    assert flags == []  # every dimension varies in a random subset this large
    data = np.array([sweep_mod.params_as_row(r.params) for r in records])
    expected = np.corrcoef(data, rowvar=False)
    np.testing.assert_allclose(corr, expected, atol=1e-12)
    np.testing.assert_allclose(np.diag(corr), 1.0, rtol=0)


def test_correlation_matrix_constant_dimension_convention():
    grid = tiny_grid()
    records = [fake_record(i, grid, 1.0 + i) for i in range(grid.size)]
    corr, flags = correlation_matrix(records)
    # Only A_J and C_load vary on the tiny grid.
    assert set(flags) == {"rho_Ic", "alpha", "t", "L_load", "pitch"}
    for name in flags:
        i = DIMENSION_NAMES.index(name)
        row = np.delete(corr[i], i)
        np.testing.assert_array_equal(row, 0.0)
        assert corr[i, i] == 1.0


def test_weighted_histograms_mass_balance():
    grid = tiny_grid()
    totals = [2.0, 4.0, 8.0, 16.0]
    records = [fake_record(i, grid, t) for i, t in enumerate(totals)]
    histograms, excluded = weighted_histograms(grid, records)
    assert excluded == 0
    expected_mass = sum(1.0 / t for t in totals)
    for hist in histograms:
        assert sum(hist["weights"]) == pytest.approx(expected_mass, rel=1e-12)
    # A_J axis: indices 0,1 sit at 0.3 and indices 2,3 at 0.6.
    a_j = next(h for h in histograms if h["name"] == "A_J")
    assert a_j["weights"][0] == pytest.approx(1 / 2.0 + 1 / 4.0, rel=1e-12)
    assert a_j["weights"][1] == pytest.approx(1 / 8.0 + 1 / 16.0, rel=1e-12)


def test_weighted_histograms_excludes_nonpositive():
    grid = tiny_grid()
    records = [fake_record(0, grid, -3.0), fake_record(1, grid, 2.0),
               fake_record(2, grid, 4.0, failed=True)]
    histograms, excluded = weighted_histograms(grid, records)
    assert excluded == 1  # the failed record carries infinite metric instead
    for hist in histograms:
        assert sum(hist["weights"]) == pytest.approx(0.5, rel=1e-12)


def test_weighted_histograms_equal_the_per_record_sums_on_the_desk_grid():
    # Shuffled records over the whole desk grid, some excluded (non-positive
    # metric) and some failed (infinite metric), against the sums taken one
    # record and one axis at a time in record order: the weights must agree
    # bit for bit, so stage1_analysis.json does not depend on how they are
    # summed.
    grid = load_config(DESK_CONFIG).grid
    rng = np.random.default_rng(3)
    totals = rng.lognormal(1.0, 1.5, size=grid.size)
    totals[rng.choice(grid.size, 40, replace=False)] *= -1.0
    totals[rng.choice(grid.size, 5, replace=False)] = 0.0
    failed = set(rng.choice(grid.size, 30, replace=False).tolist())
    records = [fake_record(int(i), grid, totals[i], failed=i in failed)
               for i in rng.permutation(grid.size)]

    expected = [np.zeros(d.count) for d in grid.dimensions]
    expected_excluded = 0
    for r in records:
        if r.metric_total <= 0:
            expected_excluded += 1
            continue
        for axis, i in enumerate(np.unravel_index(r.index, grid.shape)):
            expected[axis][i] += 1.0 / r.metric_total

    histograms, excluded = weighted_histograms(grid, records)
    assert excluded == expected_excluded
    assert [h["name"] for h in histograms] == list(DIMENSION_NAMES)
    for hist, weights in zip(histograms, expected):
        assert hist["weights"] == [float(w) for w in weights]


def test_build_analysis_cutoff_and_fallback():
    grid = tiny_grid()
    records = [fake_record(i, grid, 10.0 ** i) for i in range(grid.size)]
    report = build_analysis(grid, records, cutoff=500.0)
    assert report.filtered_count == 3
    assert report.cutoff == 500.0
    doc = report.to_document()
    assert doc["dimensions"] == list(DIMENSION_NAMES)
    assert len(doc["correlation"]) == len(DIMENSION_NAMES)

    # A cutoff below every record falls back to all non-failed records,
    # and the report records no cutoff.
    fallback = build_analysis(grid, records, cutoff=0.5)
    assert fallback.filtered_count == grid.size
    assert fallback.cutoff is None
    assert fallback.to_document()["cutoff"] is None
    assert build_analysis(grid, records, None).cutoff is None

    with pytest.raises(ValueError):
        build_analysis(grid, [fake_record(0, grid, 1.0, failed=True)], None)
