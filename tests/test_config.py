"""Config loading: closed schema, unit conversion, defaults."""

import json
import re
from pathlib import Path

import pytest

from twpaopt.cli import main
from twpaopt.config import ConfigError, load_config, parse_config
from twpaopt.sweep import table_grid

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def minimal_doc(**overrides):
    doc = {
        "output_dir": "out",
        "cell_count": 120,
        "frequency": {"stop_ghz": 24.0, "step_ghz": 0.05},
        "metric": {"matching_mode": "direct"},
    }
    doc.update(overrides)
    return doc


def test_minimal_document_fills_defaults():
    cfg = parse_config(minimal_doc())
    assert cfg.cell_count == 120
    assert cfg.freq_grid.start == 0.0
    assert cfg.freq_grid.stop == 24.0e9
    assert cfg.freq_grid.step == 0.05e9
    assert cfg.metric.band == (4.75e9, 6.75e9)
    assert cfg.metric.pump_freq == 11.5e9
    assert (cfg.metric.weight_a, cfg.metric.weight_b,
            cfg.metric.weight_c) == (10.0, 1.0, 10.0)
    assert cfg.metric.cutoff is None
    assert cfg.cell.pad_area == 30.0
    assert cfg.cell.rel_permittivity == 9.8
    assert cfg.cell.ref_impedance == 50.0
    assert cfg.bo_budget == 200
    assert cfg.bo_seed == 0
    # Omitted grid section falls back to the full sweep table.
    assert cfg.grid.shape == table_grid().shape


def test_drive_defaults_follow_metric_band():
    cfg = parse_config(minimal_doc(
        metric={"matching_mode": "direct", "band_ghz": [5.0, 7.0]}))
    assert cfg.drive.signal_band == (5.0e9, 7.0e9)
    assert cfg.drive.signal_step == 0.05e9
    assert cfg.drive.pump_amplitudes_ua == tuple(
        pytest.approx(0.1 + 0.05 * i) for i in range(9))
    assert cfg.drive.flux_phi0 is None


def test_ghz_to_hz_conversion_happens_once():
    cfg = parse_config(minimal_doc(
        metric={"matching_mode": "verbatim", "pump_freq_ghz": 12.0},
        drive={"signal_band_ghz": [5.0, 6.0], "signal_step_ghz": 0.1},
    ))
    assert cfg.metric.pump_freq == 12.0e9
    assert cfg.drive.signal_band == (5.0e9, 6.0e9)
    assert cfg.drive.signal_step == 0.1e9


def test_partial_grid_overrides_single_dimension():
    cfg = parse_config(minimal_doc(
        grid={"alpha": {"min": 0.2, "max": 0.3, "step": 0.05}}))
    assert cfg.grid["alpha"].count == 3
    assert cfg.grid["A_J"] == table_grid()["A_J"]


@pytest.mark.parametrize("doc, needle", [
    (minimal_doc(extra_key=1), "extra_key"),
    (minimal_doc(metric={"matching_mode": "direct", "bogus": 2}),
     "metric.bogus"),
    (minimal_doc(grid={"A_J": {"min": 0.1, "max": 0.6, "step": 0.05,
                               "typo": 1}}), "grid.A_J.typo"),
])
def test_unknown_keys_are_rejected_with_dotted_path(doc, needle):
    with pytest.raises(ConfigError, match=needle.replace(".", r"\.")):
        parse_config(doc)


@pytest.mark.parametrize("missing", ["output_dir", "cell_count",
                                     "frequency", "metric"])
def test_missing_required_keys(missing):
    doc = minimal_doc()
    if missing in ("frequency", "metric"):
        # Section present but its required leaf removed.
        doc[missing] = {}
    else:
        del doc[missing]
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_type_errors_carry_path():
    with pytest.raises(ConfigError, match="cell_count"):
        parse_config(minimal_doc(cell_count="many"))
    with pytest.raises(ConfigError, match=r"frequency\.stop_ghz"):
        parse_config(minimal_doc(
            frequency={"stop_ghz": True, "step_ghz": 0.05}))


def test_semantic_validation():
    with pytest.raises(ConfigError, match="matching_mode"):
        parse_config(minimal_doc(metric={"matching_mode": "fancy"}))
    with pytest.raises(ConfigError, match="metric"):
        parse_config(minimal_doc(
            metric={"matching_mode": "direct", "band_ghz": [7.0, 5.0]}))
    with pytest.raises(ConfigError, match=r"drive\.signal_band_ghz"):
        parse_config(minimal_doc(
            drive={"signal_band_ghz": [5.0, 13.0]}))
    with pytest.raises(ConfigError, match="pump_amplitudes_ua"):
        parse_config(minimal_doc(
            drive={"pump_amplitudes_ua": [0.1, -0.2]}))
    with pytest.raises(ConfigError, match=r"bayesopt\.budget"):
        parse_config(minimal_doc(bayesopt={"budget": 0}))
    with pytest.raises(ConfigError, match="cell_count"):
        parse_config(minimal_doc(cell_count=-5))


@pytest.mark.parametrize("dim, message", [
    ({"min": 0.3, "max": 0.6, "step": 0}, "grid.A_J: step must be positive"),
    ({"min": 0.2, "max": 0.3, "step": 0.06},
     "grid.A_J: step 0.06 does not divide max - min"),
])
def test_grid_dimension_errors_are_config_errors(tmp_path, capsys, dim,
                                                 message):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(minimal_doc(grid={"A_J": dim})))
    with pytest.raises(ConfigError, match=message):
        load_config(path)
    assert main(["stage1", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


@pytest.mark.parametrize("overrides, message", [
    ({"drive": {"signal_step_ghz": 0}},
     "drive.signal_step_ghz: must be positive, got 0.0"),
    ({"drive": {"flux_phi0": 1.5}},
     r"drive.flux_phi0: flux bias must be in \[0, 1\) Phi0, got 1.5"),
    ({"frequency": {"start_ghz": 1.0, "stop_ghz": 24.0, "step_ghz": 0.05}},
     "frequency.start_ghz: must be 0: dispersion is unwrapped from DC, "
     "got 1.0"),
], ids=["signal_step", "flux_phi0", "start_above_dc"])
def test_values_a_stage_would_reject_fail_at_load(tmp_path, capsys,
                                                  overrides, message):
    path = tmp_path / "late.json"
    path.write_text(json.dumps(minimal_doc(**overrides)))
    with pytest.raises(ConfigError, match=message):
        load_config(path)
    assert main(["pipeline", "--config", str(path)]) == 2
    assert re.match("config error: " + message, capsys.readouterr().err)


def test_shipped_grids_divide_their_ranges():
    for name in ("desk.json", "full_table.json"):
        load_config(CONFIGS / name)
    assert table_grid().size == 38720


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "output_dir": "x",\n  dangling\n}\n')
    with pytest.raises(ConfigError, match=r"line 3"):
        load_config(path)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(minimal_doc()))
    cfg = load_config(path)
    assert cfg == parse_config(minimal_doc())
