"""End-to-end CLI runs on a two-point config, exit codes, resume logic."""

import json

import pytest
from conftest import mini_config_doc

from twpaopt.cli import WORKERS_ENV, main, resolve_workers
from twpaopt.config import ConfigError, load_config, parse_config
from twpaopt.pipeline import _resolve_stage3_flux, prepare_run_dir

EXPECTED_FILES = (
    "config.json",
    "manifest.json",
    "stage1_records.csv",
    "stage1_analysis.json",
    "stage1_checkpoint.jsonl",
    "optimize_trace.csv",
    "pstar.json",
    "pstar.s2p",
    "working_points.csv",
    "qstar.json",
    "gain_profile_001.csv",
    "gain_profile_002.csv",
    "report/dispersion.csv",
    "report/correlation.csv",
    "report/histograms.csv",
    "report/gain_qstar.csv",
)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """One complete mini pipeline run shared by the read-only tests."""
    base = tmp_path_factory.mktemp("cli")
    run_dir = base / "run"
    config_path = base / "mini.json"
    config_path.write_text(json.dumps(mini_config_doc(run_dir)))
    assert main(["pipeline", "--config", str(config_path)]) == 0
    return config_path, run_dir


def test_pipeline_produces_all_artifacts(finished_run):
    _, run_dir = finished_run
    missing = [n for n in EXPECTED_FILES if not (run_dir / n).exists()]
    assert missing == []
    assert not (run_dir / "lock").exists()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    statuses = {n: s["status"] for n, s in manifest["stages"].items()}
    assert statuses == {"stage1": "complete", "optimize": "complete",
                        "stage3": "complete", "report": "complete"}
    assert manifest["stages"]["stage1"]["grid_points"] == 2
    assert manifest["stages"]["stage1"]["failed_points"] == 0


def test_pipeline_resume_skips_completed_stages(finished_run, capsys):
    config_path, run_dir = finished_run
    stage1 = run_dir / "stage1_records.csv"
    mtime_before = stage1.stat().st_mtime_ns
    pstar_before = (run_dir / "pstar.json").read_bytes()
    capsys.readouterr()
    assert main(["pipeline", "--config", str(config_path)]) == 0
    assert stage1.stat().st_mtime_ns == mtime_before
    assert (run_dir / "pstar.json").read_bytes() == pstar_before
    out = capsys.readouterr().out
    assert out.count(": complete") == 4


def test_stage3_accepts_explicit_pstar(finished_run, capsys):
    config_path, run_dir = finished_run
    rc = main(["stage3", "--config", str(config_path),
               "--pstar", str(run_dir / "pstar.json")])
    assert rc == 0
    assert "q* pump amplitude" in capsys.readouterr().out


def test_stage3_records_a_failed_drive_point(mini_config):
    # 5 uA is xi 4.6 on the mini p*: outside [0, 1), so it scores -inf and
    # writes no profile, and q* points at the third drive's profile.
    config_path, run_dir = mini_config(drive={
        "pump_amplitudes_ua": [0.1, 5.0, 0.3],
        "signal_band_ghz": [4.75, 6.75],
        "signal_step_ghz": 0.25,
    })
    assert main(["pipeline", "--config", str(config_path)]) == 0

    rows = [row.split(",") for row in
            (run_dir / "working_points.csv").read_text().splitlines()]
    assert rows[0] == ["pump_amplitude_uA", "flux_phi0", "performance_dB"]
    assert [row[0] for row in rows[1:]] == ["0.10000000000000001", "5",
                                            "0.29999999999999999"]
    assert rows[2][2] == "-inf"
    assert 0 < float(rows[1][2]) < float(rows[3][2])
    assert not (run_dir / "gain_profile_002.csv").exists()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["stages"]["stage3"]["outputs"] == [
        "pstar.s2p", "working_points.csv", "qstar.json",
        "gain_profile_001.csv", "gain_profile_003.csv"]
    qstar = json.loads((run_dir / "qstar.json").read_text())
    assert qstar["gain_profile_file"] == "gain_profile_003.csv"
    assert qstar["n_drive_points"] == 3
    assert qstar["n_failed_drive_points"] == 1
    assert qstar["pump_amplitude_ua"] == 0.3
    assert qstar["xi"] == 0.27777777777777773
    assert ((run_dir / "report" / "gain_qstar.csv").read_bytes()
            == (run_dir / "gain_profile_003.csv").read_bytes())


def test_locked_run_dir_refuses_second_writer(finished_run, capsys):
    config_path, run_dir = finished_run
    lock = run_dir / "lock"
    lock.write_text("999999\n")
    try:
        assert main(["pipeline", "--config", str(config_path)]) == 1
        assert "locked" in capsys.readouterr().err
    finally:
        lock.unlink()


def test_config_hash_mismatch_requires_force(tmp_path, capsys):
    run_dir = tmp_path / "run"
    config_path = tmp_path / "mini.json"
    config_path.write_text(json.dumps(mini_config_doc(run_dir)))
    assert main(["pipeline", "--config", str(config_path)]) == 0
    capsys.readouterr()

    # Same run dir, edited config: refused without --force.
    config_path.write_text(json.dumps(
        mini_config_doc(run_dir, bayesopt={"budget": 13, "seed": 0})))
    assert main(["pipeline", "--config", str(config_path)]) == 1
    assert "--force" in capsys.readouterr().err

    assert main(["pipeline", "--config", str(config_path), "--force"]) == 0
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["stages"]["optimize"]["budget"] == 13


def test_stage_chain_and_parallel_sweep(mini_config, capsys):
    config_path, run_dir = mini_config()

    assert main(["stage1", "--config", str(config_path),
                 "--workers", "2"]) == 0
    assert capsys.readouterr().out.strip().endswith("stage1_records.csv")

    assert main(["optimize", "--config", str(config_path)]) == 0
    assert capsys.readouterr().out.startswith("p* metric ")

    assert main(["stage3", "--config", str(config_path)]) == 0
    capsys.readouterr()

    assert main(["report", str(run_dir)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.startswith(str(run_dir)) for line in lines)


def test_parallel_sweep_matches_serial(tmp_path):
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    for out_dir, workers in ((serial_dir, "1"), (parallel_dir, "2")):
        cfg = tmp_path / f"cfg_{workers}.json"
        cfg.write_text(json.dumps(mini_config_doc(out_dir / "run")))
        assert main(["stage1", "--config", str(cfg),
                     "--workers", workers]) == 0

    def strip_wall_time(path):
        rows = [line.split(",") for line in path.read_text().splitlines()]
        header = rows[0]
        drop = header.index("wall_time_s")
        return [[f for i, f in enumerate(row) if i != drop] for row in rows]

    assert (strip_wall_time(serial_dir / "run" / "stage1_records.csv")
            == strip_wall_time(parallel_dir / "run" / "stage1_records.csv"))


def test_optimize_without_stage1_is_config_error(mini_config, capsys):
    config_path, _ = mini_config()
    assert main(["optimize", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "stage1" in err


def test_report_before_stages_is_runtime_error(mini_config, capsys):
    config_path, run_dir = mini_config()
    prepare_run_dir(config_path, load_config(config_path))
    assert main(["report", str(run_dir)]) == 1
    assert "error: PipelineError" in capsys.readouterr().err


def test_report_on_missing_run_dir(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nowhere")]) == 1
    assert "manifest" in capsys.readouterr().err


def test_invalid_json_config_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json\n")
    assert main(["pipeline", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(mini_config_doc(tmp_path / "run", zzz=1)))
    assert main(["pipeline", "--config", str(path)]) == 2
    assert "zzz" in capsys.readouterr().err


def test_resolve_workers_precedence(monkeypatch):
    cfg = parse_config(mini_config_doc("unused"))
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert resolve_workers(None, cfg) == 1
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert resolve_workers(None, cfg) == 3
    cfg_w = cfg.with_overrides(workers=2)
    assert resolve_workers(None, cfg_w) == 2  # config beats environment
    assert resolve_workers(5, cfg_w) == 5  # flag beats both
    for bad in ("zero", "0", "-2"):
        monkeypatch.setenv(WORKERS_ENV, bad)
        with pytest.raises(ConfigError):
            resolve_workers(None, cfg)


def test_optimize_budget_too_small_exits_2(mini_config, capsys):
    config_path, _ = mini_config()
    assert main(["stage1", "--config", str(config_path)]) == 0
    capsys.readouterr()
    # Warm start holds 2 rows; a budget of 3 leaves 1 new evaluation,
    # below the per-combo minimum.
    assert main(["optimize", "--config", str(config_path),
                 "--budget", "3"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_resolve_stage3_flux(tmp_path):
    def cfg(mutual=None, **drive):
        doc = mini_config_doc(tmp_path)
        doc["drive"].update(drive)
        if mutual is not None:
            doc["cell"] = {"mutual_phi0_per_ua": mutual}
        return parse_config(doc)

    pstar = {"flux_ext_phi0": 0.38447551700472826}
    explicit = cfg(mutual=0.0018, flux_phi0=0.38, flux_current_ua=212.0)
    assert _resolve_stage3_flux(explicit, pstar) == 0.38
    by_current = cfg(mutual=0.0018, flux_current_ua=212.0)
    assert _resolve_stage3_flux(by_current, pstar) == pytest.approx(
        0.3816, rel=1e-12)
    with pytest.raises(ConfigError, match="mutual_phi0_per_ua"):
        _resolve_stage3_flux(cfg(flux_current_ua=212.0), pstar)
    assert _resolve_stage3_flux(cfg(), pstar) == pstar["flux_ext_phi0"]
