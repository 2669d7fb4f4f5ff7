"""End-to-end CLI runs on a two-point config, exit codes, resume logic."""

import csv
import json
import math
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import mini_config_doc

import twpaopt
from twpaopt import pipeline
from twpaopt import sweep as sweep_mod
from twpaopt.cli import main
from twpaopt.config import ConfigError, load_config, parse_config
from twpaopt.metric import BREAKDOWN_KEYS, MetricBreakdown
from twpaopt.network import simulate_linear
from twpaopt.pipeline import _resolve_stage3_flux, prepare_run_dir
from twpaopt.snail import JunctionSpec, critical_current, kerr_free_flux

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
    assert manifest["stages"]["stage1"]["failures_by_type"] == {}


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


def test_pstar_metric_is_the_breakdown_document(finished_run):
    config_path, run_dir = finished_run
    pstar = json.loads((run_dir / "pstar.json").read_text())
    assert tuple(pstar["metric"]) == BREAKDOWN_KEYS
    first = (run_dir / "stage1_checkpoint.jsonl").read_text().splitlines()[0]
    assert tuple(json.loads(first)["breakdown"]) == BREAKDOWN_KEYS
    cfg = load_config(config_path)
    _, breakdown = pipeline._score(cfg, pipeline._sweep_config(cfg),
                                   pstar["params"])
    assert MetricBreakdown.from_doc(pstar["metric"]) == breakdown


@pytest.mark.parametrize("name", ["stage1_records.csv", "optimize_trace.csv"])
def test_pitch_is_written_as_an_integer(finished_run, name):
    _, run_dir = finished_run
    with open(run_dir / name, newline="") as fh:
        pitches = [row["pitch"] for row in csv.DictReader(fh)]
    assert pitches
    assert [p for p in pitches if not re.fullmatch(r"[0-9]+", p)] == []


def test_pitch_cells_reach_the_csv_writer_as_int(mini_config, monkeypatch):
    # format_float(3.0) prints "3", so the written text cannot tell a float
    # pitch from an int one; the cells handed to write_csv can.
    cells = {}

    def spy_on(module):
        original = module.write_csv

        def write_csv(path, header, rows):
            rows = list(rows)
            if "pitch" in header:
                column = list(header).index("pitch")
                cells[Path(path).name] = [row[column] for row in rows]
            return original(path, header, rows)

        monkeypatch.setattr(module, "write_csv", write_csv)

    spy_on(sweep_mod)
    spy_on(pipeline)
    config_path, _ = mini_config()
    codes = [main([stage, "--config", str(config_path)])
             for stage in ("stage1", "optimize")]
    for name in ("stage1_records.csv", "optimize_trace.csv"):
        pitches = cells.get(name)
        assert pitches, name
        assert [p for p in pitches if type(p) is not int] == [], name
    assert codes == [0, 0]


def test_optimize_trace_holds_new_evaluations_and_warm_incumbents(
        mini_config):
    # Nine warm rows over one combination and a budget that leaves ten new
    # evaluations.  Every warm row stays in stage1_records.csv; the trace
    # repeats only the incumbents among them, cell for cell.
    grid = dict(mini_config_doc("")["grid"],
                A_J={"min": 0.3, "max": 0.5, "step": 0.1},
                rho_Ic={"min": 0.8, "max": 1.0, "step": 0.1})
    config_path, run_dir = mini_config(grid=grid,
                                       bayesopt={"budget": 19, "seed": 0})
    for stage in ("stage1", "optimize"):
        assert main([stage, "--config", str(config_path)]) == 0

    def table(name):
        with open(run_dir / name, newline="") as fh:
            return list(csv.DictReader(fh))

    records, trace = table("stage1_records.csv"), table("optimize_trace.csv")
    pstar = json.loads((run_dir / "pstar.json").read_text())
    assert (len(records), pstar["warm_start_size"]) == (9, 9)
    assert pstar["new_evaluations"] == 10
    assert [row["iteration"] for row in trace if row["iteration"] != "-1"] == [
        str(i) for i in range(10)]

    def cells(row, names):
        return [row[name] for name in names]

    record_cells = tuple(d.column for d in sweep_mod.DIMENSIONS) + ("metric_total",)
    trace_cells = sweep_mod.DIMENSION_NAMES + ("metric_total",)
    incumbents, usable = [], []
    for row in records:
        value = float(row["metric_total"])
        if not usable or value < min(usable):
            incumbents.append(cells(row, record_cells))
        if math.isfinite(value) and value > 0:
            usable.append(value)
    warm = [row for row in trace if row["iteration"] == "-1"]
    assert 0 < len(incumbents) < len(records)
    assert [cells(row, trace_cells) for row in warm] == incumbents
    assert {row["is_incumbent"] for row in warm} == {"true"}
    assert len(trace) == len(incumbents) + 10


def test_stage3_accepts_explicit_pstar(mini_config, capsys):
    # Its own run: stage 3 turns the report of the run it reruns pending.
    config_path, run_dir = mini_config()
    assert main(["pipeline", "--config", str(config_path)]) == 0
    capsys.readouterr()
    rc = main(["stage3", "--config", str(config_path),
               "--pstar", str(run_dir / "pstar.json")])
    assert rc == 0
    assert "q* pump amplitude" in capsys.readouterr().out
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["stages"]["stage3"]["status"] == "complete"
    assert manifest["stages"]["report"] == {"status": "pending"}


def test_a_rerun_stage_turns_its_later_stages_pending(mini_config, capsys):
    # A cold start replaces p*, so the stage 3 and report made from the
    # old p* are stale: the next pipeline run recomputes them.  On this
    # nine-point grid the cold start moves p* off the grid.
    grid = dict(mini_config_doc("")["grid"],
                A_J={"min": 0.3, "max": 0.5, "step": 0.1},
                rho_Ic={"min": 0.8, "max": 1.0, "step": 0.1})
    config_path, run_dir = mini_config(grid=grid)
    assert main(["pipeline", "--config", str(config_path)]) == 0
    warm_pstar = json.loads((run_dir / "pstar.json").read_text())
    assert main(["optimize", "--config", str(config_path),
                 "--cold-start"]) == 0
    stages = json.loads((run_dir / "manifest.json").read_text())["stages"]
    assert stages["stage3"] == stages["report"] == {"status": "pending"}
    pstar = json.loads((run_dir / "pstar.json").read_text())
    assert pstar["params"] != warm_pstar["params"]

    capsys.readouterr()
    assert main(["pipeline", "--config", str(config_path)]) == 0
    assert capsys.readouterr().out.count(": complete") == 4
    stages = json.loads((run_dir / "manifest.json").read_text())["stages"]
    assert stages["optimize"]["cold_start"] is True
    qstar = json.loads((run_dir / "qstar.json").read_text())
    i_c = critical_current(JunctionSpec(pstar["params"]["A_J"],
                                        pstar["params"]["rho_Ic"]))
    assert qstar["xi"] == qstar["pump_amplitude_ua"] / (2.0 * i_c)


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


def test_pipeline_warns_of_a_failed_drive_point(mini_config, capsys):
    config_path, run_dir = mini_config(drive={
        "pump_amplitudes_ua": [0.1, 5.0, 0.3],
        "signal_band_ghz": [4.75, 6.75],
        "signal_step_ghz": 0.25,
    })
    assert main(["pipeline", "--config", str(config_path)]) == 0
    assert "warning: 1 drive point(s) failed" in capsys.readouterr().err
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["stages"]["stage3"]["failed_drive_points"] == 1


def test_pipeline_names_the_types_of_failed_grid_points(mini_config,
                                                        monkeypatch, capsys):
    # The A_J 0.3 point fails in the batched scorer, recognised by its S11
    # as in the sweep's failure-injection test.
    config_path, run_dir = mini_config()
    cfg = load_config(config_path)
    target = next(p for p in sweep_mod.enumerate_grid(cfg.grid, cfg.cell_count)
                  if p.junction_area == 0.3)
    target_s11 = simulate_linear(
        target, kerr_free_flux(target.alpha),
        sweep_mod.metric_frequency_grid(cfg.freq_grid, cfg.metric.pump_freq),
        cfg.cell).s11
    real = sweep_mod.score_batch

    def poisoned(freqs, s11, s21, disp, metric_cfg):
        if any(np.array_equal(row, target_s11) for row in s11):
            raise RuntimeError("injected failure")
        return real(freqs, s11, s21, disp, metric_cfg)

    monkeypatch.setattr(sweep_mod, "score_batch", poisoned)
    assert main(["pipeline", "--config", str(config_path)]) == 0
    stage1 = json.loads((run_dir / "manifest.json").read_text())["stages"][
        "stage1"]
    assert stage1["failed_points"] == 1
    assert stage1["failures_by_type"] == {"RuntimeError": 1}
    assert ("warning: 1 grid point(s) failed (RuntimeError: 1) and are "
            "flagged in") in capsys.readouterr().err


def test_locked_run_dir_refuses_second_writer(finished_run, capsys):
    config_path, run_dir = finished_run
    lock = run_dir / "lock"
    lock.write_text("999999\n")
    try:
        assert main(["pipeline", "--config", str(config_path)]) == 1
        assert "locked" in capsys.readouterr().err
    finally:
        lock.unlink()


def test_lock_of_a_dead_process_is_reclaimed(finished_run):
    config_path, run_dir = finished_run
    exited = subprocess.Popen([sys.executable, "-c", "pass"])
    assert exited.wait() == 0
    lock = run_dir / "lock"
    lock.write_text(f"{exited.pid} {socket.gethostname()}\n")
    assert main(["pipeline", "--config", str(config_path)]) == 0
    assert not lock.exists()


def test_lock_of_a_live_process_refuses(finished_run, capsys):
    config_path, run_dir = finished_run
    lock = run_dir / "lock"
    lock.write_text(f"{os.getpid()} {socket.gethostname()}\n")
    try:
        assert main(["pipeline", "--config", str(config_path)]) == 1
        assert "locked" in capsys.readouterr().err
    finally:
        lock.unlink()


def test_manifest_records_stage_times(finished_run):
    _, run_dir = finished_run
    manifest = json.loads((run_dir / "manifest.json").read_text())
    peaks = []
    for name, stage in manifest["stages"].items():
        assert stage["elapsed_s"] >= 0.0, name
        peaks.append(stage["peak_rss_mb"])
    # One process ran the four stages: its high-water mark only rises.
    assert peaks[0] > 0.0 and peaks == sorted(peaks)


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


def strip_wall_time(path):
    """Rows of a stage-1 CSV without the wall_time_s column."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    header = rows[0]
    drop = header.index("wall_time_s")
    return [[f for i, f in enumerate(row) if i != drop] for row in rows]


def checkpoint_by_index(path):
    """Checkpoint records keyed by grid index, without their wall time."""
    docs = {}
    for line in path.read_text().splitlines():
        doc = json.loads(line)
        del doc["wall_time"]
        assert docs.setdefault(doc["index"], doc) == doc
    return docs


def test_parallel_sweep_matches_serial(tmp_path):
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    for out_dir, workers in ((serial_dir, "1"), (parallel_dir, "2")):
        cfg = tmp_path / f"cfg_{workers}.json"
        cfg.write_text(json.dumps(mini_config_doc(out_dir / "run")))
        assert main(["stage1", "--config", str(cfg),
                     "--workers", workers]) == 0

    assert (strip_wall_time(serial_dir / "run" / "stage1_records.csv")
            == strip_wall_time(parallel_dir / "run" / "stage1_records.csv"))


#: 768 points of 60 cells: about a second of sweep after the first
#: checkpoint line, ample time to interrupt it mid-run.
RESUME_GRID = {
    "A_J": {"min": 0.3, "max": 0.6, "step": 0.02},
    "rho_Ic": {"min": 0.8, "max": 1.0, "step": 0.1},
    "alpha": {"min": 0.23, "max": 0.23, "step": 0.02},
    "t": {"min": 5.0, "max": 11.0, "step": 2.0},
    "L_load": {"min": 1.5, "max": 2.0, "step": 0.5},
    "C_load": {"min": 1.0, "max": 1.0, "step": 0.5},
    "pitch": {"min": 2, "max": 3, "step": 1},
}


@pytest.fixture(scope="module")
def uninterrupted_stage1(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("resume") / "run"
    config_path = run_dir.parent / "config.json"
    config_path.write_text(json.dumps(
        mini_config_doc(run_dir, grid=RESUME_GRID)))
    assert main(["stage1", "--config", str(config_path)]) == 0
    return run_dir


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                         ids=["SIGINT", "SIGTERM"])
def test_stage1_resumes_bitwise_after_a_signal(tmp_path, uninterrupted_stage1,
                                               signum):
    run_dir = tmp_path / "run"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        mini_config_doc(run_dir, grid=RESUME_GRID)))
    checkpoint = run_dir / "stage1_checkpoint.jsonl"
    total = len(checkpoint_by_index(
        uninterrupted_stage1 / "stage1_checkpoint.jsonl"))
    src = Path(twpaopt.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    command = [sys.executable, "-c",
               "import sys; from twpaopt.cli import main; sys.exit(main())",
               "stage1", "--config", str(config_path)]

    proc = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        while proc.poll() is None and not (
                checkpoint.exists() and checkpoint.read_bytes().count(b"\n")):
            time.sleep(0.002)
        proc.send_signal(signum)
        assert proc.wait(timeout=60) != 0, "stage 1 ended before the signal"
    finally:
        proc.kill()
        proc.wait()
    done = checkpoint.read_bytes().count(b"\n")
    assert 0 < done < total
    assert not (run_dir / "stage1_records.csv").exists()

    resumed = subprocess.run(command, env=env, capture_output=True,
                             text=True, timeout=120)
    assert resumed.returncode == 0, resumed.stderr
    assert (strip_wall_time(run_dir / "stage1_records.csv")
            == strip_wall_time(uninterrupted_stage1 / "stage1_records.csv"))
    assert (checkpoint_by_index(checkpoint) == checkpoint_by_index(
        uninterrupted_stage1 / "stage1_checkpoint.jsonl"))
    assert ((run_dir / "stage1_analysis.json").read_bytes()
            == (uninterrupted_stage1 / "stage1_analysis.json").read_bytes())


def test_resumed_stage1_progress_reaches_the_grid_size(tmp_path, capsys):
    grid = dict(RESUME_GRID, t={"min": 5.0, "max": 9.0, "step": 2.0},
                L_load={"min": 1.5, "max": 1.5, "step": 0.5},
                pitch={"min": 2, "max": 2, "step": 1})
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        mini_config_doc(tmp_path / "run", grid=grid)))
    assert main(["stage1", "--config", str(config_path)]) == 0
    checkpoint = tmp_path / "run" / "stage1_checkpoint.jsonl"
    lines = checkpoint.read_text().splitlines(keepends=True)
    total = len(lines)
    checkpoint.write_text("".join(lines[:5]))
    capsys.readouterr()

    assert main(["stage1", "--config", str(config_path)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"stage1: {total}/{total} points done"
    assert len(checkpoint.read_text().splitlines()) == total


def test_optimize_without_stage1_is_config_error(mini_config, capsys):
    config_path, run_dir = mini_config()
    assert main(["optimize", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "stage1" in err
    # The check runs before the stage begins: its entry stays pending.
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["stages"]["optimize"] == {"status": "pending"}


def test_build_search_space_enumerates_a_single_valued_t():
    # A single-valued searched dimension is enumerated ahead of alpha and
    # the other enumerated dimensions, which keeps the combination ids.
    doc = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "desk.json").read_text())
    doc["grid"]["t"] = {"min": 9.0, "max": 9.0, "step": 1.0}
    space = pipeline.build_search_space(parse_config(doc))
    assert space.continuous == (("A_J", 0.1, 0.6), ("rho_Ic", 0.5, 1.5))
    assert space.enumerated == (
        ("t", (9.0,)), ("alpha", (0.23, 0.25)), ("L_load", (1.5, 2.0)),
        ("C_load", (1.0, 1.5)), ("pitch", (2.0, 3.0)))
    for name in ("A_J", "rho_Ic"):
        doc["grid"][name] = {"min": 0.5, "max": 0.5, "step": 0.1}
    with pytest.raises(ConfigError, match="at least one continuous"):
        pipeline.build_search_space(parse_config(doc))


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


@pytest.mark.parametrize("flag", [0, -3])
def test_non_positive_workers_flag_exits_2(mini_config, capsys, flag):
    config_path, run_dir = mini_config()
    for command in ("stage1", "pipeline"):
        assert main([command, "--config", str(config_path),
                     "--workers", str(flag)]) == 2
        assert capsys.readouterr().err.startswith("config error: --workers")
        assert not run_dir.exists()


def test_optimize_budget_too_small_exits_2(mini_config, capsys):
    config_path, _ = mini_config(bayesopt={"budget": 3, "seed": 0})
    assert main(["stage1", "--config", str(config_path)]) == 0
    capsys.readouterr()
    # Warm start holds 2 rows; a budget of 3 leaves 1 new evaluation,
    # below the per-combo minimum.
    assert main(["optimize", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("flag", ["--seed", "--budget"])
def test_optimize_takes_no_seed_or_budget_flag(mini_config, capsys, flag):
    # bayesopt.seed and bayesopt.budget in the config are their one source.
    config_path, run_dir = mini_config()
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--config", str(config_path), flag, "1"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize("overrides, key", [
    ({"workers": 2}, "workers"),
    ({"drive": {"flux_current_ua": 212.0}}, "drive.flux_current_ua"),
    ({"cell": {"mutual_phi0_per_ua": 0.0018}}, "cell.mutual_phi0_per_ua"),
])
def test_removed_config_keys_exit_2(mini_config, capsys, overrides, key):
    config_path, run_dir = mini_config(**overrides)
    assert main(["pipeline", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == f"config error: unknown key(s): {key}\n"
    assert not run_dir.exists()


def test_resolve_stage3_flux(tmp_path):
    def cfg(**drive):
        doc = mini_config_doc(tmp_path)
        doc["drive"].update(drive)
        return parse_config(doc)

    pstar = {"flux_ext_phi0": 0.38447551700472826}
    assert _resolve_stage3_flux(cfg(flux_phi0=0.38), pstar) == 0.38
    assert _resolve_stage3_flux(cfg(), pstar) == pstar["flux_ext_phi0"]


def test_a_failed_stage_is_recorded_then_rerun(mini_config, monkeypatch,
                                               capsys):
    config_path, run_dir = mini_config()

    def full_disk(*args):
        raise OSError("no space left")

    monkeypatch.setattr(pipeline, "write_touchstone", full_disk)
    assert main(["pipeline", "--config", str(config_path)]) == 1
    assert "error: OSError: no space left" in capsys.readouterr().err
    failed = json.loads((run_dir / "manifest.json").read_text())["stages"]
    assert list(failed["stage3"]) == [
        "status", "started_utc", "inputs", "finished_utc", "elapsed_s",
        "peak_rss_mb", "error"]
    assert failed["stage3"]["status"] == "failed"
    assert failed["stage3"]["error"] == "OSError: no space left"
    assert failed["stage3"]["elapsed_s"] >= 0.0
    assert failed["report"] == {"status": "pending"}

    monkeypatch.undo()
    assert main(["pipeline", "--config", str(config_path)]) == 0
    stages = json.loads((run_dir / "manifest.json").read_text())["stages"]
    assert {n: s["status"] for n, s in stages.items()} == dict.fromkeys(
        ("stage1", "optimize", "stage3", "report"), "complete")
    for name in ("stage1", "optimize"):
        assert stages[name] == failed[name]
    assert [list(stage) for stage in stages.values()] == [
        ["status", "started_utc", "workers", "finished_utc", "elapsed_s",
         "peak_rss_mb", "outputs", "grid_points", "failed_points",
         "failures_by_type"],
        ["status", "started_utc", "seed", "budget", "cold_start",
         "finished_utc", "elapsed_s", "peak_rss_mb", "outputs", "inputs"],
        ["status", "started_utc", "inputs", "finished_utc", "elapsed_s",
         "peak_rss_mb", "outputs", "failed_drive_points"],
        ["status", "started_utc", "finished_utc", "elapsed_s", "peak_rss_mb",
         "outputs"],
    ]
    assert [stage["outputs"] for stage in stages.values()] == [
        ["stage1_records.csv", "stage1_analysis.json",
         "stage1_checkpoint.jsonl"],
        ["optimize_trace.csv", "pstar.json"],
        ["pstar.s2p", "working_points.csv", "qstar.json",
         "gain_profile_001.csv", "gain_profile_002.csv"],
        ["report/dispersion.csv", "report/correlation.csv",
         "report/histograms.csv", "report/gain_qstar.csv"],
    ]
