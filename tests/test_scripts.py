"""Smoke tests of the two experiment scripts under scripts/."""

import importlib.util
from pathlib import Path

import pytest

from twpaopt.fileio import format_float
from twpaopt.mixing import GAIN_PROFILE_COLUMNS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_find_working_point_writes_17_digit_profile(tmp_path, capsys):
    # A short device and a loose target: the bracket and one bisection step.
    script = load_script("find_working_point_20db")
    out = tmp_path / "profile.csv"
    code = script.main(["--cells", "120", "--target-db", "1", "--tol-db", "100",
                        "--profile-out", str(out)])
    assert code == 0
    assert "working point: xi" in capsys.readouterr().out

    header, *lines = out.read_text().splitlines()
    assert header == ",".join(GAIN_PROFILE_COLUMNS)
    assert len(lines) == 41  # 4.75..6.75 GHz at 50 MHz
    rows = [[float(cell) for cell in line.split(",")] for line in lines]
    for line, row in zip(lines, rows):
        assert line.split(",") == [format_float(v) for v in row]
    assert max(row[1] for row in rows) > 1.0


def test_find_working_point_stops_at_an_unreachable_target(capsys):
    # The xi 0.499 bracket of the 120-cell device reads 24.56 dB.
    script = load_script("find_working_point_20db")
    assert script.main(["--cells", "120", "--target-db", "80"]) == 1
    captured = capsys.readouterr()
    assert "unreachable" in captured.err
    assert "bracket xi 0.4990: 24.56 dB" in captured.out
    assert "working point" not in captured.out


def test_run_desk_pipeline_parses_its_arguments():
    script = load_script("run_desk_pipeline")
    args = script.parse_args(["--output", "runs/x", "--workers", "2"])
    assert (args.output, args.workers, args.force) == ("runs/x", 2, False)
    assert Path(args.config).name == "desk.json"
    assert Path(args.config).is_file()
    with pytest.raises(SystemExit):
        script.parse_args(["--workers", "two"])
