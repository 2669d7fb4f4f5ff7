"""The one CSV writer: per-type cell rendering, layout, atomic write."""

import math

import numpy as np
import pytest

from twpaopt.fileio import format_float, write_csv


def test_write_csv_renders_each_cell_type(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ("name", "index", "value", "flag"), [
        ("A_J", 3, 0.1, True),
        ("pitch", -1, np.float64(2.0), False),
        ("failed", 0, math.inf, True),
        ("tail", 12, np.float64(-math.inf), False),
    ])
    assert path.read_text() == (
        "name,index,value,flag\n"
        "A_J,3,0.10000000000000001,true\n"
        "pitch,-1,2,false\n"
        "failed,0,inf,true\n"
        "tail,12,-inf,false\n"
    )


def test_write_csv_floats_round_trip_at_17_digits(tmp_path):
    values = np.array([1.0 / 3.0, 17.438659952916627, 1e-300, -2.5e17, 0.0])
    path = tmp_path / "floats.csv"
    write_csv(path, ("x",), ((v,) for v in values))
    cells = path.read_text().splitlines()[1:]
    assert cells == [format_float(v) for v in values]
    assert [float(c) for c in cells] == list(values)


def test_write_csv_header_only_and_unsupported_cells(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ["a", "b"], [])
    assert path.read_text() == "a,b\n"
    with pytest.raises(TypeError, match="NoneType"):
        write_csv(tmp_path / "bad.csv", ("a",), [(None,)])
    assert not (tmp_path / "bad.csv").exists()
