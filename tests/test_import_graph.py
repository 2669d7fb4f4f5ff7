"""What ``import twpaopt`` and its modules load.

Each import runs in a fresh interpreter: this test process has already
loaded every twpaopt module and scipy.optimize.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import twpaopt

#: The modules that run the simulator layers without the GP; the 20 dB
#: working-point script imports a subset of them.
SIMULATOR_MODULES = ("config", "fileio", "metric", "mixing", "network",
                     "snail", "sweep", "touchstone")


def loaded_after(statement):
    """Sorted names in sys.modules after ``statement`` in a new interpreter."""
    src = Path(twpaopt.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = f"import json, sys; {statement}; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def scipy_modules(loaded):
    return [m for m in loaded if m == "scipy" or m.startswith("scipy.")]


def test_package_import_loads_no_submodule_and_no_scipy():
    loaded = loaded_after("import twpaopt")
    assert [m for m in loaded if m.startswith("twpaopt.")] == []
    assert scipy_modules(loaded) == []


def test_simulator_modules_load_no_scipy():
    loaded = loaded_after(
        "import " + ", ".join(f"twpaopt.{m}" for m in SIMULATOR_MODULES))
    assert scipy_modules(loaded) == []


def test_twenty_db_script_loads_no_scipy():
    # run_path without __main__ runs the script's imports, not its main().
    script = (Path(__file__).resolve().parents[1] / "scripts"
              / "find_working_point_20db.py")
    loaded = loaded_after(f"import runpy; runpy.run_path({str(script)!r})")
    assert "twpaopt.mixing" in loaded
    assert scipy_modules(loaded) == []


def test_import_leaves_out_scipy_optimize_and_constants():
    loaded = [m for m in loaded_after("import twpaopt, twpaopt.cli")
              if m.startswith("scipy.")]
    assert "scipy.linalg" in loaded and "scipy.special" in loaded
    assert not [m for m in loaded
                if m.split(".")[1] in ("optimize", "constants")]
