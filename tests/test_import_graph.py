"""What ``import twpaopt`` loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import twpaopt


def test_import_leaves_out_scipy_optimize_and_constants():
    # A fresh interpreter: this test process has imported scipy.optimize.
    src = Path(twpaopt.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = ("import json, sys, twpaopt, twpaopt.cli; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith('scipy.'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    loaded = json.loads(out.stdout)
    assert "scipy.linalg" in loaded and "scipy.special" in loaded
    assert not [m for m in loaded
                if m.split(".")[1] in ("optimize", "constants")]
