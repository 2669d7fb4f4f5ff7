#!/usr/bin/env python3
"""Run the desk-scale pipeline end to end and print a one-screen summary.

The default config (configs/desk.json) sweeps a 2048-point device grid at
120 cells, refines it with a 60-evaluation surrogate search, sweeps nine
pump amplitudes at the refined optimum, and writes the report tables.
Finishes in well under ten minutes single-threaded; pass --workers to
parallelize the grid sweep.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from twpaopt import cli
from twpaopt.pipeline import RunPaths

REPO = Path(__file__).resolve().parents[1]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default=str(REPO / "configs" / "desk.json"),
                    help="pipeline config JSON (default: configs/desk.json)")
    ap.add_argument("--output", default=None,
                    help="override output_dir; writes the patched config "
                         "next to the run directory")
    ap.add_argument("--workers", type=int, default=1,
                    help="parallel workers for the grid sweep")
    ap.add_argument("--force", action="store_true",
                    help="restart a run directory whose config has changed")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    config_path = Path(args.config)
    try:
        doc = json.loads(config_path.read_text())
    except (OSError, ValueError) as exc:
        print(f"config error: cannot read {config_path}: {exc}",
              file=sys.stderr)
        return 2
    if args.output is not None:
        if isinstance(doc, dict):  # the CLI reports any other document
            doc["output_dir"] = args.output
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        config_path = out.parent / (out.name + ".config.json")
        config_path.write_text(json.dumps(doc, indent=2) + "\n")

    t0 = time.perf_counter()
    code = cli.main(["pipeline", "--config", str(config_path),
                     "--workers", str(args.workers)]
                    + ["--force"] * args.force)
    elapsed = time.perf_counter() - t0
    if code:
        return code

    paths = RunPaths(doc["output_dir"])
    pstar = json.loads(Path(paths.pstar_json).read_text())
    qstar = json.loads(Path(paths.qstar_json).read_text())
    print(f"p* metric {pstar['metric']['total']:.6g} "
          f"(delta_k {pstar['metric']['delta_k']:.4g} rad/cell)")
    for name, value in pstar["params"].items():
        print(f"  {name} = {value:.6g}")
    print(f"q* pump amplitude {qstar['pump_amplitude_ua']:.4g} uA "
          f"(xi {qstar['xi']:.4f}), band-mean gain "
          f"{qstar['performance_db']:.2f} dB")
    print(f"artifacts in {paths.run_dir} ({elapsed:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
