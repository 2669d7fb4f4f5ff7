"""Command-line entry point.

Exit codes: 0 success (possibly with flagged rows, reported on stderr),
1 runtime failure, 2 configuration error.  Default worker count comes from
--workers, then the config, then TWPAOPT_WORKERS, then 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

from .config import ConfigError, RunConfig, load_config
from .pipeline import (
    RunLock,
    RunPaths,
    open_run_dir,
    prepare_run_dir,
    run_optimize,
    run_pipeline,
    run_report,
    run_stage1,
    run_stage3,
)

WORKERS_ENV = "TWPAOPT_WORKERS"


def resolve_workers(flag: int | None, cfg: RunConfig) -> int:
    if flag is not None:
        if flag < 1:
            raise ConfigError(f"--workers must be a positive integer, got {flag}")
        return flag
    if cfg.workers is not None:
        return cfg.workers
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            value = int(env)
            if value < 1:
                raise ValueError
        except ValueError:
            raise ConfigError(
                f"{WORKERS_ENV}={env!r} is not a positive integer") from None
        return value
    return 1


def _print_progress(done: int, total: int) -> None:
    if done % max(1, total // 20) == 0 or done == total:
        print(f"stage1: {done}/{total} points done",
              file=sys.stderr, flush=True)


def _warn_stage1(stage: dict, stage1_csv: str) -> None:
    """Warn of failed grid points from stage 1's manifest entry."""
    failed = stage["failed_points"]
    if failed:
        # Run directories written before the field existed lack it.
        types = ", ".join(f"{name}: {count}" for name, count
                          in stage.get("failures_by_type", {}).items())
        detail = f" ({types})" if types else ""
        print(f"warning: {failed} grid point(s) failed{detail} and are "
              f"flagged in {stage1_csv}", file=sys.stderr)


def _warn_stage3(failed: int) -> None:
    if failed:
        print(f"warning: {failed} drive point(s) failed", file=sys.stderr)


@contextmanager
def _run_dir(args):
    """Yield (cfg, paths, manifest) while holding the run directory's lock.

    ``report`` opens an existing run directory.  The other commands load
    --config and prepare its run directory, resolving a --workers flag into
    ``args.workers`` first so that a bad value leaves the directory alone.
    """
    if args.command == "report":
        cfg, paths, manifest = open_run_dir(args.run_dir)
    else:
        cfg = load_config(args.config)
        if "workers" in args:
            args.workers = resolve_workers(args.workers, cfg)
        paths, manifest = prepare_run_dir(args.config, cfg)
    with RunLock(paths):
        yield cfg, paths, manifest


def _cmd_stage1(args) -> int:
    with _run_dir(args) as (cfg, paths, manifest):
        run_stage1(cfg, paths, manifest, workers=args.workers,
                   progress=_print_progress)
    _warn_stage1(manifest["stages"]["stage1"], paths.stage1_csv)
    print(paths.stage1_csv)
    return 0


def _cmd_optimize(args) -> int:
    with _run_dir(args) as (cfg, paths, manifest):
        doc = run_optimize(cfg, paths, manifest, stage1_csv=args.stage1,
                           seed=args.seed, budget=args.budget,
                           cold_start=args.cold_start)
    total = doc["metric"]["total"]
    print(f"p* metric {total:.6g} -> {paths.pstar_json}")
    return 0


def _cmd_stage3(args) -> int:
    with _run_dir(args) as (cfg, paths, manifest):
        doc = run_stage3(cfg, paths, manifest, pstar_path=args.pstar)
    _warn_stage3(doc["n_failed_drive_points"])
    print(f"q* pump amplitude {doc['pump_amplitude_ua']:.6g} uA, "
          f"band-mean gain {doc['performance_db']:.4g} dB -> "
          f"{paths.qstar_json}")
    return 0


def _cmd_pipeline(args) -> int:
    cfg = load_config(args.config)
    workers = resolve_workers(args.workers, cfg)
    manifest = run_pipeline(args.config, cfg, workers=workers,
                            force=args.force,
                            progress=_print_progress)
    stages = manifest["stages"]
    for name, stage in stages.items():
        print(f"{name}: {stage['status']}")
    _warn_stage1(stages["stage1"], RunPaths(cfg.output_dir).stage1_csv)
    # Run directories written before stage 3 recorded the field lack it.
    _warn_stage3(stages["stage3"].get("failed_drive_points", 0))
    return 0


def _cmd_report(args) -> int:
    with _run_dir(args) as (cfg, paths, manifest):
        outputs = run_report(cfg, paths, manifest)
    for path in outputs:
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twpaopt",
        description="Four-stage traveling-wave parametric amplifier "
                    "design pipeline: grid sweep, surrogate optimization, "
                    "nonlinear gain, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("stage1", help="run the linear parameter sweep")
    p1.add_argument("--config", required=True)
    p1.add_argument("--workers", type=int, default=None)
    p1.set_defaults(handler=_cmd_stage1)

    p2 = sub.add_parser("optimize", help="surrogate optimization for p*")
    p2.add_argument("--config", required=True)
    p2.add_argument("--stage1", default=None,
                    help="stage-1 CSV warm start (default: run dir)")
    p2.add_argument("--seed", type=int, default=None)
    p2.add_argument("--budget", type=int, default=None)
    p2.add_argument("--cold-start", action="store_true")
    p2.set_defaults(handler=_cmd_optimize)

    p3 = sub.add_parser("stage3", help="nonlinear gain at p*")
    p3.add_argument("--config", required=True)
    p3.add_argument("--pstar", default=None,
                    help="p* JSON (default: run dir)")
    p3.set_defaults(handler=_cmd_stage3)

    p4 = sub.add_parser("pipeline", help="run all stages with resume")
    p4.add_argument("--config", required=True)
    p4.add_argument("--workers", type=int, default=None)
    p4.add_argument("--force", action="store_true",
                    help="restart the run directory on config hash mismatch")
    p4.set_defaults(handler=_cmd_pipeline)

    p5 = sub.add_parser("report", help="emit plot-ready tables for a run")
    p5.add_argument("run_dir")
    p5.set_defaults(handler=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
