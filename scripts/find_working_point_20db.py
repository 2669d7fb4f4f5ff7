#!/usr/bin/env python3
"""Solve for the pump drive of one device that meets a target band-mean gain.

The default device is the tests' reference device (0.49 um^2 junction at
0.9 uA/um^2, alpha 0.23, 9 nm dielectric, loads 1.5 / 1.0, pitch 3, 360
cells; not the desk run's p*) biased at its Kerr-free flux.  The search
variable is the dimensionless drive xi = I_p / (2 I_c), solved with
``mixing.solve_working_point``: one root-find over xi in [0.001, 0.499],
every gain profile of it the exact depleted-pump solution, so a 70 dB
target costs about what the default 20 dB one does.

Exit code 0 when the final band mean lies within --tol-db of the target,
1 when the target is unreachable below xi 0.499 or missed.
"""

import argparse
import sys

import numpy as np

from twpaopt.fileio import write_csv
from twpaopt.mixing import (
    GAIN_PROFILE_COLUMNS,
    DriveSpec,
    UnreachableTargetError,
    WorkingPointError,
    bias_device,
    solve_working_point,
)
from twpaopt.network import CellConfig, DeviceParams, FrequencyGrid
from twpaopt.snail import JunctionSpec, critical_current, kerr_free_flux
from twpaopt.sweep import metric_frequency_grid


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    dev = ap.add_argument_group("device")
    dev.add_argument("--area", type=float, default=0.49,
                     help="small-junction area, um^2")
    dev.add_argument("--density", type=float, default=0.9,
                     help="critical current density, uA/um^2")
    dev.add_argument("--alpha", type=float, default=0.23,
                     help="small / large junction size ratio")
    dev.add_argument("--thickness", type=float, default=9.0,
                     help="capacitor dielectric thickness, nm")
    dev.add_argument("--l-load", type=float, default=1.5,
                     help="loaded-cell inductance ratio")
    dev.add_argument("--c-load", type=float, default=1.0,
                     help="loaded-cell capacitance ratio")
    dev.add_argument("--pitch", type=int, default=3,
                     help="loading super-cell period")
    dev.add_argument("--cells", type=int, default=360)

    drv = ap.add_argument_group("drive")
    drv.add_argument("--pump-ghz", type=float, default=11.5)
    drv.add_argument("--band-ghz", type=float, nargs=2, default=(4.75, 6.75),
                     metavar=("LO", "HI"))
    drv.add_argument("--signal-step-ghz", type=float, default=0.05)
    drv.add_argument("--target-db", type=float, default=20.0)
    drv.add_argument("--tol-db", type=float, default=0.25,
                     help="accept the final band mean this close to the "
                          "target, dB")
    drv.add_argument("--max-iter", type=int, default=40,
                     help="iteration cap of the root-finder")
    ap.add_argument("--profile-out", default=None,
                    help="write the final gain profile CSV here "
                         "(17 significant digits)")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    device = DeviceParams(
        junction_area=args.area,
        current_density=args.density,
        alpha=args.alpha,
        dielectric_thickness=args.thickness,
        inductance_load_ratio=args.l_load,
        capacitance_load_ratio=args.c_load,
        pitch=args.pitch,
        cell_count=args.cells,
    )
    i_c = critical_current(
        JunctionSpec(device.junction_area, device.current_density))
    flux = kerr_free_flux(device.alpha)
    pump = args.pump_ghz * 1e9
    band = tuple(b * 1e9 for b in args.band_ghz)

    grid = metric_frequency_grid(
        FrequencyGrid(0.0, max(24e9, band[1]), 1e7), pump)
    biased = bias_device(device, flux, grid, CellConfig())
    print(f"I_c {i_c:.4g} uA, Kerr-free flux {flux:.6f} Phi_0")

    drive = DriveSpec(pump_freq=pump, signal_band=band,
                      signal_step=args.signal_step_ghz * 1e9)
    try:
        sol = solve_working_point(
            biased.dispersion, biased.expansion, drive, device.cell_count,
            args.target_db, args.tol_db, args.max_iter)
    except UnreachableTargetError as exc:
        print(f"bracket xi {exc.xi:.4f}: {exc.band_mean_db:.2f} dB")
        print(f"target {args.target_db} dB unreachable below xi {exc.xi}, "
              f"stopping at the bracket", file=sys.stderr)
        return 1
    except WorkingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    profile = sol.profile
    lo, hi = sol.bracket
    print(f"bracket xi {lo:.4f} .. {hi:.4f}, "
          f"{sol.gain_profile_calls} gain profiles")
    i_peak = int(np.argmax(profile.gain_db))
    print(f"working point: xi {sol.xi:.5f} (pump {2.0 * i_c * sol.xi:.4g} uA), "
          f"band mean {sol.band_mean_db:.3f} dB, peak "
          f"{profile.gain_db[i_peak]:.3f} dB at "
          f"{profile.freqs[i_peak] / 1e9:.3f} GHz, max pump depletion "
          f"{float(np.max(profile.pump_depletion)):.3e}")
    print(f"ripple {sol.ripple_db:.3f} dB, -3 dB bandwidth "
          f"{sol.bandwidth_hz / 1e9:.3f} GHz")

    if args.profile_out:
        write_csv(args.profile_out, GAIN_PROFILE_COLUMNS,
                  zip(profile.freqs, profile.gain_db, profile.pump_depletion))
        print(f"profile -> {args.profile_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
