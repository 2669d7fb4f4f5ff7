#!/usr/bin/env python3
"""Bisect the pump drive of one device until band-mean gain hits a target.

The default device is the optimizer output from the shipped desk run
(0.49 um^2 junction at 0.9 uA/um^2, alpha 0.23, 9 nm dielectric, loads
1.5 / 1.0, pitch 3, 360 cells) biased at its Kerr-free flux.  The search
variable is the dimensionless drive xi = I_p / (2 I_c); with the default
20 dB target it takes one RK4 solve at the xi 0.499 bracket, where the
pump depletes, plus closed-form midpoints.
"""

import argparse
import sys

import numpy as np

from twpaopt.fileio import write_csv
from twpaopt.mixing import GAIN_PROFILE_COLUMNS, DriveSpec, gain_profile, performance
from twpaopt.network import (
    CellConfig,
    DeviceParams,
    FrequencyGrid,
    dispersion,
    simulate_linear,
)
from twpaopt.snail import (
    JunctionSpec,
    SnailSpec,
    critical_current,
    expand_potential,
    kerr_free_flux,
)
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
    drv.add_argument("--tol-db", type=float, default=0.25)
    drv.add_argument("--max-iter", type=int, default=40)
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
    junction = JunctionSpec(device.junction_area, device.current_density)
    i_c = critical_current(junction)
    flux = kerr_free_flux(device.alpha)
    pump = args.pump_ghz * 1e9
    band = tuple(b * 1e9 for b in args.band_ghz)

    grid = metric_frequency_grid(
        FrequencyGrid(0.0, max(24e9, band[1]), 1e7), pump)
    resp = simulate_linear(device, flux, grid, CellConfig())
    disp = dispersion(resp, device.cell_count)
    expansion = expand_potential(
        SnailSpec(small_junction=junction, alpha=device.alpha, flux_ext=flux))
    print(f"I_c {i_c:.4g} uA, Kerr-free flux {flux:.6f} Phi_0")

    drive = DriveSpec(pump_freq=pump, signal_band=band,
                      signal_step=args.signal_step_ghz * 1e9)

    def band_gain(xi):
        profile = gain_profile(disp, expansion, drive,
                               n_cells=device.cell_count, xi=xi)
        return performance(profile), profile

    lo, hi = 1e-3, 0.499
    perf, profile = band_gain(hi)
    print(f"bracket xi {hi:.4f}: {perf:.2f} dB")
    if perf < args.target_db:
        print(f"target {args.target_db} dB unreachable below xi {hi}, "
              f"stopping at the bracket", file=sys.stderr)
        return 1
    xi = hi
    for it in range(args.max_iter):
        xi = 0.5 * (lo + hi)
        perf, profile = band_gain(xi)
        print(f"iter {it + 1:2d}  xi {xi:.5f}  band mean {perf:7.3f} dB")
        if abs(perf - args.target_db) < args.tol_db:
            break
        if perf < args.target_db:
            lo = xi
        else:
            hi = xi

    i_peak = int(np.argmax(profile.gain_db))
    print(f"working point: xi {xi:.5f} (pump {2.0 * i_c * xi:.4g} uA), "
          f"band mean {perf:.3f} dB, peak {profile.gain_db[i_peak]:.3f} dB "
          f"at {profile.freqs[i_peak] / 1e9:.3f} GHz, max pump depletion "
          f"{float(np.max(profile.pump_depletion)):.3e}")

    if args.profile_out:
        write_csv(args.profile_out, GAIN_PROFILE_COLUMNS,
                  zip(profile.freqs, profile.gain_db, profile.pump_depletion))
        print(f"profile -> {args.profile_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
