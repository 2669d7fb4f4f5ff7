"""Run configuration: one strict JSON document, hashed into the manifest.

Keys are validated against a closed schema (unknown keys rejected, errors
carry the dotted path).  User-facing units follow fabrication conventions
(um^2, uA/um^2, nm, GHz, uA); conversion to SI happens exactly once here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .metric import MATCHING_MODES, MetricConfig
from .network import CellConfig, FrequencyGrid
from .sweep import GridDimension, ParameterGrid, table_grid

GHZ = 1e9


class ConfigError(ValueError):
    """Invalid configuration; message names the offending dotted path."""


def _fail(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


class _Section:
    """One mapping level; tracks consumed keys so leftovers can be rejected."""

    def __init__(self, data, path):
        if not isinstance(data, dict):
            _fail(path or "<root>", f"expected an object, got {type(data).__name__}")
        self.data = dict(data)
        self.path = path

    def _sub(self, key):
        return f"{self.path}.{key}" if self.path else key

    def has(self, key):
        return key in self.data

    def take(self, key, default=_fail):
        if key not in self.data:
            if default is _fail:
                _fail(self._sub(key), "required key is missing")
            return default
        return self.data.pop(key)

    def number(self, key, default=_fail):
        value = self.take(key, default)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            if value is default:
                return value
            _fail(self._sub(key), f"expected a number, got {value!r}")
        return float(value)

    def integer(self, key, default=_fail):
        value = self.take(key, default)
        if isinstance(value, bool) or not isinstance(value, int):
            if value is default:
                return value
            _fail(self._sub(key), f"expected an integer, got {value!r}")
        return int(value)

    def string(self, key, default=_fail):
        value = self.take(key, default)
        if not isinstance(value, str):
            if value is default:
                return value
            _fail(self._sub(key), f"expected a string, got {value!r}")
        return value

    def boolean(self, key, default=_fail):
        value = self.take(key, default)
        if not isinstance(value, bool):
            if value is default:
                return value
            _fail(self._sub(key), f"expected true/false, got {value!r}")
        return value

    def optional_number(self, key):
        value = self.take(key, None)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(self._sub(key), f"expected a number or null, got {value!r}")
        return float(value)

    def number_pair(self, key, default=_fail):
        value = self.take(key, default)
        if value is default:
            return value
        if (not isinstance(value, list) or len(value) != 2
                or any(isinstance(v, bool) or not isinstance(v, (int, float))
                       for v in value)):
            _fail(self._sub(key), f"expected [lo, hi], got {value!r}")
        return (float(value[0]), float(value[1]))

    def number_list(self, key, default=_fail):
        value = self.take(key, default)
        if value is default:
            return value
        if (not isinstance(value, list) or not value
                or any(isinstance(v, bool) or not isinstance(v, (int, float))
                       for v in value)):
            _fail(self._sub(key), f"expected a non-empty number list, got {value!r}")
        return tuple(float(v) for v in value)

    def section(self, key):
        return _Section(self.take(key, {}), self._sub(key))

    def finish(self):
        if self.data:
            extra = ", ".join(sorted(self._sub(k) for k in self.data))
            raise ConfigError(f"unknown key(s): {extra}")


@dataclass(frozen=True)
class DriveConfig:
    """Stage-3 drive sweep: amplitude grid in uA plus the signal gain band."""

    pump_amplitudes_ua: tuple
    signal_band: tuple[float, float]
    signal_step: float
    flux_phi0: float | None = None
    flux_current_ua: float | None = None


@dataclass(frozen=True)
class RunConfig:
    output_dir: str
    cell_count: int
    grid: ParameterGrid
    cell: CellConfig
    freq_grid: FrequencyGrid
    metric: MetricConfig
    drive: DriveConfig
    bo_budget: int = 200
    bo_seed: int = 0
    workers: int | None = None

    def with_overrides(self, **kwargs) -> "RunConfig":
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})


def _parse_dimension(sec: _Section, name: str, default: GridDimension) -> GridDimension:
    if not sec.has(name):
        return default
    dim = sec.section(name)
    bounds = dim.number("min"), dim.number("max"), dim.number("step")
    dim.finish()
    try:
        return GridDimension(name, *bounds)
    except ValueError as exc:
        # GridDimension's messages start with its name.
        raise ConfigError(f"{sec.path}.{exc}") from None


def _parse_grid(sec: _Section) -> ParameterGrid:
    defaults = table_grid()
    grid = ParameterGrid(
        a_j=_parse_dimension(sec, "A_J", defaults.a_j),
        rho_ic=_parse_dimension(sec, "rho_Ic", defaults.rho_ic),
        alpha=_parse_dimension(sec, "alpha", defaults.alpha),
        t=_parse_dimension(sec, "t", defaults.t),
        l_load=_parse_dimension(sec, "L_load", defaults.l_load),
        c_load=_parse_dimension(sec, "C_load", defaults.c_load),
        pitch=_parse_dimension(sec, "pitch", defaults.pitch),
    )
    sec.finish()
    return grid


def parse_config(data: dict) -> RunConfig:
    root = _Section(data, "")

    output_dir = root.string("output_dir")
    cell_count = root.integer("cell_count")
    if cell_count <= 0:
        _fail("cell_count", f"must be positive, got {cell_count}")
    workers = root.take("workers", None)
    if workers is not None and (isinstance(workers, bool)
                                or not isinstance(workers, int) or workers < 1):
        _fail("workers", f"expected a positive integer, got {workers!r}")

    grid = _parse_grid(root.section("grid"))

    cell_sec = root.section("cell")
    try:
        cell = CellConfig(
            pad_area=cell_sec.number("pad_area_um2", 30.0),
            rel_permittivity=cell_sec.number("rel_permittivity", 9.8),
            ref_impedance=cell_sec.number("ref_impedance_ohm", 50.0),
            mutual_phi0_per_ua=cell_sec.optional_number("mutual_phi0_per_ua"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        _fail("cell", str(exc))
    cell_sec.finish()

    freq_sec = root.section("frequency")
    try:
        freq_grid = FrequencyGrid(
            start=freq_sec.number("start_ghz", 0.0) * GHZ,
            stop=freq_sec.number("stop_ghz") * GHZ,
            step=freq_sec.number("step_ghz") * GHZ,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        _fail("frequency", str(exc))
    freq_sec.finish()

    metric_sec = root.section("metric")
    mode = metric_sec.string("matching_mode")
    if mode not in MATCHING_MODES:
        _fail("metric.matching_mode",
              f"must be one of {MATCHING_MODES}, got {mode!r}")
    band = metric_sec.number_pair("band_ghz", (4.75, 6.75))
    try:
        metric = MetricConfig(
            matching_mode=mode,
            band=(band[0] * GHZ, band[1] * GHZ),
            pump_freq=metric_sec.number("pump_freq_ghz", 11.5) * GHZ,
            weight_a=metric_sec.number("weight_a", 10.0),
            weight_b=metric_sec.number("weight_b", 1.0),
            weight_c=metric_sec.number("weight_c", 10.0),
            cutoff=metric_sec.optional_number("cutoff"),
            harmonic_use_s21=metric_sec.boolean("harmonic_use_s21", False),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        _fail("metric", str(exc))
    metric_sec.finish()

    bo_sec = root.section("bayesopt")
    bo_budget = bo_sec.integer("budget", 200)
    if bo_budget < 1:
        _fail("bayesopt.budget", f"must be positive, got {bo_budget}")
    bo_seed = bo_sec.integer("seed", 0)
    bo_sec.finish()

    drive_sec = root.section("drive")
    amplitudes = drive_sec.number_list(
        "pump_amplitudes_ua",
        tuple(0.1 + 0.05 * i for i in range(9)),
    )
    sig_band = drive_sec.number_pair("signal_band_ghz", band)
    drive = DriveConfig(
        pump_amplitudes_ua=amplitudes,
        signal_band=(sig_band[0] * GHZ, sig_band[1] * GHZ),
        signal_step=drive_sec.number("signal_step_ghz", 0.05) * GHZ,
        flux_phi0=drive_sec.optional_number("flux_phi0"),
        flux_current_ua=drive_sec.optional_number("flux_current_ua"),
    )
    if any(a < 0 for a in amplitudes):
        _fail("drive.pump_amplitudes_ua", "amplitudes must be non-negative")
    if not 0 < drive.signal_band[0] < drive.signal_band[1] < metric.pump_freq:
        _fail("drive.signal_band_ghz",
              "band must satisfy 0 < lo < hi < pump frequency")
    drive_sec.finish()

    root.finish()
    return RunConfig(
        output_dir=output_dir,
        cell_count=cell_count,
        grid=grid,
        cell=cell,
        freq_grid=freq_grid,
        metric=metric,
        drive=drive,
        bo_budget=bo_budget,
        bo_seed=bo_seed,
        workers=workers,
    )


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON (line {exc.lineno}, "
            f"column {exc.colno}): {exc.msg}"
        ) from exc
    return parse_config(data)
