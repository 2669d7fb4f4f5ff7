"""Run configuration: one strict JSON document, hashed into the manifest.

Keys are validated against a closed schema (unknown keys rejected, errors
carry the dotted path).  User-facing units follow fabrication conventions
(um^2, uA/um^2, nm, GHz, uA); conversion to SI happens exactly once here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .metric import MATCHING_MODES, MetricConfig
from .network import CellConfig, FrequencyGrid
from .sweep import GridDimension, ParameterGrid, table_grid

GHZ = 1e9


class ConfigError(ValueError):
    """Invalid configuration; message names the offending dotted path."""


def _fail(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


def _checked(path: str, build, **kwargs):
    """build(**kwargs), its ValueError reported as a ConfigError on path."""
    try:
        return build(**kwargs)
    except ValueError as exc:
        _fail(path, str(exc))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_number_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


# Value kinds of _Section.get: (accepts, converts, what the error expects).
NUMBER = (_is_number, float, "a number")
INTEGER = (lambda v: isinstance(v, int) and not isinstance(v, bool), int,
           "an integer")
STRING = (lambda v: isinstance(v, str), str, "a string")
BOOLEAN = (lambda v: isinstance(v, bool), bool, "true/false")
PAIR = (lambda v: _is_number_list(v) and len(v) == 2,
        lambda v: (float(v[0]), float(v[1])), "[lo, hi]")
NUMBERS = (lambda v: _is_number_list(v) and len(v) > 0,
           lambda v: tuple(map(float, v)), "a non-empty number list")


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

    def get(self, key, kind, default=_fail):
        """The value of key checked and converted as kind, else default.

        Without a default the key is required.  A default of None also
        accepts an explicit null.
        """
        accepts, convert, expected = kind
        value = self.take(key, default)
        if value is default:
            return value
        if not accepts(value):
            if default is None:
                expected += " or null"
            _fail(self._sub(key), f"expected {expected}, got {value!r}")
        return convert(value)

    def section(self, key):
        return _Section(self.take(key, {}), self._sub(key))

    def finish(self):
        if self.data:
            extra = ", ".join(sorted(self._sub(k) for k in self.data))
            raise ConfigError(f"unknown key(s): {extra}")


@dataclass(frozen=True)
class DriveConfig:
    """Stage-3 drive sweep: amplitude grid in uA plus the signal gain band.

    flux_phi0 is the configured flux bias in Phi0: ``drive.flux_phi0``, else
    ``drive.flux_current_ua`` through ``cell.mutual_phi0_per_ua``, else None
    for the Kerr-free bias of p*.
    """

    pump_amplitudes_ua: tuple
    signal_band: tuple[float, float]
    signal_step: float
    flux_phi0: float | None = None


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


def _parse_dimension(sec: _Section, default: GridDimension) -> GridDimension:
    if not sec.has(default.name):
        return default
    dim = sec.section(default.name)
    bounds = [dim.get(key, NUMBER) for key in ("min", "max", "step")]
    dim.finish()
    try:
        return GridDimension(default.name, *bounds)
    except ValueError as exc:
        # GridDimension's messages start with its name.
        raise ConfigError(f"{sec.path}.{exc}") from None


def _parse_grid(sec: _Section) -> ParameterGrid:
    grid = ParameterGrid(tuple(_parse_dimension(sec, dim)
                               for dim in table_grid().dimensions))
    sec.finish()
    return grid


def _parse_stage3_flux(drive: _Section, cell: CellConfig) -> float | None:
    """The configured stage-3 flux bias in Phi0, checked to lie in [0, 1)."""
    flux = drive.get("flux_phi0", NUMBER, None)
    current = drive.get("flux_current_ua", NUMBER, None)
    key = "drive.flux_phi0"
    if flux is None and current is not None:
        key = "drive.flux_current_ua"
        if cell.mutual_phi0_per_ua is None:
            _fail(key, "requires cell.mutual_phi0_per_ua")
        flux = current * cell.mutual_phi0_per_ua
    if flux is not None and not 0.0 <= flux < 1.0:
        _fail(key, f"flux bias must be in [0, 1) Phi0, got {flux}")
    return flux


def parse_config(data: dict) -> RunConfig:
    root = _Section(data, "")

    output_dir = root.get("output_dir", STRING)
    cell_count = root.get("cell_count", INTEGER)
    if cell_count <= 0:
        _fail("cell_count", f"must be positive, got {cell_count}")
    workers = root.get("workers", INTEGER, None)
    if workers is not None and workers < 1:
        _fail("workers", f"must be positive, got {workers}")

    grid = _parse_grid(root.section("grid"))

    cell_sec = root.section("cell")
    cell = _checked(
        "cell", CellConfig,
        pad_area=cell_sec.get("pad_area_um2", NUMBER, 30.0),
        rel_permittivity=cell_sec.get("rel_permittivity", NUMBER, 9.8),
        ref_impedance=cell_sec.get("ref_impedance_ohm", NUMBER, 50.0),
        mutual_phi0_per_ua=cell_sec.get("mutual_phi0_per_ua", NUMBER, None),
    )
    cell_sec.finish()

    freq_sec = root.section("frequency")
    start_ghz = freq_sec.get("start_ghz", NUMBER, 0.0)
    freq_grid = _checked(
        "frequency", FrequencyGrid,
        start=start_ghz * GHZ,
        stop=freq_sec.get("stop_ghz", NUMBER) * GHZ,
        step=freq_sec.get("step_ghz", NUMBER) * GHZ,
    )
    if start_ghz != 0.0:
        # Stage 1 and the report unwrap the phase of S21 from DC.
        _fail("frequency.start_ghz",
              f"must be 0: dispersion is unwrapped from DC, got {start_ghz}")
    freq_sec.finish()

    metric_sec = root.section("metric")
    mode = metric_sec.get("matching_mode", STRING)
    if mode not in MATCHING_MODES:
        _fail("metric.matching_mode",
              f"must be one of {MATCHING_MODES}, got {mode!r}")
    band = metric_sec.get("band_ghz", PAIR, (4.75, 6.75))
    metric = _checked(
        "metric", MetricConfig,
        matching_mode=mode,
        band=(band[0] * GHZ, band[1] * GHZ),
        pump_freq=metric_sec.get("pump_freq_ghz", NUMBER, 11.5) * GHZ,
        weight_a=metric_sec.get("weight_a", NUMBER, 10.0),
        weight_b=metric_sec.get("weight_b", NUMBER, 1.0),
        weight_c=metric_sec.get("weight_c", NUMBER, 10.0),
        cutoff=metric_sec.get("cutoff", NUMBER, None),
        harmonic_use_s21=metric_sec.get("harmonic_use_s21", BOOLEAN, False),
    )
    metric_sec.finish()

    bo_sec = root.section("bayesopt")
    bo_budget = bo_sec.get("budget", INTEGER, 200)
    if bo_budget < 1:
        _fail("bayesopt.budget", f"must be positive, got {bo_budget}")
    bo_seed = bo_sec.get("seed", INTEGER, 0)
    bo_sec.finish()

    drive_sec = root.section("drive")
    amplitudes = drive_sec.get(
        "pump_amplitudes_ua", NUMBERS,
        tuple(0.1 + 0.05 * i for i in range(9)),
    )
    sig_band = drive_sec.get("signal_band_ghz", PAIR, band)
    step_ghz = drive_sec.get("signal_step_ghz", NUMBER, 0.05)
    drive = DriveConfig(
        pump_amplitudes_ua=amplitudes,
        signal_band=(sig_band[0] * GHZ, sig_band[1] * GHZ),
        signal_step=step_ghz * GHZ,
        flux_phi0=_parse_stage3_flux(drive_sec, cell),
    )
    if any(a < 0 for a in amplitudes):
        _fail("drive.pump_amplitudes_ua", "amplitudes must be non-negative")
    if not 0 < drive.signal_band[0] < drive.signal_band[1] < metric.pump_freq:
        _fail("drive.signal_band_ghz",
              "band must satisfy 0 < lo < hi < pump frequency")
    if not step_ghz > 0:
        _fail("drive.signal_step_ghz", f"must be positive, got {step_ghz}")
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
