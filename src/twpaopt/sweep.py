"""Stage 1: exhaustive metric evaluation over the device parameter grid.

The grid spans seven dimensions (junction area, current density, alpha,
dielectric thickness, the two load ratios, pitch) enumerated
lexicographically with the first dimension slowest.  Every point is biased
at its own Kerr-free flux, simulated, scored, and appended to a checkpoint
so an interrupted sweep resumes without recomputation.  Points are
simulated CHUNK_POINTS at a time, each pitch in a chunk as one batch that
is validated (``sparam_faults``) and scored (``score_batch``) as arrays; a
point's record does not depend on the batch it was computed in.  Each
chunk's records go to the checkpoint in one write.

Analysis helpers reduce the record table to a Pearson correlation matrix
and per-dimension histograms weighted by inverse metric, both over the
subset that survives a metric cutoff.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import itertools
import json
import math
import operator
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .fileio import write_csv
from .metric import MetricBreakdown, MetricConfig, score_batch
from .network import (
    CellConfig,
    DeviceParams,
    DispersionCurve,
    FrequencyGrid,
    SimulationError,
    linear_sparams,
    sparam_faults,
    wavenumbers,
)
from .snail import kerr_free_flux


class Dimension(NamedTuple):
    """A design dimension's names and the kind that converts its values to
    the DeviceParams field's type (``round`` gives the nearest int)."""

    name: str
    column: str
    field: str
    kind: Callable


#: The design dimensions in canonical order, which is also the order of
#: the DeviceParams fields before cell_count.
DIMENSIONS = (
    Dimension("A_J", "A_J_um2", "junction_area", float),
    Dimension("rho_Ic", "rho_Ic_uA_um2", "current_density", float),
    Dimension("alpha", "alpha", "alpha", float),
    Dimension("t", "t_nm", "dielectric_thickness", float),
    Dimension("L_load", "L_load", "inductance_load_ratio", float),
    Dimension("C_load", "C_load", "capacitance_load_ratio", float),
    Dimension("pitch", "pitch", "pitch", round),
)

#: Grid dimension names in canonical order; also the parameter column
#: order of every artifact that carries device parameters.
DIMENSION_NAMES = tuple(d.name for d in DIMENSIONS)

#: Stage-1 CSV columns of the device parameters, in DIMENSION_NAMES order.
PARAM_COLUMNS = tuple(d.column for d in DIMENSIONS)

_KINDS = tuple(d.kind for d in DIMENSIONS)
# operator.call is new in Python 3.11.
_call = getattr(operator, "call", lambda kind, value: kind(value))

#: Consecutive pending points simulated together by run_sweep.  Larger
#: chunks save little time and hold more (chunk x frequency) arrays.
CHUNK_POINTS = 16

#: Stage-1 CSV header.
CSV_COLUMNS = (
    "index",
    *PARAM_COLUMNS,
    "flux_ext_phi0",
    "matching_term",
    "phase_term",
    "harmonic_term",
    "metric_total",
    "failed",
    "wall_time_s",
)


@dataclass(frozen=True)
class GridDimension:
    """One swept dimension: uniform values min + step * i up to max.

    The step must divide max - min to within the 1e-9 slack that
    ``FrequencyGrid.points`` allows, so the last value is max.
    """

    name: str
    minimum: float
    maximum: float
    step: float

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError(f"{self.name}: step must be positive")
        if self.maximum < self.minimum:
            raise ValueError(f"{self.name}: max below min")
        steps = (self.maximum - self.minimum) / self.step
        if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9):
            raise ValueError(f"{self.name}: step {self.step} does not divide "
                             f"max - min = {self.maximum - self.minimum}")

    @property
    def count(self) -> int:
        return int(round((self.maximum - self.minimum) / self.step)) + 1

    def values(self) -> np.ndarray:
        return self.minimum + self.step * np.arange(self.count)


@dataclass(frozen=True)
class ParameterGrid:
    """The full seven-dimensional design grid, one GridDimension per entry
    of DIMENSION_NAMES, in that order."""

    dimensions: tuple[GridDimension, ...]

    def __post_init__(self):
        names = tuple(d.name for d in self.dimensions)
        if names != DIMENSION_NAMES:
            raise ValueError(
                f"grid dimensions {names} are not {DIMENSION_NAMES}")

    def __getitem__(self, name: str) -> GridDimension:
        return self.dimensions[DIMENSION_NAMES.index(name)]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(d.count for d in self.dimensions)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))


def table_grid() -> ParameterGrid:
    """The production design grid (38 720 points)."""
    # (min, max, step) in DIMENSION_NAMES order.
    bounds = (
        (0.1, 0.6, 0.05),    # A_J, um^2
        (0.5, 1.5, 0.1),     # rho_Ic, uA/um^2
        (0.23, 0.25, 0.02),  # alpha
        (1.0, 20.0, 1.0),    # t, nm
        (1.5, 2.0, 0.5),     # L_load
        (1.0, 1.5, 0.5),     # C_load
        (2.0, 3.0, 1.0),     # pitch
    )
    return ParameterGrid(tuple(
        GridDimension(name, *b) for name, b in zip(DIMENSION_NAMES, bounds)))


def device_from_values(values, cell_count: int) -> DeviceParams:
    """The device with values in DIMENSION_NAMES order, each converted to
    its dimension's kind."""
    return DeviceParams(*map(_call, _KINDS, values), int(cell_count))


def enumerate_grid(grid: ParameterGrid, cell_count: int) -> list[DeviceParams]:
    """All grid points in lexicographic order (first dimension slowest)."""
    axes = [[float(v) for v in d.values()] for d in grid.dimensions]
    return [device_from_values(values, cell_count)
            for values in itertools.product(*axes)]


@dataclass(frozen=True)
class SweepConfig:
    """Simulation settings shared by every sweep point."""

    cell_count: int
    freq_grid: FrequencyGrid
    cell: CellConfig = field(default_factory=CellConfig)


@dataclass
class SweepRecord:
    """Outcome of one grid point."""

    index: int
    params: DeviceParams
    flux_ext: float
    breakdown: MetricBreakdown | None
    failed: bool
    error: str = ""
    wall_time: float = 0.0

    @property
    def metric_total(self) -> float:
        return self.breakdown.total if self.breakdown is not None else math.inf


def metric_frequency_grid(grid: FrequencyGrid, pump_freq: float) -> FrequencyGrid:
    """Extend the configured grid so the metric's 2 f_p sample is covered."""
    stop = max(grid.stop, 2.0 * pump_freq + 1e9)
    return FrequencyGrid(start=grid.start, stop=stop, step=grid.step)


def _evaluate_batch(
    points: list[DeviceParams],
    fluxes: list[float],
    sweep_cfg: SweepConfig,
    metric_cfg: MetricConfig,
) -> list[MetricBreakdown | Exception]:
    """Simulate and score devices that share pitch and cell count.

    One cascade, one ABCD to S conversion, one validation, one phase
    unwrap and one ``score_batch`` serve the whole batch.  A row that fails
    validation gets its SimulationError and is left out of the rest.
    Returns a breakdown or the raised exception per device.  When a
    batched step raises, each device is redone as a batch of one, so a
    failing point fails alone and with the message it gets on its own.
    """
    grid = metric_frequency_grid(sweep_cfg.freq_grid, metric_cfg.pump_freq)
    freqs = grid.freqs()
    try:
        sparams = linear_sparams(points, fluxes, grid, sweep_cfg.cell)
        faults = sparam_faults(freqs, sparams)
        ok = [row for row, fault in enumerate(faults) if fault is None]
        scores = []
        if ok:
            s11, s21 = sparams[0][ok], sparams[1][ok]
            k = wavenumbers(freqs, s21, points[0].cell_count)
            scores = score_batch(freqs, s11, s21,
                                 DispersionCurve(freqs=freqs, k=k), metric_cfg)
    except Exception as exc:
        if len(points) == 1:
            return [exc]
        return [result for p, f in zip(points, fluxes)
                for result in _evaluate_batch([p], [f], sweep_cfg, metric_cfg)]

    scored = iter(scores)
    return [next(scored) if fault is None else SimulationError(fault)
            for fault in faults]


def evaluate_point(
    params: DeviceParams,
    flux_ext: float,
    sweep_cfg: SweepConfig,
    metric_cfg: MetricConfig,
) -> MetricBreakdown:
    """Simulate one device at its flux bias and score it: a batch of one."""
    (result,) = _evaluate_batch([params], [flux_ext], sweep_cfg, metric_cfg)
    if isinstance(result, Exception):
        raise result
    return result


def _run_chunk(args):
    """(index, breakdown, error, wall time) per point of one chunk.

    The chunk's points are batched by pitch; each record's wall time is
    the chunk's time divided by its size.
    """
    indices, points, fluxes, sweep_cfg, metric_cfg = args
    t0 = time.perf_counter()
    results = {}
    groups: dict[int, list[int]] = {}
    for j, p in enumerate(points):
        groups.setdefault(p.pitch, []).append(j)
    for members in groups.values():
        outcomes = _evaluate_batch(
            [points[j] for j in members], [fluxes[j] for j in members],
            sweep_cfg, metric_cfg)
        results.update(zip(members, outcomes))
    wall = (time.perf_counter() - t0) / len(points)
    out = []
    for j, index in enumerate(indices):
        result = results[j]
        if isinstance(result, Exception):
            out.append((index, None, f"{type(result).__name__}: {result}", wall))
        else:
            out.append((index, result, "", wall))
    return out


def _checkpoint_line(rec: SweepRecord) -> str:
    doc = {
        "index": rec.index,
        "flux_ext": rec.flux_ext,
        "failed": rec.failed,
        "error": rec.error,
        "wall_time": rec.wall_time,
    }
    if rec.breakdown is not None:
        doc["breakdown"] = rec.breakdown.to_doc()
    return json.dumps(doc)


def _record_from_checkpoint(doc, params: DeviceParams) -> SweepRecord:
    return SweepRecord(
        index=doc["index"],
        params=params,
        flux_ext=doc["flux_ext"],
        breakdown=(MetricBreakdown.from_doc(doc["breakdown"])
                   if "breakdown" in doc else None),
        failed=doc["failed"],
        error=doc.get("error", ""),
        wall_time=doc.get("wall_time", 0.0),
    )


def _ends_with_newline(path) -> bool:
    with open(path, "rb") as fh:
        fh.seek(-1, 2)
        return fh.read(1) == b"\n"


def load_checkpoint(path, points: list[DeviceParams]) -> dict[int, SweepRecord]:
    """Completed records keyed by grid index; ignores a trailing torn line."""
    done: dict[int, SweepRecord] = {}
    path = Path(path)
    if not path.exists():
        return done
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue
            idx = doc["index"]
            if 0 <= idx < len(points):
                done[idx] = _record_from_checkpoint(doc, points[idx])
    return done


def run_sweep(
    grid: ParameterGrid,
    sweep_cfg: SweepConfig,
    metric_cfg: MetricConfig,
    workers: int = 1,
    checkpoint_path=None,
    progress=None,
) -> list[SweepRecord]:
    """Evaluate every grid point; returns records in grid order.

    Pending points go CHUNK_POINTS at a time through _run_chunk (mapped
    over ``workers`` processes when there are several).  The metric values
    are a pure function of (grid, configs), whatever the chunking; the only
    non-deterministic field is the wall time, each chunk's time divided by
    its size.  With a checkpoint path, completed points are appended as one
    JSON line each, in one write and flush per chunk, and an interrupted
    sweep resumes exactly where it stopped; a torn last line is skipped.
    ``progress(done, total)`` is called after each new record, with done
    counting the resumed records too.
    """
    points = enumerate_grid(grid, sweep_cfg.cell_count)
    fluxes = [kerr_free_flux(p.alpha) for p in points]

    done = load_checkpoint(checkpoint_path, points) if checkpoint_path else {}
    pending = [i for i in range(len(points)) if i not in done]

    records: dict[int, SweepRecord] = dict(done)
    tasks = (
        (chunk, [points[i] for i in chunk], [fluxes[i] for i in chunk],
         sweep_cfg, metric_cfg)
        for chunk in (pending[s:s + CHUNK_POINTS]
                      for s in range(0, len(pending), CHUNK_POINTS))
    )
    with contextlib.ExitStack() as stack:
        ckpt_fh = None
        if checkpoint_path:
            ckpt_fh = stack.enter_context(open(checkpoint_path, "a"))
            # An interrupted run can leave a torn final line; start the next
            # record on a fresh line so it stays parseable.
            if ckpt_fh.tell() > 0 and not _ends_with_newline(checkpoint_path):
                ckpt_fh.write("\n")
        if workers > 1:
            pool = stack.enter_context(
                concurrent.futures.ProcessPoolExecutor(max_workers=workers))
            chunks = pool.map(_run_chunk, tasks)
        else:
            chunks = map(_run_chunk, tasks)
        for chunk in chunks:
            done_chunk = [
                SweepRecord(
                    index=index,
                    params=points[index],
                    flux_ext=fluxes[index],
                    breakdown=breakdown,
                    failed=breakdown is None,
                    error=err,
                    wall_time=wall,
                )
                for index, breakdown, err, wall in chunk
            ]
            if ckpt_fh:
                ckpt_fh.write("".join(_checkpoint_line(rec) + "\n"
                                      for rec in done_chunk))
                ckpt_fh.flush()
            for rec in done_chunk:
                records[rec.index] = rec
                if progress:
                    progress(len(records), len(points))

    return [records[i] for i in range(len(points))]


#: params_as_row(device): the device's values in DIMENSION_NAMES order,
#: each of its dimension's kind.
params_as_row = operator.attrgetter(*(d.field for d in DIMENSIONS))


def write_records_csv(path, records: list[SweepRecord]):
    """Stage-1 record table with the canonical column set.

    A failed record carries inf in every metric column.
    """

    def row(r: SweepRecord):
        b = r.breakdown
        terms = ((b.matching_term, b.phase_term, b.harmonic_term, b.total)
                 if b is not None else (math.inf,) * 4)
        return (r.index, *params_as_row(r.params), r.flux_ext, *terms,
                r.failed, r.wall_time)

    write_csv(path, CSV_COLUMNS, map(row, records))


def read_records_csv(path):
    """Parse a stage-1 CSV into (params dict, metric_total, failed) tuples.

    The file is written atomically, so a row with the wrong column count
    is damage: it raises ValueError naming the path and line.
    """
    params_at = operator.itemgetter(*map(CSV_COLUMNS.index, PARAM_COLUMNS))
    total_at = CSV_COLUMNS.index("metric_total")
    failed_at = CSV_COLUMNS.index("failed")
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected sweep CSV header in {path}")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != len(CSV_COLUMNS):
                raise ValueError(
                    f"{path}, line {lineno}: {len(parts)} columns, expected "
                    f"{len(CSV_COLUMNS)}")
            params = dict(zip(DIMENSION_NAMES, map(float, params_at(parts))))
            rows.append((params, float(parts[total_at]),
                         parts[failed_at] == "true"))
    return rows


def filter_by_cutoff(records: list[SweepRecord], cutoff: float) -> list[SweepRecord]:
    """Records with metric strictly below the cutoff; failures never pass."""
    if not cutoff > 0:
        raise ValueError("cutoff must be positive")
    return [r for r in records if r.metric_total < cutoff]


def correlation_matrix(records: list[SweepRecord]):
    """Pearson correlation of the seven parameter columns.

    Constant columns get zero off-diagonal correlation by convention and are
    reported in the flag list; the diagonal stays 1.  Returns
    (matrix, flagged dimension names).
    """
    if not records:
        raise ValueError("correlation requires a non-empty record subset")
    data = np.array([params_as_row(r.params) for r in records], dtype=float)
    std = data.std(axis=0)
    constant = std == 0.0
    centered = data - data.mean(axis=0)
    n = len(DIMENSION_NAMES)
    corr = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            if constant[i] or constant[j]:
                corr[i, j] = corr[j, i] = 0.0
            else:
                cov = float(np.mean(centered[:, i] * centered[:, j]))
                corr[i, j] = corr[j, i] = cov / (std[i] * std[j])
    flags = [DIMENSION_NAMES[i] for i in range(n) if constant[i]]
    return corr, flags


def weighted_histograms(grid: ParameterGrid, records: list[SweepRecord]):
    """Inverse-metric-weighted histograms over the grid values per dimension.

    Each record contributes weight 1 / metric_total to the bin of its value
    in every dimension.  Records with non-positive metric are excluded and
    counted; failed records carry infinite metric and contribute nothing.
    """
    used = [r for r in records if not r.metric_total <= 0]
    weights = 1.0 / np.array([r.metric_total for r in used], dtype=float)
    bins = np.unravel_index(np.array([r.index for r in used], dtype=np.intp),
                            grid.shape)
    # bincount adds the weights into each bin in record order.
    histograms = [
        {
            "name": d.name,
            "values": [float(v) for v in d.values()],
            "weights": [float(w) for w in np.bincount(
                bins[axis], weights=weights, minlength=d.count)],
        }
        for axis, d in enumerate(grid.dimensions)
    ]
    return histograms, len(records) - len(used)


@dataclass
class AnalysisReport:
    """Correlation + histogram summary of the surviving subset."""

    correlation: np.ndarray
    constant_dims: list[str]
    histograms: list[dict]
    filtered_count: int
    cutoff: float | None
    excluded_nonpositive: int

    def to_document(self) -> dict:
        return {
            "dimensions": list(DIMENSION_NAMES),
            "cutoff": self.cutoff,
            "filtered_count": self.filtered_count,
            "excluded_nonpositive": self.excluded_nonpositive,
            "correlation": [[float(x) for x in row] for row in self.correlation],
            "constant_dims": list(self.constant_dims),
            "histograms": self.histograms,
        }


def build_analysis(
    grid: ParameterGrid, records: list[SweepRecord], cutoff: float | None
) -> AnalysisReport:
    """Reduce sweep records to an analysis report.

    With a cutoff, statistics cover the surviving subset.  Without one, or
    when no record passes it, they cover every non-failed record and the
    report's cutoff is None.
    """
    subset = [] if cutoff is None else filter_by_cutoff(records, cutoff)
    if not subset:
        cutoff = None
        subset = [r for r in records if not r.failed]
    if not subset:
        raise ValueError("analysis requires at least one successful record")
    corr, flags = correlation_matrix(subset)
    histograms, excluded = weighted_histograms(grid, subset)
    return AnalysisReport(
        correlation=corr,
        constant_dims=flags,
        histograms=histograms,
        filtered_count=len(subset),
        cutoff=cutoff,
        excluded_nonpositive=excluded,
    )
