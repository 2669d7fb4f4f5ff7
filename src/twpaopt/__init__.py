"""Design pipeline for SNAIL-based traveling-wave parametric amplifiers.

Three stages: a linear S-parameter sweep over fabrication parameters, a
Gaussian-process surrogate search for the best device, and a coupled-mode
estimate of the three-wave-mixing gain at that device's working point.
"""

from .bayesopt import (
    GpModel,
    OptResult,
    SearchSpace,
    expected_improvement,
    fit_gp,
    optimize_metric,
    posterior,
    propose_next,
)
from .config import ConfigError, DriveConfig, RunConfig, load_config
from .metric import MetricBreakdown, MetricConfig, band_average, evaluate_metric
from .mixing import (
    DriveSpec,
    GainProfile,
    bias_device,
    coupling_constant,
    gain_profile,
    optimize_working_point,
    performance,
    solve_working_point,
)
from .network import (
    CellConfig,
    CellImmittance,
    DeviceParams,
    DispersionCurve,
    FrequencyGrid,
    TwoPortResponse,
    abcd_to_s,
    build_cells,
    cascade,
    cell_abcd,
    dispersion,
    simulate_linear,
)
from .pipeline import TOOL_VERSION, run_pipeline
from .snail import (
    JunctionSpec,
    PotentialExpansion,
    SnailSpec,
    effective_inductance,
    expand_potential,
    find_phase_minimum,
    josephson_inductance,
    kerr_free_flux,
    potential,
    potential_derivative,
)
from .sweep import (
    ParameterGrid,
    SweepConfig,
    SweepRecord,
    enumerate_grid,
    run_sweep,
    table_grid,
)
from .touchstone import read_touchstone, write_touchstone

__version__ = TOOL_VERSION

__all__ = [
    "CellConfig",
    "CellImmittance",
    "ConfigError",
    "DeviceParams",
    "DispersionCurve",
    "DriveConfig",
    "DriveSpec",
    "FrequencyGrid",
    "GainProfile",
    "GpModel",
    "JunctionSpec",
    "MetricBreakdown",
    "MetricConfig",
    "OptResult",
    "ParameterGrid",
    "PotentialExpansion",
    "RunConfig",
    "SearchSpace",
    "SnailSpec",
    "SweepConfig",
    "SweepRecord",
    "TwoPortResponse",
    "abcd_to_s",
    "band_average",
    "bias_device",
    "build_cells",
    "cascade",
    "cell_abcd",
    "coupling_constant",
    "dispersion",
    "effective_inductance",
    "enumerate_grid",
    "evaluate_metric",
    "expand_potential",
    "expected_improvement",
    "find_phase_minimum",
    "fit_gp",
    "gain_profile",
    "josephson_inductance",
    "kerr_free_flux",
    "load_config",
    "optimize_metric",
    "optimize_working_point",
    "performance",
    "posterior",
    "potential",
    "potential_derivative",
    "propose_next",
    "read_touchstone",
    "run_pipeline",
    "run_sweep",
    "simulate_linear",
    "solve_working_point",
    "table_grid",
    "write_touchstone",
    "__version__",
]
