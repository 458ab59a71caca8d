"""Structured-grid simulator for a penalized nematic liquid-crystal model,
with energy-law and relative-energy (weak-strong stability) verification
tools.
"""

from .config import ConfigError, ExperimentConfig, RunConfig, load_config, parse_config
from .dynamics import (
    Ensemble,
    InitialStateError,
    ProjectionError,
    SimulationError,
    SpectralOps,
    State,
    StepperConfig,
    Trajectory,
    max_stiff_rate,
    project_divfree,
    run,
    stable_dt_bound,
)
from .energetics import (
    EnergyBreakdown,
    EnergyTrace,
    RelativeTrace,
    energy_inequality_residual,
    free_energy,
    gronwall_K,
    relative_dissipation,
    relative_energy,
    variational_derivative,
)
from .experiments import (
    ComparisonReport,
    ConvergenceReport,
    EnergyReport,
    IbpReport,
    convergence_study,
    energy_monitor,
    ibp_suite,
    weak_strong_campaign,
    weak_strong_experiment,
)
from .grid import Grid, ScalarField, TensorField, VectorField
from .initial import InitialSpec, make_initial_state
from .material import (
    InvalidParameters,
    ParameterSet,
    is_parodi,
    require_valid,
    validate,
    zeta,
)
from .snapshot import (
    SnapshotError,
    read_snapshot,
    read_trace_csv,
    write_snapshot,
    write_trace_csv,
)
from .tensor import ElasticTensor, EllipticityError

__version__ = "1.0.0"

__all__ = [
    "ComparisonReport",
    "ConfigError",
    "ConvergenceReport",
    "ElasticTensor",
    "EllipticityError",
    "EnergyBreakdown",
    "EnergyReport",
    "EnergyTrace",
    "Ensemble",
    "ExperimentConfig",
    "Grid",
    "IbpReport",
    "InitialSpec",
    "InitialStateError",
    "InvalidParameters",
    "ParameterSet",
    "ProjectionError",
    "RelativeTrace",
    "RunConfig",
    "ScalarField",
    "SimulationError",
    "SnapshotError",
    "SpectralOps",
    "State",
    "StepperConfig",
    "TensorField",
    "Trajectory",
    "VectorField",
    "convergence_study",
    "energy_inequality_residual",
    "energy_monitor",
    "free_energy",
    "gronwall_K",
    "ibp_suite",
    "is_parodi",
    "load_config",
    "make_initial_state",
    "max_stiff_rate",
    "parse_config",
    "project_divfree",
    "read_snapshot",
    "read_trace_csv",
    "relative_dissipation",
    "relative_energy",
    "require_valid",
    "run",
    "stable_dt_bound",
    "validate",
    "variational_derivative",
    "weak_strong_campaign",
    "weak_strong_experiment",
    "write_snapshot",
    "write_trace_csv",
    "zeta",
]
