"""Two dissipatively stabilized spin-1 limit cycles with weak exchange coupling.

Numerically exact steady states and dynamics of the pair master equation,
relative-phase synchronization from Husimi distributions, entanglement and
correlation measures, and the closed-form first-order oracle used to
cross-check all of it.
"""

from .correlations import (
    SchmidtAnalysis,
    mutual_information,
    negativity,
    purity,
    schmidt_analysis,
    von_neumann_entropy,
)
from .first_order import STEADY, first_order_stack
from .liouvillian import (
    IntegrationStepError,
    NonUniqueSteadyStateError,
    SystemParams,
    Trajectory,
    build_generator,
    evolve,
    steady_state,
)
from .phasespace import (
    PhaseDistribution,
    QuadratureSpec,
    max_s_rel,
    p_single,
    s_rel,
)
from .sweep import (
    DynamicsRow,
    RegressionResult,
    SweepRecord,
    arnold_sweep,
    balanced_cut_scan,
    dynamics_trace,
    linear_regression,
    write_dynamics_csv,
    write_sweep_csv,
)

__all__ = [
    "STEADY",
    "DynamicsRow",
    "IntegrationStepError",
    "NonUniqueSteadyStateError",
    "PhaseDistribution",
    "QuadratureSpec",
    "RegressionResult",
    "SchmidtAnalysis",
    "SweepRecord",
    "SystemParams",
    "Trajectory",
    "arnold_sweep",
    "balanced_cut_scan",
    "build_generator",
    "dynamics_trace",
    "evolve",
    "first_order_stack",
    "linear_regression",
    "max_s_rel",
    "mutual_information",
    "negativity",
    "p_single",
    "purity",
    "s_rel",
    "schmidt_analysis",
    "steady_state",
    "von_neumann_entropy",
    "write_dynamics_csv",
    "write_sweep_csv",
]
