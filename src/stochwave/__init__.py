"""Spectral simulation of semilinear stochastic wave equations.

The pipeline: represent the monotone nonlinearity through its resolvent and
Yosida map, advance the regularized system with the exact wave group on the
Dirichlet sine basis, drive it with Q-covariance martingale increments, and
study the estimates of interest by Monte Carlo over the regularization scale.
"""

from .errors import ConfigError, NumericError
from .graphs import (
    CubicGraph,
    JumpGraph,
    LinearGraph,
    MonotoneGraph,
    PowerLawGraph,
    SignGraph,
    parse_graph,
)
from .noise import (
    DiffusionMap,
    MartingaleDriver,
    NuclearCovariance,
    ito_isometry_check,
    path_rng,
)
from .solver import (
    GroupCache,
    PathResult,
    SolverConfig,
    build_initial_state,
    chain_rule_check,
    duhamel_residual,
    energy,
    functional_series,
    ibp_residual,
    lyapunov,
    simulate_path,
)
from .spectral import SpectralGrid
from .studies import (
    StudyReport,
    StudySpec,
    energy_study,
    isometry_study,
    lambda_convergence_study,
    pairing_study,
    write_csv,
    write_field_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "NumericError",
    "MonotoneGraph",
    "LinearGraph",
    "PowerLawGraph",
    "CubicGraph",
    "SignGraph",
    "JumpGraph",
    "parse_graph",
    "SpectralGrid",
    "NuclearCovariance",
    "MartingaleDriver",
    "DiffusionMap",
    "path_rng",
    "ito_isometry_check",
    "GroupCache",
    "SolverConfig",
    "PathResult",
    "simulate_path",
    "functional_series",
    "duhamel_residual",
    "chain_rule_check",
    "energy",
    "lyapunov",
    "ibp_residual",
    "build_initial_state",
    "StudySpec",
    "StudyReport",
    "energy_study",
    "pairing_study",
    "lambda_convergence_study",
    "isometry_study",
    "write_csv",
    "write_field_csv",
    "__version__",
]
