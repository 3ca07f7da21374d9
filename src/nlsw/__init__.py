"""Structure-preserving integrators for the nonlinear Schrodinger equation
with wave operator: a multisymplectic midpoint scheme, an energy-preserving
comparison scheme, and the discrete conservation-law diagnostics around them.
"""

from .errors import (ConfigurationError, ConsistencyError, DivergenceError,
                     IdentityValidationError, NlswError, SingularSystemError,
                     StepFailureError, UsageError)
from .grid import (GridSpec, Norms, apply_difference, as_field, build_grid,
                   inner_product, norms)
from .linsolve import (CyclicTridiagonalSystem, PreparedCyclicSolver,
                       solve_cyclic_tridiagonal)
from .model import (Densities, PdeParams, ZField, continuous_residual, grad_S,
                    hamiltonian_S, local_densities, local_law_residual,
                    reconstruct_z, structure_matrices)
from .mi import (SolverConfig, StateWindow, Trajectory, assemble_linear,
                 bootstrap, run_mi, step_mi)
from .wang import (assemble_wang, energy_wang, energy_wang_printed, run_wang,
                   step_wang)
from .diagnostics import (SERIES_COLUMNS, ContinuousInvariants, IdentityGaps,
                          IdentityOracleResult, continuous_invariants,
                          energy_rhs, mass_rhs, mass_rhs_printed, mi_energy,
                          mi_mass, run_identity_oracle, theorem_identity_gaps)
from .problems import (ErrorMetrics, ProblemSpec, PROBLEM_NAMES,
                       builtin_problem, convergence_order, customized,
                       error_metrics)

__version__ = "0.1.0"

_CLI_NAMES = ("RunConfig", "parse_config", "run_convergence", "run_experiment")


def __getattr__(name):
    # The CLI layer is imported on first use, not with the package: otherwise
    # `python -m nlsw.cli` finds nlsw.cli already imported and runpy warns on
    # stderr ahead of the run's own JSON record.
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
