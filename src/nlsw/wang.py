"""Energy-preserving comparison scheme and its conserved discrete energy.

The comparison scheme covers the coefficient subfamily
gamma = theta = lam = 0:

    dt^2 u - (1/2)(dx^2 u^{j+1} + dx^2 u^{j-1}) - i*alpha*(u^{j+1}-u^{j-1})/(2 tau)
        + (beta/2) * (|u^{j+1}|^2 + |u^{j-1}|^2) * (u^{j+1}+u^{j-1})/2 = 0.

Multiplying by conj(u^{j+1} - u^{j-1}) and taking real parts telescopes

    E = ||dt u||^2 + (1/2)(||dx u^{j+1}||^2 + ||dx u^j||^2)
        + (beta/4) h sum (|u^{j+1}|^4 + |u^j|^4),

so that two-level quartic form is conserved exactly; the commonly quoted
single-level quartic (beta/2) h sum |u^j|^4 does not telescope and is kept
only for auditing its drift.
"""

from __future__ import annotations

import numpy as np

from . import diagnostics
from .errors import (ConfigurationError, DivergenceError, NlswError,
                     StepFailureError, UsageError)
from .grid import GridSpec, as_level, backward_diff, shift_next, shift_prev
from .linsolve import CyclicTridiagonalSystem, PreparedCyclicSolver
from .mi import SolverConfig, StateWindow, Trajectory, bootstrap, record_errors
from .model import PdeParams


def _require_compatible(params: PdeParams):
    if params.gamma != 0.0 or params.theta != 0.0 or params.lam != 0.0:
        raise ConfigurationError(
            "the energy-preserving scheme covers gamma = theta = lam = 0 only; "
            f"got gamma={params.gamma}, theta={params.theta}, lam={params.lam}")


def assemble_wang(params: PdeParams, grid: GridSpec) -> CyclicTridiagonalSystem:
    """Constant linear part acting on level j+1:
    diag 1/tau^2 + 1/h^2 - i*alpha/(2 tau), off-diagonals -1/(2 h^2)."""
    _require_compatible(params)
    h, tau = grid.h, grid.tau
    diag = 1.0 / tau ** 2 + 1.0 / h ** 2 - 0.5j * params.alpha / tau
    off = -0.5 / h ** 2
    K = grid.K
    return CyclicTridiagonalSystem(
        lower=np.full(K, off, dtype=np.complex128),
        diag=np.full(K, diag, dtype=np.complex128),
        upper=np.full(K, off, dtype=np.complex128),
    )


def _step_wang(window: StateWindow, solver: PreparedCyclicSolver,
               params: PdeParams, grid: GridSpec, config: SolverConfig):
    u_prev = as_level(window.u_prev, grid)
    u_cur = as_level(window.u_cur, grid)
    h, tau = grid.h, grid.tau
    known = ((u_prev - 2.0 * u_cur) / tau ** 2
             - 0.5 * (shift_next(u_prev) - 2.0 * u_prev + shift_prev(u_prev)) / h ** 2
             + 0.5j * params.alpha * u_prev / tau)
    if params.beta == 0.0:
        u_next = solver.solve(-known)
        if not np.isfinite(u_next).all():
            raise DivergenceError("non-finite values after linear solve")
        return u_next, 1
    abs2_prev = np.abs(u_prev) ** 2
    quarter_beta = 0.25 * params.beta
    u = 2.0 * u_cur - u_prev
    diff = np.inf
    for it in range(1, config.fp_max_iter + 1):
        cubic = quarter_beta * (np.abs(u) ** 2 + abs2_prev) * (u + u_prev)
        u_new = solver.solve(-(known + cubic))
        if not np.isfinite(u_new).all():
            raise DivergenceError("fixed-point iterate diverged to NaN/Inf")
        diff = float(np.abs(u_new - u).max())
        u = u_new
        if diff <= config.fp_tol * max(1.0, float(np.abs(u_new).max())):
            return u, it
    raise StepFailureError(
        f"fixed point not converged after {config.fp_max_iter} sweeps "
        f"(last update {diff:.3e})", residual=diff)


def step_wang(window: StateWindow, params: PdeParams, grid: GridSpec,
              config: SolverConfig) -> np.ndarray:
    """Advance one level of the energy-preserving scheme."""
    solver = PreparedCyclicSolver(assemble_wang(params, grid))
    u_next, _ = _step_wang(window, solver, params, grid, config)
    return u_next


def energy_wang(u_cur, u_next, params: PdeParams, grid: GridSpec) -> float:
    """The exactly conserved two-level energy of the scheme."""
    u_cur = as_level(u_cur, grid)
    u_next = as_level(u_next, grid)
    h, tau = grid.h, grid.tau
    dt = (u_next - u_cur) / tau
    return float(h * np.sum(np.abs(dt) ** 2)
                 + 0.5 * h * (np.sum(np.abs(backward_diff(u_next, h)) ** 2)
                              + np.sum(np.abs(backward_diff(u_cur, h)) ** 2))
                 + 0.25 * params.beta * h * np.sum(np.abs(u_next) ** 4
                                                   + np.abs(u_cur) ** 4))


def energy_wang_printed(u_cur, u_next, params: PdeParams, grid: GridSpec) -> float:
    """Single-level quartic variant as commonly printed; drifts, recorded
    side by side for comparison."""
    u_cur = as_level(u_cur, grid)
    u_next = as_level(u_next, grid)
    h, tau = grid.h, grid.tau
    dt = (u_next - u_cur) / tau
    return float(h * np.sum(np.abs(dt) ** 2)
                 + 0.5 * h * (np.sum(np.abs(backward_diff(u_next, h)) ** 2)
                              + np.sum(np.abs(backward_diff(u_cur, h)) ** 2))
                 + 0.5 * params.beta * h * np.sum(np.abs(u_cur) ** 4))


def run_wang(problem, grid: GridSpec, config: SolverConfig,
             snapshot_stride: int = 100) -> Trajectory:
    """Advance the energy-preserving scheme over the full grid, recording
    its own conserved energy plus the midpoint-scheme invariants for
    side-by-side conservation comparisons."""
    if snapshot_stride < 1:
        raise UsageError(f"snapshot_stride must be >= 1, got {snapshot_stride}")
    params = problem.params
    solver = PreparedCyclicSolver(assemble_wang(params, grid))
    u0, u1 = bootstrap(problem.f0, problem.f1, params, grid,
                       mode=config.bootstrap_mode, exact=problem.exact)
    exact_fn = problem.exact if getattr(problem, "exactness", "none") == "verified" \
        else None

    snapshots = [(0.0, u0.copy()), (grid.tau, u1.copy())]
    rows = []
    total_fp = 0
    printed_ref = energy_wang_printed(u0, u1, params, grid)
    printed_drift = 0.0
    u_prev, u_cur = u0, u1
    x = grid.nodes
    for j in range(1, grid.J):
        t_new = (j + 1) * grid.tau
        try:
            u_next, fp_iters = _step_wang(StateWindow(u_prev, u_cur, j * grid.tau),
                                          solver, params, grid, config)
            row = diagnostics.DiagnosticsRow(
                step=j + 1, t=t_new,
                energy_mi=diagnostics.mi_energy(u_cur, u_next, params, grid),
                mass_mi=diagnostics.mi_mass(u_cur, u_next, params, grid),
                energy_wang=energy_wang(u_cur, u_next, params, grid),
                fp_iters=fp_iters)
            if exact_fn is not None:
                record_errors(row, u_next, exact_fn(x, t_new), grid)
            printed = energy_wang_printed(u_cur, u_next, params, grid)
        except NlswError as exc:
            exc.step = j + 1
            raise
        total_fp += fp_iters
        rows.append(row)
        printed_drift = max(printed_drift,
                            abs(printed - printed_ref) / max(abs(printed_ref), 1e-30))
        if j % snapshot_stride == 0:
            snapshots.append((t_new, u_next.copy()))
        u_prev, u_cur = u_cur, u_next

    meta = {
        "scheme": "wang",
        "bootstrap_mode": config.bootstrap_mode,
        "nonlinear_solver": "picard",
        "total_fp_iters": total_fp,
        "energy_wang_ref": energy_wang(u0, u1, params, grid),
        "energy_wang_printed_ref": printed_ref,
        "energy_wang_printed_max_rel_drift": printed_drift,
        "energy_ref": diagnostics.mi_energy(u0, u1, params, grid),
        "mass_ref": diagnostics.mi_mass(u0, u1, params, grid),
    }
    return Trajectory(grid=grid, snapshots=snapshots, rows=rows, meta=meta)
