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

As in mi.py, the linear part is A u^{j+1} + B u^j + C u^{j-1} with constant
three-point stencils from one table, and by time reversal C is A at -alpha.
The step kernel supplies its known terms and cubic term to mi.picard, and
run_wang is mi.integrate with this scheme's operator, kernel and energies.
"""

from __future__ import annotations

import numpy as np

from .diagnostics import rel_drift
from .errors import ConfigurationError
from .grid import GridSpec, as_level, backward_diff, stencil
from .linsolve import CyclicTridiagonalSystem, PreparedCyclicSolver
from .mi import SolverConfig, StateWindow, Trajectory, integrate, picard
from .model import PdeParams


def _stencils(params: PdeParams, grid: GridSpec):
    """(lower, diag, upper) of the stencils acting on u^{j+1}, u^j and
    u^{j-1}; by time reversal the u^{j-1} one is the u^{j+1} one at -alpha."""
    h, tau = grid.h, grid.tau
    off = -0.5 / h ** 2
    on_next, on_prev = ((off, 1.0 / tau ** 2 + 1.0 / h ** 2 - 0.5j * a / tau, off)
                        for a in (params.alpha, -params.alpha))
    return on_next, (0.0, -2.0 / tau ** 2, 0.0), on_prev


def assemble_wang(params: PdeParams, grid: GridSpec) -> CyclicTridiagonalSystem:
    """The cyclic tridiagonal operator of the scheme: its u^{j+1} stencil."""
    if params.gamma != 0.0 or params.theta != 0.0 or params.lam != 0.0:
        raise ConfigurationError(
            "the energy-preserving scheme covers gamma = theta = lam = 0 only; "
            f"got gamma={params.gamma}, theta={params.theta}, lam={params.lam}")
    return CyclicTridiagonalSystem(*(np.full(grid.K, c) for c in _stencils(params, grid)[0]))


def _step_wang(window: StateWindow, solver: PreparedCyclicSolver,
               params: PdeParams, grid: GridSpec, config: SolverConfig):
    u_prev = as_level(window.u_prev, grid)
    u_cur = as_level(window.u_cur, grid)
    _, on_cur, on_prev = _stencils(params, grid)
    known = stencil(on_cur, u_cur) + stencil(on_prev, u_prev)
    if params.beta == 0.0:
        return picard(solver, known, None, None, config)
    abs2_prev = np.abs(u_prev) ** 2
    quarter_beta = 0.25 * params.beta
    return picard(solver, known, 2.0 * u_cur - u_prev,
                  lambda u: quarter_beta * (np.abs(u) ** 2 + abs2_prev) * (u + u_prev),
                  config)


def step_wang(window: StateWindow, params: PdeParams, grid: GridSpec,
              config: SolverConfig) -> np.ndarray:
    """Advance one level of the energy-preserving scheme."""
    solver = PreparedCyclicSolver(assemble_wang(params, grid))
    u_next, _ = _step_wang(window, solver, params, grid, config)
    return u_next


def _kinetic_gradient(u_cur, u_next, grid: GridSpec):
    """h ||dt u||^2 + (h/2)(||dx u^{j+1}||^2 + ||dx u^j||^2), the part both
    energy variants share."""
    h = grid.h
    dt = (u_next - u_cur) / grid.tau
    return (h * np.sum(np.abs(dt) ** 2)
            + 0.5 * h * (np.sum(np.abs(backward_diff(u_next, h)) ** 2)
                         + np.sum(np.abs(backward_diff(u_cur, h)) ** 2)))


def energy_wang(u_cur, u_next, params: PdeParams, grid: GridSpec) -> float:
    """The exactly conserved two-level energy of the scheme."""
    u_cur = as_level(u_cur, grid)
    u_next = as_level(u_next, grid)
    return float(_kinetic_gradient(u_cur, u_next, grid)
                 + 0.25 * params.beta * grid.h * np.sum(np.abs(u_next) ** 4
                                                        + np.abs(u_cur) ** 4))


def energy_wang_printed(u_cur, u_next, params: PdeParams, grid: GridSpec) -> float:
    """Single-level quartic variant as commonly printed; drifts, recorded
    side by side for comparison."""
    u_cur = as_level(u_cur, grid)
    u_next = as_level(u_next, grid)
    return float(_kinetic_gradient(u_cur, u_next, grid)
                 + 0.5 * params.beta * grid.h * np.sum(np.abs(u_cur) ** 4))


def run_wang(problem, grid: GridSpec, config: SolverConfig,
             snapshot_stride: int = 100) -> Trajectory:
    """Run the energy-preserving scheme through integrate, recording its own
    conserved energy next to the midpoint-scheme invariants, for
    side-by-side conservation comparisons, and the drift of the printed
    single-level variant."""
    params = problem.params
    meta = {"scheme": "wang"}

    def wang_energies(row, u_cur, u_next, energy, mass):
        printed = energy_wang_printed(u_cur, u_next, params, grid)
        if row is None:
            meta["energy_wang_ref"] = energy_wang(u_cur, u_next, params, grid)
            meta["energy_wang_printed_ref"] = printed
            meta["energy_wang_printed_max_rel_drift"] = 0.0
            return
        row.energy_wang = energy_wang(u_cur, u_next, params, grid)
        meta["energy_wang_printed_max_rel_drift"] = max(
            meta["energy_wang_printed_max_rel_drift"],
            rel_drift(printed, meta["energy_wang_printed_ref"]))

    traj = integrate(problem, grid, config, snapshot_stride,
                     assemble_wang(params, grid), _step_wang, wang_energies)
    traj.meta.update(meta)
    return traj
