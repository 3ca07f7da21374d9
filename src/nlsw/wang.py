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
three-point stencils from one table, and C = A^H, the adjoint that time
reversal produces.  A step is mi.picard with this scheme's table and cubic
term, and run_wang is mi.integrate with this scheme's operator, step and
energies.
"""

from __future__ import annotations

import functools

import numpy as np

from .diagnostics import rel_drift
from .errors import ConfigurationError
from .grid import GridSpec, as_level, backward_diff, scalar_or_rows
from .linsolve import CyclicTridiagonalSystem
from .mi import SolverConfig, StateWindow, Trajectory, integrate, picard
from .model import PdeParams


@functools.lru_cache(maxsize=8)
def _stencils(params: PdeParams, grid: GridSpec):
    """(lower, diag, upper) of the stencils acting on u^{j+1}, u^j and
    u^{j-1}; the u^{j-1} one is built as the adjoint C = A^H of the u^{j+1}
    one, what reversing time makes of A.  Cached like mi._stencils."""
    if params.gamma != 0.0 or params.theta != 0.0 or params.lam != 0.0:
        raise ConfigurationError(
            "the energy-preserving scheme covers gamma = theta = lam = 0 only; "
            f"got gamma={params.gamma}, theta={params.theta}, lam={params.lam}")
    h, tau = grid.h, grid.tau
    off = -0.5 / h ** 2
    diag = 1.0 / tau ** 2 + 1.0 / h ** 2 - 0.5j * params.alpha / tau
    return (off, diag, off), (0.0, -2.0 / tau ** 2, 0.0), (off, diag.conjugate(), off)


def assemble_wang(params: PdeParams, grid: GridSpec) -> CyclicTridiagonalSystem:
    """The cyclic tridiagonal operator of the scheme: its u^{j+1} stencil."""
    return CyclicTridiagonalSystem(*(np.full(grid.K, c) for c in _stencils(params, grid)[0]))


def _cubic(quarter_beta, u_prev, u_cur):
    """(beta/4)(|u|^2 + |u^{j-1}|^2)(u + u^{j-1}) as a function of the new level u."""
    abs2_prev = np.abs(u_prev) ** 2
    return lambda u: quarter_beta * (np.abs(u) ** 2 + abs2_prev) * (u + u_prev)


def step_wang(window: StateWindow, system, params: PdeParams, grid: GridSpec,
              config: SolverConfig):
    """Advance one level: picard with this scheme's table and cubic term,
    system the assemble_wang operator or its PreparedCyclicSolver.
    Returns (u_next, fp_iters)."""
    return picard(window, system, params, grid, config, _stencils, _cubic)


# The name run_wang steps through: benchmarks/spans.py traces wang.step under
# it, and tests/test_benchmark_hooks.py counts the calls run_wang makes to it.
_step_wang = step_wang


def kinetic_gradient(u_cur, u_next, grid: GridSpec):
    """h ||dt u||^2 + (h/2)(||dx u^{j+1}||^2 + ||dx u^j||^2), the part both
    energy variants share, summed over the last axis."""
    h = grid.h
    dt = (u_next - u_cur) / grid.tau
    return (h * np.sum(np.abs(dt) ** 2, axis=-1)
            + 0.5 * h * (np.sum(np.abs(backward_diff(u_next, h)) ** 2, axis=-1)
                         + np.sum(np.abs(backward_diff(u_cur, h)) ** 2, axis=-1)))


def energy_wang(u_cur, u_next, params: PdeParams, grid: GridSpec,
                kinetic=None) -> float:
    """The exactly conserved two-level energy of the scheme: a float for one
    pair, a float array for [..., K] stacks of pairs, row by row.  kinetic,
    if given, is kinetic_gradient(u_cur, u_next, grid), already built."""
    u_cur = as_level(u_cur, grid)
    u_next = as_level(u_next, grid)
    if kinetic is None:
        kinetic = kinetic_gradient(u_cur, u_next, grid)
    return scalar_or_rows(
        kinetic + 0.25 * params.beta * grid.h * np.sum(np.abs(u_next) ** 4
                                                       + np.abs(u_cur) ** 4, axis=-1))


def energy_wang_printed(u_cur, u_next, params: PdeParams, grid: GridSpec,
                        kinetic=None) -> float:
    """Single-level quartic variant as commonly printed; drifts, recorded
    side by side for comparison.  Stacks and kinetic as in energy_wang."""
    u_cur = as_level(u_cur, grid)
    u_next = as_level(u_next, grid)
    if kinetic is None:
        kinetic = kinetic_gradient(u_cur, u_next, grid)
    return scalar_or_rows(
        kinetic + 0.5 * params.beta * grid.h * np.sum(np.abs(u_cur) ** 4, axis=-1))


def run_wang(problem, grid: GridSpec, config: SolverConfig,
             snapshot_stride: int = 100) -> Trajectory:
    """Run the energy-preserving scheme through integrate, recording its own
    conserved energy next to the midpoint-scheme invariants, for
    side-by-side conservation comparisons, and the drift of the printed
    single-level variant."""
    params = problem.params
    meta = {"scheme": "wang"}

    def wang_energies(rows, u_cur, u_next, energy, mass, half):
        kinetic = kinetic_gradient(u_cur, u_next, grid)
        printed = energy_wang_printed(u_cur, u_next, params, grid, kinetic=kinetic)
        conserved = energy_wang(u_cur, u_next, params, grid, kinetic=kinetic)
        if rows is None:
            meta["energy_wang_ref"] = float(conserved[0])
            meta["energy_wang_printed_ref"] = float(printed[0])
            meta["energy_wang_printed_max_rel_drift"] = 0.0
            return
        for row, value in zip(rows, conserved.tolist()):
            row.energy_wang = value
        meta["energy_wang_printed_max_rel_drift"] = max(
            meta["energy_wang_printed_max_rel_drift"],
            *rel_drift(printed, meta["energy_wang_printed_ref"]).tolist())

    traj = integrate(problem, grid, config, snapshot_stride,
                     assemble_wang(params, grid), _step_wang, wang_energies)
    traj.meta.update(meta)
    return traj
