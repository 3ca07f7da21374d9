"""Reduced multisymplectic midpoint time stepper, and the run driver that
both schemes share.

Eliminating the auxiliary variables of the box-form midpoint integrator
leaves a two-step update for u alone, A u^{j+1} + B u^j + C u^{j-1} plus
cubic half-node terms = 0, with constant three-point stencils A, B, C from
one table.  The scheme is a discrete Euler-Lagrange equation, so C = A^H,
the adjoint that time reversal produces.  Each step runs a Picard iteration
around the frozen operator A, factored once per run, so every sweep costs
one banded solve.

picard is the one step kernel and integrate the one run loop; each scheme
supplies only its stencil table, cubic term, operator and per-step columns.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics, problems
from .errors import (ConfigurationError, DivergenceError, NlswError,
                     StepFailureError, UsageError)
from .grid import (GridSpec, as_field, as_level, central_diff, half_average,
                   is_number, pair_sum, second_diff, stencil)
from .linsolve import CyclicTridiagonalSystem, PreparedCyclicSolver
from .model import PdeParams

BOOTSTRAP_MODES = ("taylor2", "exact")

# Complex values per block of levels whose diagnostics integrate evaluates in
# one pass: B = max(1, BLOCK_VALUES // K) pairs, so at small K one call serves
# many steps and at K >= BLOCK_VALUES every step is its own block.
BLOCK_VALUES = 4096


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-point controls and the choice of second initial level."""

    fp_tol: float = 1e-13
    fp_max_iter: int = 100
    bootstrap_mode: str = "taylor2"

    def __post_init__(self):
        if not (is_number(self.fp_tol) and self.fp_tol > 0):
            raise ConfigurationError(f"fp_tol must be positive, got {self.fp_tol!r}")
        if not is_number(self.fp_max_iter, numbers.Integral) or self.fp_max_iter < 1:
            raise ConfigurationError(
                f"fp_max_iter must be an integer >= 1, got {self.fp_max_iter!r}")
        if self.bootstrap_mode not in BOOTSTRAP_MODES:
            raise ConfigurationError(
                f"bootstrap_mode must be one of {BOOTSTRAP_MODES}, "
                f"got {self.bootstrap_mode!r}")


@dataclass(frozen=True)
class StateWindow:
    """Two consecutive levels (u^{j-1}, u^j) driving the two-step update."""

    u_prev: np.ndarray
    u_cur: np.ndarray
    t_cur: float


@dataclass
class Trajectory:
    """Snapshots at a configured stride plus the per-step diagnostics."""

    grid: GridSpec
    snapshots: list
    rows: list
    meta: dict = field(default_factory=dict)


def bootstrap(f0, f1, params: PdeParams, grid: GridSpec, mode: str = "taylor2",
              exact=None):
    """Build the two starting levels (u^0, u^1) from the initial data.

    u^0 samples f0 at the nodes.  taylor2 expands
    u^1 = u^0 + tau*f1 + (tau^2/2)*u_tt with u_tt taken from the PDE,
        u_tt = u_xx - gamma*u_tx + i*alpha*u_t + i*theta*u_x
               - lam*u - beta*|u|^2 u,
    spatial derivatives by second-order periodic differences and
    u_tx = (f1)_x.  exact samples the supplied solution at t = tau.
    """
    if mode not in BOOTSTRAP_MODES:
        raise ConfigurationError(f"unknown bootstrap mode {mode!r}")
    x = grid.nodes
    u0 = as_field(np.asarray(f0(x), dtype=np.complex128), grid)
    if mode == "exact":
        if exact is None:
            raise ConfigurationError("bootstrap mode 'exact' needs the exact solution")
        u1 = as_field(np.asarray(exact(x, grid.tau), dtype=np.complex128), grid)
        return u0, u1
    v0 = as_field(np.asarray(f1(x), dtype=np.complex128), grid)
    utt = (second_diff(u0, grid.h)
           - params.gamma * central_diff(v0, grid.h)
           + 1j * params.alpha * v0
           + 1j * params.theta * central_diff(u0, grid.h)
           - params.lam * u0
           - params.beta * np.abs(u0) ** 2 * u0)
    u1 = u0 + grid.tau * v0 + 0.5 * grid.tau ** 2 * utt
    return u0, u1


@functools.lru_cache(maxsize=8)
def _stencils(params: PdeParams, grid: GridSpec):
    """(lower, diag, upper) of the stencils acting on u^{j+1}, u^j and
    u^{j-1}.  The u^{j-1} stencil is built as the adjoint C = A^H of the
    u^{j+1} one, what reversing time (negating alpha and gamma) makes of A.

    Cached: params and grid are frozen, and a run asks for the same table on
    every step."""
    h, tau = grid.h, grid.tau
    a, th, lam = params.alpha, params.theta, params.lam
    diag = 0.5 / tau ** 2 + 0.5 / h ** 2 - 0.25j * a / tau + 0.125 * lam
    off = 0.25 / tau ** 2 - 0.25 / h ** 2 - 0.125j * a / tau + lam / 16.0
    skew = 0.125j * th / h - 0.25 * params.gamma / (tau * h)
    lower, upper = off + skew, off - skew
    off = -0.5 / tau ** 2 - 0.5 / h ** 2 + 0.125 * lam
    skew = 0.25j * th / h
    return ((lower, diag, upper),
            (off + skew, -1.0 / tau ** 2 + 1.0 / h ** 2 + 0.25 * lam, off - skew),
            (upper.conjugate(), diag.conjugate(), lower.conjugate()))


def assemble_linear(params: PdeParams, grid: GridSpec) -> CyclicTridiagonalSystem:
    """The cyclic tridiagonal operator of the scheme: its u^{j+1} stencil."""
    return CyclicTridiagonalSystem(*(np.full(grid.K, c) for c in _stencils(params, grid)[0]))


def _known_terms(u_prev, u_cur, params: PdeParams, grid: GridSpec, table=_stencils):
    """All linear scheme terms living on levels j and j-1, from table."""
    _, on_cur, on_prev = table(params, grid)
    return stencil(on_cur, u_cur) + stencil(on_prev, u_prev)


def _cubic_pair(level_mean):
    """Pair-sum of |.|^2 (.) over the half-node means of a temporal mean."""
    y = half_average(level_mean)
    return pair_sum(np.abs(y) ** 2 * y)


def _cubic(quarter_beta, u_prev, u_cur):
    """The nonlinear term as a function of the new level: the pair of cubic
    half-node sums, the lagged one built once, the new one per iterate."""
    lagged = _cubic_pair(0.5 * (u_prev + u_cur))
    return lambda u: quarter_beta * (lagged + _cubic_pair(0.5 * (u_cur + u)))


def picard(window: StateWindow, system, params: PdeParams, grid: GridSpec,
           config: SolverConfig, table, cubic):
    """The step of both schemes: solve A u + B u^j + C u^{j-1} + N(u) = 0
    for the new level u, with (A, B, C) = table(params, grid) and system A or
    its PreparedCyclicSolver (A is factored here).  Returns (u, sweeps).

    beta = 0 makes one solve exact.  Otherwise N = cubic(beta/4, u^{j-1},
    u^j) is built once, the iteration starts from 2 u^j - u^{j-1}, and every
    sweep re-evaluates N at the current iterate and solves the frozen linear
    system, stopping once the sup-norm change drops below
    fp_tol * max(1, |iterate|).
    """
    solver = system if isinstance(system, PreparedCyclicSolver) \
        else PreparedCyclicSolver(system)
    u_prev = as_level(window.u_prev, grid)
    u_cur = as_level(window.u_cur, grid)
    known = _known_terms(u_prev, u_cur, params, grid, table)
    # An overflow inside the cubic term is reported from the non-finite
    # right-hand side below, and one inside a solve by the solver itself
    # (SingularSystemError), so the overflow stays quiet.
    with np.errstate(over="ignore", invalid="ignore"):
        if params.beta == 0.0:
            return solver.solve(-known), 1
        nonlinear = cubic(0.25 * params.beta, u_prev, u_cur)
        u = 2.0 * u_cur - u_prev
        diff = np.inf
        for it in range(1, config.fp_max_iter + 1):
            rhs = -(known + nonlinear(u))
            if not np.isfinite(rhs).all():
                raise DivergenceError(
                    f"fixed-point iterate diverged: non-finite nonlinear term "
                    f"in sweep {it}")
            u_new = solver.solve(rhs)
            diff = float(np.abs(u_new - u).max())
            peak = float(np.abs(u_new).max())
            u = u_new
            if diff <= config.fp_tol * max(1.0, peak):
                return u, it
    raise StepFailureError(
        f"fixed point not converged after {config.fp_max_iter} sweeps "
        f"(last update {diff:.3e})", residual=diff)


def step_mi(window: StateWindow, system, params: PdeParams, grid: GridSpec,
            config: SolverConfig):
    """Advance one level: picard with this scheme's table and cubic term,
    system the assemble_linear operator or its PreparedCyclicSolver.
    Returns (u_next, fp_iters)."""
    return picard(window, system, params, grid, config, _stencils, _cubic)


def integrate(problem, grid: GridSpec, config: SolverConfig,
              snapshot_stride: int, system, step, observe) -> Trajectory:
    """The run loop of both schemes: factor the operator `system` once,
    bootstrap, then advance J-1 steps with the scheme's step
    step(window, solver, params, grid, config) -> (u_next, fp_iters).

    Every row holds the midpoint invariants E^{j+1/2} and Q^{j+1/2} of its
    pair, and the error metrics when the problem carries a verified exact
    solution.  None of them feeds back into the stepping, so they are
    evaluated a block at a time: each new level is copied into a
    (B+1, K) buffer, B = max(1, BLOCK_VALUES // K), whose B pairs of
    consecutive rows are evaluated as [B, K] stacks (see diagnostics) once
    it fills and once more at the end of the run.  Per block, the half-node
    fields are built once by diagnostics.half_nodes and handed to both
    invariants and to the observer, and the exact solution is evaluated once
    on the column of the block's times.  The scheme's own columns come from
    observe(rows, u_cur, u_next, energy, mass, half): rows is the block's
    list of rows (None for the bootstrap pair, evaluated first on its own),
    u_cur and u_next the [n, K] stacks of its pairs, energy and mass their
    invariants as float arrays and half their half-node fields.

    A failure names its step.  A realness guard that fires on row i of a
    block names the block's first step plus i, and a failing step first
    evaluates the block's completed steps, so the earliest failure in step
    order is the one reported.  Rows are labelled by the produced level
    index (2..J); snapshots, copies of the levels, hold the two bootstrap
    levels and then every snapshot_stride-th step.
    """
    if not is_number(snapshot_stride, numbers.Integral) or snapshot_stride < 1:
        raise UsageError(
            f"snapshot_stride must be an integer >= 1, got {snapshot_stride!r}")
    params = problem.params
    solver = PreparedCyclicSolver(system)
    u0, u1 = bootstrap(problem.f0, problem.f1, params, grid,
                       mode=config.bootstrap_mode, exact=problem.exact)
    exact_fn = problem.exact if getattr(problem, "exactness", "none") == "verified" \
        else None
    x = grid.nodes

    def evaluate(levels, rows):
        """Diagnostics of the pairs of consecutive levels, written into rows;
        returns the pairs' invariants."""
        u_cur, u_next = levels[:-1], levels[1:]
        half = diagnostics.half_nodes(u_cur, u_next, grid)
        energy = diagnostics.mi_energy(u_cur, u_next, params, grid, half=half)
        mass = diagnostics.mi_mass(u_cur, u_next, params, grid, half=half)
        observe(rows, u_cur, u_next, energy, mass, half)
        if rows is None:
            return energy, mass
        for row, energy_mi, mass_mi in zip(rows, energy.tolist(), mass.tolist()):
            row.energy_mi, row.mass_mi = energy_mi, mass_mi
        if exact_fn is not None:
            t = np.array([row.t for row in rows])
            metrics = problems.error_metrics(u_next, exact_fn(x, t[:, None]), grid)
            for row, *values in zip(rows, metrics.err_max.tolist(),
                                    metrics.e_infty_sq.tolist(),
                                    metrics.mod_err.tolist()):
                row.err_max, row.e_infty_sq, row.mod_err = values
        return energy, mass

    def flush(levels, rows):
        """Evaluate the pending rows.  On a failure in row i, the rows before
        it are evaluated alone first, so that a failure there, which the
        row-by-row order meets first, is the one raised."""
        if not rows:
            return
        try:
            evaluate(levels[:len(rows) + 1], rows)
        except NlswError as exc:
            row = getattr(exc, "row", None) or 0
            flush(levels, rows[:row])
            exc.step = rows[0].step + row
            raise

    energy_ref, mass_ref = (float(v[0]) for v in evaluate(np.stack((u0, u1)), None))
    snapshots = [(0.0, u0.copy()), (grid.tau, u1.copy())]
    rows = []
    total_fp = 0
    u_prev, u_cur = u0, u1
    levels = np.empty((max(1, BLOCK_VALUES // grid.K) + 1, grid.K),
                      dtype=np.complex128)
    levels[0] = u1
    pending = []
    for j in range(1, grid.J):
        t_new = (j + 1) * grid.tau
        try:
            u_next, fp_iters = step(StateWindow(u_prev, u_cur, j * grid.tau),
                                    solver, params, grid, config)
        except NlswError as exc:
            flush(levels, pending)
            exc.step = j + 1
            raise
        total_fp += fp_iters
        row = diagnostics.DiagnosticsRow(step=j + 1, t=t_new, fp_iters=fp_iters)
        rows.append(row)
        pending.append(row)
        levels[len(pending)] = u_next
        if len(pending) == len(levels) - 1:
            flush(levels, pending)
            levels[0] = u_next
            pending = []
        if j % snapshot_stride == 0:
            snapshots.append((t_new, u_next.copy()))
        u_prev, u_cur = u_cur, u_next
    flush(levels, pending)

    meta = {
        "bootstrap_mode": config.bootstrap_mode,
        "nonlinear_solver": "picard",
        "total_fp_iters": total_fp,
        "energy_ref": energy_ref,
        "mass_ref": mass_ref,
    }
    return Trajectory(grid=grid, snapshots=snapshots, rows=rows, meta=meta)


def run_mi(problem, grid: GridSpec, config: SolverConfig,
           snapshot_stride: int = 100) -> Trajectory:
    """Run the midpoint scheme through integrate, adding the identity gaps
    of each step from the invariant increments and the half-node means of
    its pair and of the previous pair; the last pair of each block is
    carried to the next."""
    params = problem.params
    carried = None

    def identity_gaps(rows, u_cur, u_next, energy, mass, half):
        nonlocal carried
        mean = half[1]
        if rows is not None:
            energy_prev, mass_prev, mean_prev = carried
            gaps = diagnostics.identity_gaps(
                energy - np.append(energy_prev, energy[:-1]),
                mass - np.append(mass_prev, mass[:-1]),
                mean, np.vstack((mean_prev, mean[:-1])), params, grid)
            for row, energy_gap, mass_gap in zip(rows, gaps.energy_gap.tolist(),
                                                 gaps.mass_gap.tolist()):
                row.energy_gap, row.mass_gap = energy_gap, mass_gap
        carried = energy[-1], mass[-1], mean[-1]

    traj = integrate(problem, grid, config, snapshot_stride,
                     assemble_linear(params, grid), step_mi, identity_gaps)
    traj.meta["scheme"] = "mi"
    return traj
