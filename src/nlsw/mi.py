"""Reduced multisymplectic midpoint time stepper, and the run driver that
both schemes share.

Eliminating the auxiliary variables of the box-form midpoint integrator
leaves a two-step update for u alone, A u^{j+1} + B u^j + C u^{j-1} plus
cubic half-node terms = 0, with constant three-point stencils A, B, C from
one table; by time reversal C is A at (-alpha, -gamma).  Each step runs a
Picard iteration around the frozen operator A, so it is factored once per
run and every sweep costs one banded solve.

picard is the one fixed-point loop and integrate the one run loop; step_mi
here and the energy-preserving kernel in wang.py supply only their known
terms and nonlinear term, and run_mi/run_wang only their operator, kernel
and per-step columns.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics, problems
from .errors import (ConfigurationError, DivergenceError, NlswError,
                     StepFailureError, UsageError)
from .grid import (GridSpec, as_field, as_level, central_diff, half_average,
                   pair_sum, second_diff, stencil)
from .linsolve import CyclicTridiagonalSystem, PreparedCyclicSolver
from .model import PdeParams

BOOTSTRAP_MODES = ("taylor2", "exact")


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-point controls and the choice of second initial level."""

    fp_tol: float = 1e-13
    fp_max_iter: int = 100
    bootstrap_mode: str = "taylor2"

    def __post_init__(self):
        if not (np.isfinite(self.fp_tol) and self.fp_tol > 0):
            raise ConfigurationError(f"fp_tol must be positive, got {self.fp_tol}")
        if not isinstance(self.fp_max_iter, numbers.Integral) or self.fp_max_iter < 1:
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


def _stencils(params: PdeParams, grid: GridSpec):
    """(lower, diag, upper) of the stencils acting on u^{j+1}, u^j and
    u^{j-1}.  Reversing time maps the scheme onto itself with alpha and gamma
    negated, so the u^{j-1} stencil is the u^{j+1} one at (-alpha, -gamma)."""
    h, tau = grid.h, grid.tau
    th, lam = params.theta, params.lam

    def new_level(a, g):
        diag = 0.5 / tau ** 2 + 0.5 / h ** 2 - 0.25j * a / tau + 0.125 * lam
        off = 0.25 / tau ** 2 - 0.25 / h ** 2 - 0.125j * a / tau + lam / 16.0
        skew = 0.125j * th / h - 0.25 * g / (tau * h)
        return off + skew, diag, off - skew

    off = -0.5 / tau ** 2 - 0.5 / h ** 2 + 0.125 * lam
    skew = 0.25j * th / h
    return (new_level(params.alpha, params.gamma),
            (off + skew, -1.0 / tau ** 2 + 1.0 / h ** 2 + 0.25 * lam, off - skew),
            new_level(-params.alpha, -params.gamma))


def assemble_linear(params: PdeParams, grid: GridSpec) -> CyclicTridiagonalSystem:
    """The cyclic tridiagonal operator of the scheme: its u^{j+1} stencil."""
    return CyclicTridiagonalSystem(*(np.full(grid.K, c) for c in _stencils(params, grid)[0]))


def _known_terms(u_prev, u_cur, params: PdeParams, grid: GridSpec):
    """All linear scheme terms living on levels j and j-1."""
    _, on_cur, on_prev = _stencils(params, grid)
    return stencil(on_cur, u_cur) + stencil(on_prev, u_prev)


def _cubic_pair(level_mean):
    """Pair-sum of |.|^2 (.) over the half-node means of a temporal mean."""
    y = half_average(level_mean)
    return pair_sum(np.abs(y) ** 2 * y)


def picard(solver: PreparedCyclicSolver, known, u_start, nonlinear,
           config: SolverConfig):
    """Solve A u = -(known + nonlinear(u)) for the new level.  Returns
    (u, sweeps).

    nonlinear=None (beta = 0) makes the single solve exact.  Otherwise the
    iteration starts from u_start; every sweep re-evaluates the nonlinear
    term at the current iterate and solves the frozen linear system, stopping
    once the sup-norm change drops below fp_tol * max(1, |iterate|).
    """
    if nonlinear is None:
        u_next = solver.solve(-known)
        if not np.isfinite(u_next).all():
            raise DivergenceError("non-finite values after linear solve")
        return u_next, 1
    u = u_start
    diff = np.inf
    for it in range(1, config.fp_max_iter + 1):
        u_new = solver.solve(-(known + nonlinear(u)))
        if not np.isfinite(u_new).all():
            raise DivergenceError("fixed-point iterate diverged to NaN/Inf")
        diff = float(np.abs(u_new - u).max())
        u = u_new
        if diff <= config.fp_tol * max(1.0, float(np.abs(u_new).max())):
            return u, it
    raise StepFailureError(
        f"fixed point not converged after {config.fp_max_iter} sweeps "
        f"(last update {diff:.3e})", residual=diff)


def step_mi(window: StateWindow, system, params: PdeParams, grid: GridSpec,
            config: SolverConfig):
    """Advance one level.  Returns (u_next, fp_iters).

    The Picard iteration starts from the linear extrapolation
    2 u^j - u^{j-1}; its nonlinear term is the pair of cubic half-node
    sums, the lagged one fixed and the new one rebuilt from each iterate.
    """
    solver = system if isinstance(system, PreparedCyclicSolver) \
        else PreparedCyclicSolver(system)
    u_prev = as_level(window.u_prev, grid)
    u_cur = as_level(window.u_cur, grid)
    known = _known_terms(u_prev, u_cur, params, grid)
    if params.beta == 0.0:
        return picard(solver, known, None, None, config)
    cubic_lag = _cubic_pair(0.5 * (u_prev + u_cur))
    quarter_beta = 0.25 * params.beta
    return picard(solver, known, 2.0 * u_cur - u_prev,
                  lambda u: quarter_beta * (cubic_lag + _cubic_pair(0.5 * (u_cur + u))),
                  config)


def integrate(problem, grid: GridSpec, config: SolverConfig,
              snapshot_stride: int, system, step, observe) -> Trajectory:
    """The run loop of both schemes: factor the operator `system` once,
    bootstrap, then advance J-1 steps with the kernel
    step(window, solver, params, grid, config) -> (u_next, fp_iters).

    Every row holds the midpoint invariants E^{j+1/2} and Q^{j+1/2}, each
    evaluated once per step and carried to the next, and the error metrics
    when the problem carries a verified exact solution.  The scheme's own
    columns come from observe(row, u_cur, u_next, energy, mass), where
    energy and mass belong to the previous pair; it is called once with
    row=None on the bootstrap pair, then on every step.  Rows are labelled
    by the produced level index (2..J); snapshots hold the two bootstrap
    levels and then every snapshot_stride-th step.
    """
    if snapshot_stride < 1:
        raise UsageError(f"snapshot_stride must be >= 1, got {snapshot_stride}")
    params = problem.params
    solver = PreparedCyclicSolver(system)
    u0, u1 = bootstrap(problem.f0, problem.f1, params, grid,
                       mode=config.bootstrap_mode, exact=problem.exact)
    exact_fn = problem.exact if getattr(problem, "exactness", "none") == "verified" \
        else None

    energy_ref = diagnostics.mi_energy(u0, u1, params, grid)
    mass_ref = diagnostics.mi_mass(u0, u1, params, grid)
    observe(None, u0, u1, energy_ref, mass_ref)
    snapshots = [(0.0, u0.copy()), (grid.tau, u1.copy())]
    rows = []
    total_fp = 0
    energy, mass = energy_ref, mass_ref
    u_prev, u_cur = u0, u1
    x = grid.nodes
    for j in range(1, grid.J):
        t_new = (j + 1) * grid.tau
        try:
            u_next, fp_iters = step(StateWindow(u_prev, u_cur, j * grid.tau),
                                    solver, params, grid, config)
            row = diagnostics.DiagnosticsRow(
                step=j + 1, t=t_new,
                energy_mi=diagnostics.mi_energy(u_cur, u_next, params, grid),
                mass_mi=diagnostics.mi_mass(u_cur, u_next, params, grid),
                fp_iters=fp_iters)
            observe(row, u_cur, u_next, energy, mass)
            if exact_fn is not None:
                metrics = problems.error_metrics(u_next, exact_fn(x, t_new), grid)
                row.err_max = metrics.err_max
                row.e_infty_sq = metrics.e_infty_sq
                row.mod_err = metrics.mod_err
        except NlswError as exc:
            exc.step = j + 1
            raise
        total_fp += fp_iters
        rows.append(row)
        if j % snapshot_stride == 0:
            snapshots.append((t_new, u_next.copy()))
        u_prev, u_cur = u_cur, u_next
        energy, mass = row.energy_mi, row.mass_mi

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
    of each step from the carried half-node mean of the previous pair."""
    params = problem.params
    mean = None

    def identity_gaps(row, u_cur, u_next, energy, mass):
        nonlocal mean
        mean_next = diagnostics.half_mean(u_cur, u_next)
        if row is not None:
            gaps = diagnostics.identity_gaps(row.energy_mi - energy,
                                             row.mass_mi - mass,
                                             mean_next, mean, params, grid)
            row.energy_gap = gaps.energy_gap
            row.mass_gap = gaps.mass_gap
        mean = mean_next

    traj = integrate(problem, grid, config, snapshot_stride,
                     assemble_linear(params, grid), step_mi, identity_gaps)
    traj.meta["scheme"] = "mi"
    return traj
