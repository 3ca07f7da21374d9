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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import diagnostics, problems
from .errors import (ConfigurationError, DivergenceError, NlswError,
                     SingularSystemError, StepFailureError, UsageError)
from .grid import (GridSpec, as_field, as_level, central_diff, is_number,
                   second_diff, shown)
from .linsolve import CyclicTridiagonalSystem, PreparedCyclicSolver
from .model import PdeParams

BOOTSTRAP_MODES = ("taylor2", "exact")

# Complex values per block of levels whose diagnostics integrate evaluates in
# one pass: B = max(1, BLOCK_VALUES // K) pairs, so at small K one call serves
# many steps and at K >= BLOCK_VALUES every step is its own block.
BLOCK_VALUES = 4096

# Sweeps in a row without a smaller update than the smallest so far, after
# which picard gives a step up as stalled: the iteration sits at its
# round-off floor above fp_tol, or does not contract at all.
STALL_SWEEPS = 3

# The most bytes of levels and series columns a run may hold; check_run
# holds a run to it before integrate allocates any of them.
MEMORY_CAP_BYTES = 4 * 2 ** 30

# Bytes per node that a run's StepPlan and its PreparedCyclicSolver hold for
# the whole run, from their shapes: the plan's (2, K+2) pair and (3, 2, K)
# products, the midpoint cubic's padded, cubes and lagged buffers (the
# energy-preserving cubic holds less), and the solver's four gttrf factor
# bands, q and correction are 17 complex values; the cubic's abs2 and the
# change are two floats; the solver's int32 pivots and bool finiteness mask.
PLAN_BYTES_PER_NODE = 16 * 17 + 8 * 2 + 4 + 1

# The floating-point policy of a run, entered once by integrate around its
# factorisation, bootstrap, steps and diagnostics, and by a step called on
# its own.  An overflow or invalid operation leaves an inf or NaN that a
# check reports: the factorisation and every solve refuse a non-finite
# result (SingularSystemError, which picard tells apart from a non-finite
# right-hand side), so the warning itself stays quiet.
quiet_overflow = functools.partial(np.errstate, over="ignore", invalid="ignore")


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-point controls and the choice of second initial level."""

    fp_tol: float = 1e-13
    fp_max_iter: int = 100
    bootstrap_mode: str = "taylor2"

    def __post_init__(self):
        if not (is_number(self.fp_tol) and self.fp_tol > 0):
            raise ConfigurationError(f"fp_tol must be positive, got {shown(self.fp_tol)}")
        if not is_number(self.fp_max_iter, numbers.Integral) or self.fp_max_iter < 1:
            raise ConfigurationError(
                f"fp_max_iter must be an integer >= 1, got {shown(self.fp_max_iter)}")
        check_bootstrap_mode(self.bootstrap_mode)


class StateWindow(NamedTuple):
    """Two consecutive levels (u^{j-1}, u^j) driving the two-step update,
    and optionally u^{j-2}, which only sharpens the Picard starting guess."""

    u_prev: np.ndarray
    u_cur: np.ndarray
    t_cur: float
    u_prev2: np.ndarray | None = None


@dataclass
class Trajectory:
    """Snapshots at a configured stride plus the per-step diagnostics: a
    column of J-1 rows for each name of diagnostics.SERIES_COLUMNS that
    applies to the run."""

    grid: GridSpec
    snapshots: list
    series: dict
    meta: dict


def check_bootstrap_mode(mode: str):
    """Refuse a bootstrap mode outside BOOTSTRAP_MODES."""
    if mode not in BOOTSTRAP_MODES:
        raise ConfigurationError(f"unknown bootstrap mode {mode!r}: "
                                 f"bootstrap_mode must be one of {BOOTSTRAP_MODES}")


def check_bootstrap(mode: str, exact):
    """Refuse an unknown mode, and mode 'exact' without an exact solution;
    check_run passes a problem's exact solution only if it is verified."""
    check_bootstrap_mode(mode)
    if mode == "exact" and exact is None:
        raise ConfigurationError("bootstrap mode 'exact' needs the exact solution, "
                                 "and a problem's counts only if it is verified")


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
    check_bootstrap(mode, exact)
    x = grid.nodes
    u0 = as_field(f0(x), grid)
    if mode == "exact":
        u1 = as_field(exact(x, grid.tau), grid)
        return u0, u1
    v0 = as_field(f1(x), grid)
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
    u^{j-1}.  The u^{j-1} stencil is built as the adjoint C = A^H of the
    u^{j+1} one, what reversing time (negating alpha and gamma) makes of A."""
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


class StepPlan:
    """What every step reuses, built once per run (once per call for a step
    called on its own): the solver of A, table's B and C columns, the padded
    pair (u^j, u^{j-1}), cubic(beta/4, u^{j-1}, u^j) over its rows as
    (lag, nonlinear), and the known, rhs and change buffers.  The mesh axis
    is last throughout, so a batch axis can go in front of it."""

    def __init__(self, system, params: PdeParams, grid: GridSpec, table, cubic):
        self.solver = system if isinstance(system, PreparedCyclicSolver) \
            else PreparedCyclicSolver(system)
        _, on_cur, on_prev = table(params, grid)
        self.columns = np.array((on_cur, on_prev), dtype=np.complex128).T[..., None]
        self.pair = pair = np.empty((2, grid.K + 2), dtype=np.complex128)
        # neighbours[s] is the pair read s - 1 nodes on, for columns[s].  The
        # contiguous products[s] are summed into products[0], whose rows then
        # hold the known terms and the step's right-hand sides.
        self.neighbours = np.moveaxis(sliding_window_view(pair, grid.K, axis=-1), -2, 0)
        self.products = np.empty((3, 2, grid.K), dtype=np.complex128)
        self.known, self.rhs = self.products[0]
        self.change = np.empty(grid.K)
        self.lag, self.nonlinear = cubic(0.25 * params.beta, pair[1, 1:-1], pair[0, 1:-1])

    def known_terms(self, u_prev, u_cur):
        """B u^j + C u^{j-1} into the known buffer, each element summed as
        (lower*left + diag*u) + upper*right per level, from one multiply."""
        pair, products = self.pair, self.products
        pair[0, 1:-1], pair[1, 1:-1] = u_cur, u_prev
        pair[:, 0], pair[:, -1] = pair[:, -2], pair[:, 1]
        np.multiply(self.columns, self.neighbours, out=products)
        total = products[0]
        total += products[1]
        total += products[2]
        return np.add(total[0], total[1], out=self.known)


def _cubic(quarter_beta, u_prev, u_cur):
    """The nonlinear term over the level buffers u_prev and u_cur as
    (lag, nonlinear): lag() builds the lagged sum from their contents, and
    nonlinear(u, out) writes N(u), beta/4 times both sums, into out.

    Each sum is y_{k+1/2} + y_{k-1/2} over the cubes |y|^2 y of the
    half-node means y_{k+1/2} = (m_k + m_{k+1})/2 of a temporal mean m, so
    the K+1 means from k-1/2 to K-1/2 come from one copy of m padded by a
    wrapped node at each end, and the pair sum from two slices of their
    cubes.  m is halved and the means halved again, never quartered at
    once: a quarter of a sum of subnormals rounds to zeros of another sign.
    The scratch arrays are allocated once, here."""
    K = u_cur.shape[-1]
    padded = np.empty(K + 2, dtype=np.complex128)
    cubes = np.empty(K + 1, dtype=np.complex128)
    abs2 = np.empty(K + 1)
    lagged = np.empty(K, dtype=np.complex128)

    def pair(level, out):
        mean = padded[1:-1]
        np.add(u_cur, level, out=mean)
        mean *= 0.5
        padded[0], padded[-1] = mean[-1], mean[0]
        means = np.add(padded[:-1], padded[1:], out=cubes)
        means *= 0.5
        np.square(np.abs(means, out=abs2), out=abs2)
        means *= abs2
        return np.add(means[1:], means[:-1], out=out)

    def nonlinear(u, out):
        pair(u, out)
        out += lagged
        out *= quarter_beta
        return out
    return functools.partial(pair, u_prev, lagged), nonlinear


def picard(window: StateWindow, system, params: PdeParams, grid: GridSpec,
           config: SolverConfig, table, cubic):
    """The step of both schemes: solve A u + B u^j + C u^{j-1} + N(u) = 0
    for the new level u, with (A, B, C) = table(params, grid), system the
    run's StepPlan, or A or its PreparedCyclicSolver to build one from.
    Returns (u, sweeps), u a fresh array.

    beta = 0 makes one solve exact.  Otherwise the plan's lag() builds the
    lagged half of N, and nonlinear(u, out) writes N(u) into out.  The
    iteration starts from the quadratic extrapolation
    3 u^j - 3 u^{j-1} + u^{j-2}, or from the linear
    2 u^j - u^{j-1} when the window carries no u^{j-2}.  Every sweep
    re-evaluates N at the current iterate and solves the frozen linear
    system, stopping once the sup-norm change drops below
    fp_tol * max(1, |iterate|).  STALL_SWEEPS sweeps in a row that bring no
    smaller change than the smallest so far end the step early, and so does
    a budget of fp_max_iter sweeps, both with StepFailureError.

    A step on A or its solver builds its plan and runs under quiet_overflow
    for the call; a run's plan steps under the run's.  A sweep writes the
    right-hand side and the change into the plan's buffers.  |iterate| is
    taken only when the change could pass: it is at most |start| plus the
    changes so far, so a change above twice fp_tol times max(1, that bound)
    fails the test whatever |iterate| is.
    """
    if not isinstance(system, StepPlan):
        with quiet_overflow():
            return picard(window, StepPlan(system, params, grid, table, cubic),
                          params, grid, config, table, cubic)
    plan = system
    solver, rhs, change, nonlinear = plan.solver, plan.rhs, plan.change, plan.nonlinear
    u_prev = as_level(window.u_prev, grid)
    u_cur = as_level(window.u_cur, grid)
    if u_prev.ndim != 1 or u_cur.ndim != 1:
        raise UsageError(f"a step takes 1-D levels, got {u_prev.shape} and {u_cur.shape}")
    known = plan.known_terms(u_prev, u_cur)
    if params.beta == 0.0:
        return solver.solve(np.negative(known, out=rhs)), 1
    plan.lag()
    if window.u_prev2 is None:
        u = 2.0 * u_cur - u_prev
    else:
        u = 3.0 * (u_cur - u_prev) + as_level(window.u_prev2, grid)
    bound = float(np.maximum.reduce(np.abs(u, out=change)))
    diff = smallest = np.inf
    stalled = 0
    for it in range(1, config.fp_max_iter + 1):
        np.add(known, nonlinear(u, rhs), out=rhs)
        np.negative(rhs, out=rhs)
        try:
            u_new = solver.solve(rhs)
        except SingularSystemError:
            if np.logical_and.reduce(np.isfinite(rhs)):
                raise
            raise DivergenceError(
                f"fixed-point iterate diverged: non-finite nonlinear term "
                f"in sweep {it}") from None
        previous = diff
        # The right-hand side is spent, so its buffer holds u_new - u.
        np.abs(np.subtract(u_new, u, out=rhs), out=change)
        diff = float(np.maximum.reduce(change))
        bound += diff
        u = u_new
        if diff <= 2.0 * config.fp_tol * max(1.0, bound):
            peak = float(np.maximum.reduce(np.abs(u, out=change)))
            if diff <= config.fp_tol * max(1.0, peak):
                return u, it
        if diff < smallest:
            smallest, stalled = diff, 0
            continue
        stalled += 1
        if stalled == STALL_SWEEPS:
            raise StepFailureError(
                f"fixed point stalled in sweep {it}: {STALL_SWEEPS} sweeps "
                f"without a smaller update (last two {previous:.3e}, "
                f"{diff:.3e})", residual=diff)
    raise StepFailureError(
        f"fixed point not converged after {config.fp_max_iter} sweeps "
        f"(last update {diff:.3e})", residual=diff)


def step_mi(window: StateWindow, system, params: PdeParams, grid: GridSpec,
            config: SolverConfig):
    """Advance one level: picard with this scheme's table and cubic term on
    the assemble_linear operator, its solver or a run's StepPlan.
    Returns (u_next, fp_iters)."""
    return picard(window, system, params, grid, config, _stencils, _cubic)


def held_bytes(grid: GridSpec, snapshot_stride: int) -> int:
    """The bytes integrate holds for a run: the snapshot levels, the block
    buffer of levels, the StepPlan and its solver (PLAN_BYTES_PER_NODE), and
    J+1 rows of each series column (at most every name of
    diagnostics.SERIES_COLUMNS, the printed wang energy and grid.times).

    The levels a step reads and returns, and a step's and the bootstrap's
    temporaries are not counted: on gauss_split with J = 4 and
    snapshot_stride 1, this counts 405 bytes per node, while peak RSS grows
    by about 613 bytes per node for run_mi, and for cli.run_experiment by
    612 with scheme mi and 624 with both (K = 2e5 and 4e5, one fresh
    process each, x86-64, numpy 2.4.6).  A command holds one run at a time,
    and its CSV writers format at most cli.PIECE_ROWS rows at once, about
    710 bytes a series row and 300 a snapshot node, plus 52 bytes a node
    for the x column of the whole snapshot file."""
    levels = (grid.J - 1) // snapshot_stride + 2 + _block_pairs(grid) + 1
    return (grid.K * (16 * levels + PLAN_BYTES_PER_NODE)
            + 8 * (grid.J + 1) * (len(diagnostics.SERIES_COLUMNS) + 2))


def _block_pairs(grid: GridSpec) -> int:
    """B, the pairs of levels whose diagnostics integrate evaluates at once."""
    return max(1, BLOCK_VALUES // grid.K)


def check_run(problem, grid: GridSpec, config: SolverConfig, snapshot_stride):
    """Refuse a run, before anything is allocated, unless snapshot_stride is
    an integer >= 1, the run holds at most MEMORY_CAP_BYTES (see held_bytes)
    and the bootstrap passes check_bootstrap given the problem's exact
    solution only if it is verified.  Returns that verified solution or
    None, the one integrate bootstraps from and measures errors against.
    The CLI runs the same check at parse time."""
    if not is_number(snapshot_stride, numbers.Integral) or snapshot_stride < 1:
        raise ConfigurationError(
            f"snapshot_stride must be an integer >= 1, got {shown(snapshot_stride)}")
    held = held_bytes(grid, snapshot_stride)
    if held > MEMORY_CAP_BYTES:
        raise ConfigurationError(
            f"a run with K={grid.K}, J={grid.J} and snapshot_stride="
            f"{snapshot_stride} would hold {held} bytes of levels and series, "
            f"above the cap of {MEMORY_CAP_BYTES} bytes")
    exact = problem.exact if problem.exactness == "verified" else None
    check_bootstrap(config.bootstrap_mode, exact)
    return exact


def integrate(problem, grid: GridSpec, config: SolverConfig,
              snapshot_stride: int, assemble, table, cubic, step, observe) -> Trajectory:
    """The run loop of both schemes: check_run the run before allocating
    anything, then, under one quiet_overflow, build one StepPlan of
    assemble(params, grid), table and cubic, bootstrap, and advance J-1
    steps and their diagnostics with the scheme's step
    step(window, plan, params, grid, config) -> (u_next, fp_iters),
    whose window carries u^{j-2} from the second step on.

    The series holds step (the produced level index, 2..J), t, fp_iters, the
    midpoint invariants energy_mi and mass_mi of each step's pair, the error
    metrics when the problem carries a verified exact solution, and the
    scheme's own columns.  None of these feeds back into the stepping, so
    they are evaluated a block at a time: each new level is copied into a
    (B+1, K) buffer, B = max(1, BLOCK_VALUES // K), whose B pairs of
    consecutive rows are evaluated as [B, K] stacks (see diagnostics) once
    it fills and once more at the end of the run, and slice-assigned into
    the columns.  Per block, diagnostics.half_nodes builds the half-node
    fields once for both invariants and the observer, and the exact solution
    is evaluated once on the block's slice of t.  The scheme's own columns
    come from observe(levels, energy, mass, half) -> {name: array}: levels
    is the block's (n+1, K) stack of consecutive levels, energy and mass the
    invariants of its n pairs and half their half-node fields.  The
    bootstrap pair is evaluated first, on its own, and gives meta its
    references: energy_ref, mass_ref and <name>_ref for each observed name.

    A failure names its step.  A realness guard that fires on row i of a
    block names the block's first step plus i, and a failing step first
    evaluates the block's completed steps, so the earliest failure in step
    order is the one reported.  Snapshots, copies of the levels, hold the two
    bootstrap levels and then every snapshot_stride-th step.
    """
    exact_fn = check_run(problem, grid, config, snapshot_stride)
    params = problem.params
    with quiet_overflow():
        plan = StepPlan(assemble(params, grid), params, grid, table, cubic)
        u0, u1 = bootstrap(problem.f0, problem.f1, params, grid,
                           mode=config.bootstrap_mode, exact=exact_fn)
        x = grid.nodes
        t = grid.times[2:]
        fp_iters = np.empty(grid.J - 1, dtype=np.int64)
        series = {"step": np.arange(2, grid.J + 1), "t": t, "fp_iters": fp_iters}
        levels = np.empty((_block_pairs(grid) + 1, grid.K), dtype=np.complex128)

        def evaluate(levels):
            """The invariants and the observed columns of the pairs of
            consecutive levels."""
            u_cur, u_next = levels[:-1], levels[1:]
            half = diagnostics.half_nodes(u_cur, u_next, grid)
            energy = diagnostics.mi_energy(u_cur, u_next, params, grid, half=half)
            mass = diagnostics.mi_mass(u_cur, u_next, params, grid, half=half)
            return {"energy_mi": energy, "mass_mi": mass,
                    **observe(levels, energy, mass, half)}

        def flush(start, stop):
            """Fill rows start..stop-1 from levels[:stop - start + 1].  On a
            failure in row start + i, the rows before it are evaluated alone
            first, so that a failure there, which the row-by-row order meets
            first, is the one raised."""
            if start == stop:
                return
            try:
                columns = evaluate(levels[:stop - start + 1])
                if exact_fn is not None:
                    columns.update(vars(problems.error_metrics(
                        levels[1:stop - start + 1], exact_fn(x, t[start:stop, None]),
                        grid)))
            except NlswError as exc:
                row = getattr(exc, "row", None) or 0
                flush(start, start + row)
                exc.step = start + 2 + row
                raise
            for name, values in columns.items():
                if name not in series:
                    series[name] = np.empty(grid.J - 1)
                series[name][start:stop] = values

        refs = {f"{name}_ref": float(values[0])
                for name, values in evaluate(np.stack((u0, u1))).items()}
        snapshots = [(0.0, u0.copy()), (grid.tau, u1.copy())]
        u_prev2, u_prev, u_cur = None, u0, u1
        levels[0] = u1
        start = 0
        for j in range(1, grid.J):
            try:
                u_next, fp_iters[j - 1] = step(
                    StateWindow(u_prev, u_cur, j * grid.tau, u_prev2),
                    plan, params, grid, config)
            except NlswError as exc:
                flush(start, j - 1)
                exc.step = j + 1
                raise
            levels[j - start] = u_next
            if j - start == len(levels) - 1:
                flush(start, j)
                levels[0] = u_next
                start = j
            if j % snapshot_stride == 0:
                snapshots.append(((j + 1) * grid.tau, u_next.copy()))
            u_prev2, u_prev, u_cur = u_prev, u_cur, u_next
        flush(start, grid.J - 1)

    meta = {
        "bootstrap_mode": config.bootstrap_mode,
        "nonlinear_solver": "picard",
        "total_fp_iters": int(fp_iters.sum()),
        "energy_ref": refs.pop("energy_mi_ref"),
        "mass_ref": refs.pop("mass_mi_ref"),
        **refs,
    }
    return Trajectory(grid=grid, snapshots=snapshots, series=series, meta=meta)


def run_mi(problem, grid: GridSpec, config: SolverConfig,
           snapshot_stride: int = 100) -> Trajectory:
    """Run the midpoint scheme through integrate, adding the identity gaps
    of each step from the invariant increments and the half-node means of
    its pair and of the previous pair; the last pair of each block (first
    the bootstrap pair, which has no gaps) is carried to the next."""
    params = problem.params
    carried = None

    def identity_gaps(levels, energy, mass, half):
        nonlocal carried
        mean = half[1]
        previous, carried = carried, (energy[-1], mass[-1], mean[-1])
        if previous is None:
            return {}
        energy_prev, mass_prev, mean_prev = previous
        gaps = diagnostics.identity_gaps(
            energy - np.append(energy_prev, energy[:-1]),
            mass - np.append(mass_prev, mass[:-1]),
            mean, np.vstack((mean_prev, mean[:-1])), params, grid)
        return {"energy_gap": gaps.energy_gap, "mass_gap": gaps.mass_gap}

    traj = integrate(problem, grid, config, snapshot_stride,
                     assemble_linear, _stencils, _cubic, step_mi, identity_gaps)
    traj.meta["scheme"] = "mi"
    return traj
