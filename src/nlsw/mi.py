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
                     SingularSystemError, StepFailureError)
from .grid import GridSpec, as_field, central_diff, is_number, second_diff, shown
from .linsolve import CyclicTridiagonalSystem, PreparedCyclicSolver
from .model import PdeParams, pde_utt

BOOTSTRAP_MODES = ("taylor2", "exact")

# Complex values per block of levels whose diagnostics integrate evaluates in
# one pass: B = max(1, BLOCK_VALUES // K) pairs, so at small K one call serves
# many steps and at K >= BLOCK_VALUES every step is its own block.
BLOCK_VALUES = 4096

# Sweeps in a row without a smaller update than the smallest so far, after
# which picard gives a step up as stalled: the iteration sits at its
# round-off floor above fp_tol, or does not contract at all.
STALL_SWEEPS = 3

# The most bytes a run may hold (see held_bytes); check_run holds a run to
# it before integrate allocates anything.
MEMORY_CAP_BYTES = 4 * 2 ** 30

# Bytes per node that a run's StepPlan and its PreparedCyclicSolver hold for
# the whole run, from their shapes: the plan's (2, K+2) pair and (3, 2, K)
# products, the midpoint cubic's cubes and lagged buffers (the
# energy-preserving cubic holds less), and the solver's four gttrf factor
# bands, q and correction are 16 complex values; the cubic's abs2 and the
# change are two floats; the solver's int32 pivots and bool finiteness mask.
PLAN_BYTES_PER_NODE = 16 * 16 + 8 * 2 + 4 + 1

# Bytes per node that a run holds at its peak beyond its stored levels and
# its plan: while the diagnostics of a block of one pair run, the levels
# u^{j-2}, u^{j-1} and u^j that the next step reads, the half-node mean
# carried from the block before, the block's three half-node fields (see
# diagnostics.half_nodes) and up to three float temporaries of an
# invariant.  A step holds less (the three levels, the carried mean, its
# iterate and the solve's result), and so does the bootstrap.
WORK_BYTES_PER_NODE = 16 * (3 + 1 + 3) + 8 * 3

# The floating-point policy of a run, entered once by integrate around its
# factorisation, bootstrap, steps and diagnostics, by a step called on its
# own, and by the CLI's snapshot writer, whose |u| of a huge u is inf.  An
# overflow or invalid operation leaves an inf or NaN that a check reports:
# the factorisation and every solve refuse a non-finite result
# (SingularSystemError, which picard tells apart from a non-finite
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
    u^1 = u^0 + tau*f1 + (tau^2/2)*u_tt with u_tt from model.pde_utt,
    spatial derivatives by second-order periodic differences and
    u_tx = (f1)_x.  exact samples the supplied solution at t = tau.
    """
    check_bootstrap(mode, exact)
    x = grid.nodes
    u0 = as_field(f0(x), grid)
    if mode == "exact":
        return u0, as_field(exact(x, grid.tau), grid)
    v0 = as_field(f1(x), grid)
    utt = pde_utt(u0, v0, central_diff(u0, grid.h), second_diff(u0, grid.h),
                  central_diff(v0, grid.h), params)
    return u0, u0 + grid.tau * v0 + 0.5 * grid.tau ** 2 * utt


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


def linear_stability_margin(table, params: PdeParams, grid: GridSpec) -> float:
    """The minimum over the K grid modes theta = 2 pi m / K of
    1 - lam_B^2 / (4 |lam_A|^2), with
    lam_X(theta) = lower e^{-i theta} + diag + upper e^{i theta}
    the symbol of stencil X of table(params, grid).

    At beta = 0 mode m obeys lam_A z^2 + lam_B z + lam_C = 0, and with
    C = A^H (so lam_C = conj(lam_A)) and lam_B real (up to round-off, whose
    imaginary part is dropped) both roots lie on the unit circle exactly
    where this is >= 0.  Below 0 by more than round-off, a mode grows
    exponentially; 0 is a double root, whose mode grows linearly (the
    midpoint scheme's checkerboard on even K)."""
    turn = np.exp(2j * np.pi / grid.K * np.arange(grid.K))
    lam_A, lam_B = (lower * turn.conjugate() + diag + upper * turn
                    for lower, diag, upper in table(params, grid)[:2])
    ratio = 0.5 * (lam_B.real / np.abs(lam_A))
    return float(np.min(1.0 - ratio * ratio))


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
    the K+1 means from k-1/2 to K-1/2 are the K-1 inner sums of m with the
    wrapped sum m_{K-1} + m_0 at both ends, and the pair sum comes from two
    slices of their cubes.  m is built in out, which the pair sum then
    overwrites.  m is halved and the means halved again, never quartered
    at once: a quarter of a sum of subnormals rounds to zeros of another
    sign.  The scratch arrays are allocated once, here."""
    K = u_cur.shape[-1]
    cubes = np.empty(K + 1, dtype=np.complex128)
    abs2 = np.empty(K + 1)
    lagged = np.empty(K, dtype=np.complex128)

    def pair(level, out):
        mean = np.add(u_cur, level, out=out)
        mean *= 0.5
        means = cubes
        np.add(mean[:-1], mean[1:], out=means[1:-1])
        means[0] = means[-1] = mean[-1] + mean[0]
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

    A step on A or its solver checks its window's levels with as_field
    (1-D, K long, finite), builds its plan and runs under quiet_overflow for
    the call; a run's plan steps on the run's own levels, unchecked, under
    the run's policy.  A sweep writes the right-hand side and the change
    into the plan's buffers.
    |iterate| is taken only when the change could pass: it is at most
    |start| plus the changes so far, so a change above twice fp_tol times
    max(1, that bound) fails the test whatever |iterate| is.
    """
    if not isinstance(system, StepPlan):
        u_prev2 = window.u_prev2
        window = StateWindow(as_field(window.u_prev, grid), as_field(window.u_cur, grid),
                             window.t_cur,
                             None if u_prev2 is None else as_field(u_prev2, grid))
        with quiet_overflow():
            return picard(window, StepPlan(system, params, grid, table, cubic),
                          params, grid, config, table, cubic)
    plan = system
    solver, rhs, change, nonlinear = plan.solver, plan.rhs, plan.change, plan.nonlinear
    known = plan.known_terms(window.u_prev, window.u_cur)
    if params.beta == 0.0:
        return solver.solve(np.negative(known, out=rhs)), 1
    plan.lag()
    u = (2.0 * window.u_cur - window.u_prev if window.u_prev2 is None
         else 3.0 * (window.u_cur - window.u_prev) + window.u_prev2)
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
    """The bytes integrate holds for a run at its peak: the snapshot
    levels, the block buffer of levels, the StepPlan and its solver
    (PLAN_BYTES_PER_NODE), the working levels and temporaries of the steps
    and diagnostics (WORK_BYTES_PER_NODE), and J+1 rows of each series
    column (at most every name of diagnostics.SERIES_COLUMNS, the printed
    wang energy and grid.times).

    On gauss_split with J = 4 and snapshot_stride 1 this counts 525 bytes
    per node.  The traced peak (tracemalloc, K = 8192 and 16384) grows by
    501 bytes per node for run_mi and 477 for run_wang, whose plan holds 40
    less.  Peak RSS (ru_maxrss, K = 2e5 and 4e5, one fresh process each,
    x86-64, numpy 2.4.6) grows by 517 for run_mi, and for cli.run_experiment
    by 517 with scheme mi and 484 with wang; with both, the second run
    starts on a heap the first has left fragmented and reaches 544.  Blocks
    of B > 1 pairs (K < BLOCK_VALUES) add fields of at most BLOCK_VALUES + K
    nodes, a fixed few hundred kilobytes.

    Writing the files never sets the peak: a run's plan and working levels
    (413 bytes a node) are freed when it returns, before a command's CSV
    writers start, which then hold the run's snapshots and series, the x
    templates of the snapshot file (about 52 bytes a node) and one piece of
    at most cli.PIECE_ROWS rows (about 710 bytes a series row and 300 a
    snapshot node)."""
    levels = (grid.J - 1) // snapshot_stride + 2 + _block_pairs(grid) + 1
    return (grid.K * (16 * levels + PLAN_BYTES_PER_NODE + WORK_BYTES_PER_NODE)
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
            f"{snapshot_stride} would hold {held} bytes, "
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
    come from observe(levels, energy, mass, mean) -> {name: array}: levels
    is the block's (n+1, K) stack of consecutive levels, energy and mass the
    invariants of its n pairs and mean their half-node temporal means; the
    other two half-node fields are released before observe runs.  The
    bootstrap pair is evaluated first, on its own, and gives meta its
    references: energy_ref, mass_ref and <name>_ref for each observed name.
    meta also records the table's linear_stability_margin, taken once the
    plan has refused a singular A.

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
        margin = linear_stability_margin(table, params, grid)
        u_prev, u_cur = bootstrap(problem.f0, problem.f1, params, grid,
                                  mode=config.bootstrap_mode, exact=exact_fn)
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
            mean = half[1]
            del half
            return {"energy_mi": energy, "mass_mi": mass,
                    **observe(levels, energy, mass, mean)}

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
                        levels[1:stop - start + 1],
                        exact_fn(grid.nodes, t[start:stop, None]), grid)))
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
                for name, values in evaluate(np.stack((u_prev, u_cur))).items()}
        snapshots = [(0.0, u_prev.copy()), (grid.tau, u_cur.copy())]
        u_prev2 = None
        levels[0] = u_cur
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
            u_prev2, u_prev, u_cur = u_prev, u_cur, u_next
            levels[j - start] = u_cur
            if j - start == len(levels) - 1:
                flush(start, j)
                levels[0] = u_cur
                start = j
            if j % snapshot_stride == 0:
                snapshots.append(((j + 1) * grid.tau, u_cur.copy()))
        flush(start, grid.J - 1)

    meta = {
        "bootstrap_mode": config.bootstrap_mode,
        "nonlinear_solver": "picard",
        "total_fp_iters": int(fp_iters.sum()),
        "linear_stability_margin": margin,
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

    def identity_gaps(levels, energy, mass, mean):
        nonlocal carried
        previous, carried = carried, (energy[-1], mass[-1], mean[-1])
        if previous is None:
            return {}
        energy_prev, mass_prev, mean_prev = previous
        # A one-row block's previous means are the carried row itself.
        means_prev = (mean_prev[None] if len(mean) == 1
                      else np.vstack((mean_prev, mean[:-1])))
        gaps = diagnostics.identity_gaps(
            energy - np.append(energy_prev, energy[:-1]),
            mass - np.append(mass_prev, mass[:-1]),
            mean, means_prev, params, grid)
        return {"energy_gap": gaps.energy_gap, "mass_gap": gaps.mass_gap}

    traj = integrate(problem, grid, config, snapshot_stride,
                     assemble_linear, _stencils, _cubic, step_mi, identity_gaps)
    traj.meta["scheme"] = "mi"
    return traj
