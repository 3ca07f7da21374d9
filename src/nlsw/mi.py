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
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import diagnostics, problems
from .errors import (ConfigurationError, DivergenceError, NlswError,
                     SingularSystemError, StepFailureError)
from .grid import GridSpec, as_field, central_diff, is_number, second_diff, shown
from .linsolve import OVERFLOWED, CyclicTridiagonalSystem, PreparedCyclicSolver
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
# the whole run, counted from their shapes so that check_run can refuse a
# run before anything is allocated: the plan's (2, K+2) pair and (3, 2, K)
# products, the midpoint cubic's cubes and lagged buffers, and the solver's
# four gttrf factor bands, q, correction and zeros are 17 complex values; the
# cubic's abs2 and the change are two floats; and the solver's int32 pivots.
# The energy-preserving cubic holds less, so the count bounds both schemes.
PLAN_BYTES_PER_NODE = 16 * 17 + 8 * 2 + 4

# Bytes per node that a run holds beyond its stored levels and its plan,
# counted where it peaks, while the diagnostics of a block of one pair run:
# the levels u^{j-2}, u^{j-1} and u^j that the next step reads, the
# half-node mean carried from the block before, the block's three half-node
# fields and up to three float temporaries of an invariant.  A step and the
# bootstrap hold less.
WORK_BYTES_PER_NODE = 16 * (3 + 1 + 3) + 8 * 3

# The floating-point policy of a run, entered once by integrate around its
# factorisation, bootstrap, steps and diagnostics, by a step called on its
# own, and by the CLI's snapshot writer, whose |u| of a huge u is inf.  An
# overflow or invalid operation leaves an inf or NaN that a check reports:
# the factorisation and every allocating solve refuse a non-finite result,
# and picard a sweep's in-place one (SingularSystemError, which picard tells
# apart from a non-finite right-hand side), so the warning itself stays
# quiet.
quiet_overflow = functools.partial(np.errstate, over="ignore", invalid="ignore")

# The factors of picard's starts as 0-d complex arrays, like the cubics'
# factors: the complex multiply numpy makes of 2.0 and 3.0, without
# converting a float on every step.
_TWO, _THREE = np.array(2.0 + 0j), np.array(3.0 + 0j)


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
    """The levels a step reads, StateWindow(u_prev, u_cur, u_prev2=None):
    the consecutive (u^{j-1}, u^j) driving the two-step update, and
    optionally u^{j-2}, which only sharpens the Picard starting guess."""

    u_prev: np.ndarray
    u_cur: np.ndarray
    u_prev2: np.ndarray | None = None


@dataclass
class Trajectory:
    """Snapshots at a configured stride plus the per-step diagnostics: a
    column of J-1 rows for each name of diagnostics.SERIES_COLUMNS that
    applies to the run, its meta, and the wall seconds of its phases
    (plan_s, bootstrap_s, steps_s, diagnostics_s), kept apart from meta as
    the one part that differs between repeated runs."""

    grid: GridSpec
    snapshots: list
    series: dict
    meta: dict
    timings: dict


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
    u_tx = (f1)_x; a u^1 with an inf or NaN, where the expansion overflows,
    is a DivergenceError that names step 1, the level it produced.  exact
    samples the supplied solution at t = tau.
    """
    check_bootstrap(mode, exact)
    x = grid.nodes
    u0 = as_field(f0(x), grid)
    if mode == "exact":
        return u0, as_field(exact(x, grid.tau), grid)
    v0 = as_field(f1(x), grid)
    utt = pde_utt(u0, v0, central_diff(u0, grid.h), second_diff(u0, grid.h),
                  central_diff(v0, grid.h), params)
    u1 = u0 + grid.tau * v0 + 0.5 * grid.tau ** 2 * utt
    if not np.isfinite(u1).all():
        error = DivergenceError("taylor2 bootstrap diverged: non-finite level u^1")
        error.step = 1
        raise error
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


def linear_modes(table, params: PdeParams, grid: GridSpec) -> dict:
    """What the symbols
    lam_X(theta) = lower e^{-i theta} + diag + upper e^{i theta}
    of the stencils X of table(params, grid) give on the K grid modes
    theta = 2 pi m / K, for meta:

    - linear_stability_margin: the minimum of 1 - lam_B^2 / (4 |lam_A|^2).
      At beta = 0 mode m obeys lam_A z^2 + lam_B z + lam_C = 0, and with
      C = A^H (so lam_C = conj(lam_A)) and lam_B real (up to round-off,
      whose imaginary part is dropped) both roots lie on the unit circle
      exactly where this is >= 0.  Below 0 by more than round-off, a mode
      grows exponentially; 0 is a double root, whose mode grows linearly
      (the midpoint scheme's checkerboard on even K).
    - operator_min_abs_eigenvalue: min |lam_A|.  The circulant A has the
      eigenvalues lam_A and is normal, so these moduli are its singular
      values.
    - operator_inverse_condition: min |lam_A| / max |lam_A|, the reciprocal
      of A's condition number in the 2-norm."""
    turn = np.exp(2j * np.pi / grid.K * np.arange(grid.K))
    lam_A, lam_B = (lower * turn.conjugate() + diag + upper * turn
                    for lower, diag, upper in table(params, grid)[:2])
    modulus = np.abs(lam_A)
    ratio = 0.5 * (lam_B.real / modulus)
    smallest = float(np.min(modulus))
    return {"linear_stability_margin": float(np.min(1.0 - ratio * ratio)),
            "operator_min_abs_eigenvalue": smallest,
            "operator_inverse_condition": smallest / float(np.max(modulus))}


def _assemble(table, params: PdeParams, grid: GridSpec) -> CyclicTridiagonalSystem:
    """The cyclic tridiagonal operator A of a scheme: the u^{j+1} stencil of
    table(params, grid)."""
    return CyclicTridiagonalSystem(*(np.full(grid.K, c) for c in table(params, grid)[0]))


# assemble_linear(params, grid): the midpoint scheme's operator.
assemble_linear = functools.partial(_assemble, _stencils)


class StepPlan:
    """What every step of a run reuses, built once per run, or once per
    call for a step called on its own: the solver of system (A, or its
    PreparedCyclicSolver, used as it is), the B and C stencils of
    table(params, grid), the level buffers that known_terms fills,
    cubic(beta/4, u^{j-1}, u^j, rhs) over them as (lag, nonlinear), and the
    known, rhs, change, start and spare buffers that picard works in, with
    every view it reads or writes through.  Holds PLAN_BYTES_PER_NODE bytes
    a node at most; picard returns nothing that shares memory with it.  The
    mesh axis is last throughout, so a batch axis can go in front of it."""

    def __init__(self, system, params: PdeParams, grid: GridSpec, table, cubic):
        self.solver = system if isinstance(system, PreparedCyclicSolver) \
            else PreparedCyclicSolver(system)
        _, on_cur, on_prev = table(params, grid)
        K = grid.K
        self.columns = np.array((on_cur, on_prev), dtype=np.complex128).T[..., None]
        self.pair = pair = np.empty((2, K + 2), dtype=np.complex128)
        # The level rows, and the pads (columns 0 and K+1) with the inner
        # columns K and 1 that wrap into them.
        self.levels = pair[0, 1:-1], pair[1, 1:-1]
        self.pads, self.edges = pair[:, ::K + 1], pair[:, K:0:1 - K]
        # neighbours[s] is the pair read s - 1 nodes on, for columns[s].  The
        # contiguous products[s] are summed into products[0], whose rows then
        # hold the known terms and the step's right-hand sides.  products[1]
        # and [2] are spent once summed, and the rows of products[1] hold
        # the two iterates, the start and the spare that a sweep solves in.
        self.neighbours = np.moveaxis(sliding_window_view(pair, K, axis=-1), -2, 0)
        self.products = products = np.empty((3, 2, K), dtype=np.complex128)
        self.terms = tuple(products)
        self.known, self.rhs = products[0]
        self.known_floats, self.rhs_floats = products[0].view(np.float64)
        self.start, self.spare = products[1]
        self.start_floats, self.spare_floats = products[1].view(np.float64)
        self.change = np.empty(K)
        self.lag, self.nonlinear = cubic(0.25 * params.beta, self.levels[1],
                                         self.levels[0], self.rhs)

    def known_terms(self, u_prev, u_cur):
        """B u^j + C u^{j-1} into the known buffer, each element summed as
        (lower*left + diag*u) + upper*right per level, from one multiply."""
        cur, prev = self.levels
        cur[...] = u_cur
        prev[...] = u_prev
        self.pads[...] = self.edges
        total, diag_terms, upper_terms = self.terms
        np.multiply(self.columns, self.neighbours, out=self.products)
        total += diag_terms
        total += upper_terms
        return np.add(self.known, self.rhs, out=self.known)


def _cubic(quarter_beta, u_prev, u_cur, rhs):
    """The midpoint scheme's nonlinear term over a StepPlan's level buffers
    u_prev and u_cur, as (lag, nonlinear).  The pair sum of a level v is
    |y|^2 y at k+1/2 plus at k-1/2, y the half-node means of the temporal
    mean (u_cur + v)/2.  lag() writes the pair sum of u_prev, once a step,
    and nonlinear(u) writes N(u) = quarter_beta times (the pair sum of u
    plus the lagged one) into rhs and returns it.  Holds K+1 complex cubes,
    K+1 floats and K complex lagged values."""
    K = u_cur.shape[-1]
    cubes = np.empty(K + 1, dtype=np.complex128)
    abs2 = np.empty(K + 1)
    lagged = np.empty(K, dtype=np.complex128)
    inner, cubes_head, cubes_tail = cubes[1:-1], cubes[:-1], cubes[1:]
    rhs_head, rhs_tail = rhs[:-1], rhs[1:]
    # The factors as 0-d complex arrays: the complex multiply that numpy
    # makes of a float factor, without converting the float on every call.
    half, scale = np.array(0.5 + 0j), np.array(complex(quarter_beta))
    add, multiply = np.add, np.multiply

    def pair(level, out, head, tail):
        # The temporal mean m goes in the sum's own buffer, which the sum
        # then overwrites.  The K+1 half-node means from -1/2 to K-1/2 are
        # the K-1 inner sums of m with the wrapped sum at both ends.
        mean = add(u_cur, level, out)
        multiply(mean, half, mean)
        add(head, tail, inner)
        cubes[0] = cubes[-1] = mean[-1] + mean[0]
        # Halved twice, never quartered at once: a quarter of a sum of
        # subnormals rounds to zeros of another sign.
        multiply(cubes, half, cubes)
        np.square(np.abs(cubes, abs2), abs2)
        multiply(cubes, abs2, cubes)
        return add(cubes_tail, cubes_head, out)

    def nonlinear(u):
        pair(u, rhs, rhs_head, rhs_tail)
        add(rhs, lagged, rhs)
        return multiply(rhs, scale, rhs)
    lag = functools.partial(pair, u_prev, lagged, lagged[:-1], lagged[1:])
    return lag, nonlinear


def picard(window: StateWindow, system, params: PdeParams, grid: GridSpec,
           config: SolverConfig, table, cubic):
    """The step of both schemes: solve A u + B u^j + C u^{j-1} + N(u) = 0
    for the new level u, with (A, B, C) = table(params, grid), N from cubic
    and window = StateWindow(u^{j-1}, u^j, u^{j-2} or None).  system is a
    run's StepPlan, whose buffers the step works in and whose levels it
    takes unchecked, under the run's quiet_overflow; or A or its
    PreparedCyclicSolver, from which the call builds a plan, after checking
    the window's levels with as_field, and runs under quiet_overflow.

    Returns (u, sweeps), u a fresh array: one solve at beta = 0, otherwise
    Picard sweeps on the frozen A until the sup-norm update is at most
    fp_tol * max(1, |u|).  Raises StepFailureError after STALL_SWEEPS
    sweeps in a row without a smaller update than the smallest so far, or
    after fp_max_iter sweeps; DivergenceError, naming the sweep, where the
    nonlinear term is not finite; and SingularSystemError (OVERFLOWED)
    where the solve of a finite right-hand side is not.
    """
    if not isinstance(system, StepPlan):
        window = StateWindow(*(None if u is None else as_field(u, grid) for u in window))
        with quiet_overflow():
            return picard(window, StepPlan(system, params, grid, table, cubic),
                          params, grid, config, table, cubic)
    plan = system
    solve, nonlinear = plan.solver.solve, plan.nonlinear
    rhs, change, u, spare = plan.rhs, plan.change, plan.start, plan.spare
    u_floats, spare_floats = plan.start_floats, plan.spare_floats
    u_prev, u_cur, u_prev2 = window
    known = plan.known_terms(u_prev, u_cur)
    negative = np.negative
    if params.beta == 0.0:
        negative(plan.known_floats, plan.rhs_floats)
        return solve(rhs), 1
    plan.lag()
    add, subtract, multiply, absolute = np.add, np.subtract, np.multiply, np.abs
    # Every maximum is the entry at argmax, exact; where a NaN is present
    # argmax picks the first, so the maximum is NaN, as np.maximum.reduce
    # gives.
    argmax = change.argmax
    # The start: the quadratic extrapolation 3 u^j - 3 u^{j-1} + u^{j-2}, or
    # the linear 2 u^j - u^{j-1} without u^{j-2}.
    if u_prev2 is None:
        subtract(multiply(_TWO, u_cur, u), u_prev, u)
    else:
        add(multiply(_THREE, subtract(u_cur, u_prev, u), u), u_prev2, u)
    absolute(u, change)
    # |u| is at most bound, |start| plus the updates so far, so an update
    # above 2 fp_tol max(1, bound) fails the test whatever |u| is, and |u|
    # is taken only below that.
    bound = change.item(argmax())
    fp_tol = config.fp_tol
    could_pass = 2.0 * fp_tol
    inf = diff = smallest = np.inf
    stalled = 0
    for it in range(1, config.fp_max_iter + 1):
        # spare = -(known + N(u)), solved in place; the sign flip acts on the
        # float64 view, which gives the complex negative's bits.
        add(known, nonlinear(u), spare)
        negative(spare_floats, spare_floats)
        solve(spare, spare)
        previous = diff
        # N(u) is spent, so its buffer holds u_new - u.
        absolute(subtract(spare, u, rhs), change)
        diff = change.item(argmax())
        # An inf or NaN in u_new makes diff inf or NaN, so only then is u_new
        # checked: the solver's SingularSystemError if known + N(u) is
        # finite, as the allocating solve rules, else a divergence.
        if not diff < inf and not np.logical_and.reduce(np.isfinite(spare)):
            if np.logical_and.reduce(np.isfinite(add(known, nonlinear(u), rhs))):
                raise SingularSystemError(OVERFLOWED)
            raise DivergenceError(
                f"fixed-point iterate diverged: non-finite nonlinear term "
                f"in sweep {it}") from None
        bound += diff
        # The iterates swap buffers, so the sweeps allocate nothing.
        u, spare = spare, u
        u_floats, spare_floats = spare_floats, u_floats
        if diff <= could_pass * max(1.0, bound):
            absolute(u, change)
            peak = change.item(argmax())
            if diff <= fp_tol * max(1.0, peak):
                return u.copy(), it
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
    """The bytes integrate holds for a run of grid at its peak, which
    check_run holds to MEMORY_CAP_BYTES: the snapshot levels, the block
    buffer of levels, the StepPlan with its solver (PLAN_BYTES_PER_NODE),
    the working levels and temporaries of the steps and diagnostics
    (WORK_BYTES_PER_NODE), and J+1 rows of each series column (every name of
    diagnostics.SERIES_COLUMNS, the printed wang energy and grid.times).
    Not counted: the half-node fields of a block of B > 1 pairs, at most
    BLOCK_VALUES + K nodes.  Writing a run's files does not raise the peak,
    since the plan and working levels are freed first and the CSV writers
    hold one piece of cli.PIECE_ROWS rows and the snapshot file's node
    texts."""
    levels = (grid.J - 1) // snapshot_stride + 2 + _block_pairs(grid) + 1
    return (grid.K * (16 * levels + PLAN_BYTES_PER_NODE + WORK_BYTES_PER_NODE)
            + 8 * (grid.J + 1) * (len(diagnostics.SERIES_COLUMNS) + 2))


def _block_pairs(grid: GridSpec) -> int:
    """B, the pairs of levels whose diagnostics integrate evaluates at once."""
    return max(1, BLOCK_VALUES // grid.K)


def check_run(problem, grid: GridSpec, config: SolverConfig, snapshot_stride,
              table):
    """Refuse a run, before anything is allocated, unless snapshot_stride is
    an integer >= 1, the run holds at most MEMORY_CAP_BYTES (see held_bytes),
    the bootstrap passes check_bootstrap given the problem's exact solution
    only if it is verified, and every entry of the scheme's stencil
    table(params, grid) is within the float range, where a coefficient over
    tau or h would overflow; the energy-preserving table first refuses
    coefficients outside its family.  Returns that verified solution or
    None, the one integrate bootstraps from and measures errors against.
    The CLI makes the same call at parse time, once per scheme it runs."""
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
    params = problem.params
    if not np.isfinite(np.array(table(params, grid), dtype=np.complex128)).all():
        raise ConfigurationError(
            f"the scheme's stencils overflow for alpha={params.alpha}, "
            f"gamma={params.gamma}, theta={params.theta}, lambda={params.lam} "
            f"with tau={grid.tau} and h={grid.h}")
    return exact


def integrate(problem, grid: GridSpec, config: SolverConfig,
              snapshot_stride: int, table, cubic, step, observe) -> Trajectory:
    """The run loop of both schemes.  check_run refuses the run, with table,
    before anything is allocated; then, under one quiet_overflow, integrate
    builds one StepPlan of table's operator A and of cubic, bootstraps, and
    advances J-1 steps with step(window, plan, params, grid, config) ->
    (u_next, fp_iters), window = StateWindow(u^{j-1}, u^j, u^{j-2}), which
    carries no u^{j-2} on the first step.

    Returns a Trajectory of:
    - series: step (the produced level index, 2..J), t, fp_iters, the
      midpoint invariants energy_mi and mass_mi of each step's pair, the
      error metrics when the problem carries a verified exact solution, and
      the scheme's columns, observe(levels, energy, mass, mean, abs2_mean)
      -> {name: array} for levels, an (n+1, K) stack of consecutive levels,
      the invariants of its n pairs, their half-node temporal means and
      their |mean|^2;
    - snapshots: copies of level n at t = n tau for each n = 0..J that
      snapshot_stride divides, and of level J, (J - 1) // snapshot_stride
      + 2 levels;
    - meta: the bootstrap pair's energy_ref, mass_ref and <name>_ref for
      each observed name, and the table's linear_modes;
    - timings: the wall seconds of plan_s (the factorisation and
      linear_modes), bootstrap_s, diagnostics_s (every evaluation, the
      bootstrap pair's included) and steps_s (the rest of the loop).

    A failure names its step: step 1 for the bootstrap (see bootstrap) and
    its pair, and the earliest failing step in step order otherwise.
    """
    exact_fn = check_run(problem, grid, config, snapshot_stride, table)
    params = problem.params
    clock = time.perf_counter
    with quiet_overflow():
        started = clock()
        plan = StepPlan(_assemble(table, params, grid), params, grid, table, cubic)
        modes = linear_modes(table, params, grid)
        planned = clock()
        window = StateWindow(*bootstrap(problem.f0, problem.f1, params, grid,
                                        mode=config.bootstrap_mode, exact=exact_fn))
        booted = clock()
        t = grid.times[2:]
        fp_iters = np.empty(grid.J - 1, dtype=np.int64)
        series = {"step": np.arange(2, grid.J + 1), "t": t, "fp_iters": fp_iters}
        # The diagnostics never feed back into the stepping, so they run a
        # block at a time: each new level is copied into levels, and its
        # B = _block_pairs(grid) pairs of consecutive rows are evaluated as
        # [B, K] stacks once it fills, and once more at the end of the run.
        levels = np.empty((_block_pairs(grid) + 1, grid.K), dtype=np.complex128)

        def evaluate(levels):
            """The invariants and the observed columns of the pairs of
            consecutive levels."""
            u_cur, u_next = levels[:-1], levels[1:]
            # The half-node fields, built once for both invariants and the
            # observer, which gets the mean alone.
            half = diagnostics.half_nodes(u_cur, u_next, grid)
            energy = diagnostics.mi_energy(u_cur, u_next, params, grid, half=half)
            mass = diagnostics.mi_mass(u_cur, u_next, params, grid, half=half)
            mean, abs2_mean = half[1], half.abs2_mid
            del half
            return {"energy_mi": energy, "mass_mi": mass,
                    **observe(levels, energy, mass, mean, abs2_mean)}

        def flush(start, stop):
            """Fill rows start..stop-1 from levels[:stop - start + 1].  On a
            failure in row start + i, the rows before it are evaluated alone
            first, so that a failure there, which the row-by-row order meets
            first, is the one raised.  Adds its wall time to diagnostics_s."""
            nonlocal diagnostics_s
            if start == stop:
                return
            tick = clock()
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
            diagnostics_s += clock() - tick

        try:
            refs = {f"{name}_ref": float(values[0])
                    for name, values in evaluate(np.stack(window[:2])).items()}
        except NlswError as exc:
            exc.step = 1
            raise
        diagnostics_s = clock() - booted
        snapshots = [(0.0, window.u_prev.copy())]
        if snapshot_stride == 1:
            snapshots.append((grid.tau, window.u_cur.copy()))
        levels[0] = window.u_cur
        start = 0
        for j in range(1, grid.J):
            try:
                u_next, fp_iters[j - 1] = step(window, plan, params, grid, config)
            except NlswError as exc:
                flush(start, j - 1)
                exc.step = j + 1
                raise
            window = StateWindow(window.u_cur, u_next, window.u_prev)
            levels[j - start] = u_next
            if j - start == len(levels) - 1:
                flush(start, j)
                levels[0] = u_next
                start = j
            if (j + 1) % snapshot_stride == 0 or j + 1 == grid.J:
                snapshots.append(((j + 1) * grid.tau, u_next.copy()))
        flush(start, grid.J - 1)
        finished = clock()

    meta = {
        "bootstrap_mode": config.bootstrap_mode,
        "nonlinear_solver": "picard",
        "total_fp_iters": int(fp_iters.sum()),
        **modes,
        "energy_ref": refs.pop("energy_mi_ref"),
        "mass_ref": refs.pop("mass_mi_ref"),
        **refs,
    }
    timings = {"plan_s": planned - started, "bootstrap_s": booted - planned,
               "steps_s": finished - booted - diagnostics_s,
               "diagnostics_s": diagnostics_s}
    return Trajectory(grid=grid, snapshots=snapshots, series=series, meta=meta,
                      timings=timings)


def run_mi(problem, grid: GridSpec, config: SolverConfig,
           snapshot_stride: int = 100) -> Trajectory:
    """Run the midpoint scheme through integrate, adding the identity gaps
    of each step from the invariant increments and the half-node means of
    its pair and of the previous pair; the last pair of each block (first
    the bootstrap pair, which has no gaps) is carried to the next, with its
    |mean|^2, the previous pair's |b|^2 of the identity."""
    params = problem.params
    carried = None

    def identity_gaps(levels, energy, mass, mean, abs2_mean):
        nonlocal carried
        previous, carried = carried, (energy[-1], mass[-1], mean[-1], abs2_mean[-1])
        if previous is None:
            return {}
        energy_prev, mass_prev, mean_prev, abs2_prev = previous
        # A one-row block's previous means are the carried row itself.
        if len(mean) == 1:
            means_prev, abs2_prev = mean_prev[None], abs2_prev[None]
        else:
            means_prev = np.vstack((mean_prev, mean[:-1]))
            abs2_prev = np.vstack((abs2_prev, abs2_mean[:-1]))
        gaps = diagnostics.identity_gaps(
            energy - np.append(energy_prev, energy[:-1]),
            mass - np.append(mass_prev, mass[:-1]),
            mean, means_prev, (abs2_mean, abs2_prev), params, grid)
        return {"energy_gap": gaps.energy_gap, "mass_gap": gaps.mass_gap}

    traj = integrate(problem, grid, config, snapshot_stride,
                     _stencils, _cubic, step_mi, identity_gaps)
    traj.meta["scheme"] = "mi"
    return traj
