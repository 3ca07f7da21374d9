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
term, and run_wang is mi.integrate with this scheme's table, step and
energies.
"""

from __future__ import annotations

import functools

import numpy as np

from .diagnostics import max_rel_drift
from .errors import ConfigurationError
from .grid import GridSpec, as_level, backward_diff, scalar_or_rows
from .mi import SolverConfig, Trajectory, _assemble, integrate, picard
from .model import PdeParams


def check_coefficients(params: PdeParams):
    """Refuse coefficients outside the scheme's gamma = theta = lam = 0."""
    if params.gamma != 0.0 or params.theta != 0.0 or params.lam != 0.0:
        raise ConfigurationError(
            "the energy-preserving scheme covers gamma = theta = lam = 0 only; "
            f"got gamma={params.gamma}, theta={params.theta}, lam={params.lam}")


def _stencils(params: PdeParams, grid: GridSpec):
    """(lower, diag, upper) of the stencils acting on u^{j+1}, u^j and
    u^{j-1}; the u^{j-1} one is built as the adjoint C = A^H of the u^{j+1}
    one, what reversing time makes of A."""
    check_coefficients(params)
    h, tau = grid.h, grid.tau
    off = -0.5 / h ** 2
    diag = 1.0 / tau ** 2 + 1.0 / h ** 2 - 0.5j * params.alpha / tau
    return (off, diag, off), (0.0, -2.0 / tau ** 2, 0.0), (off, diag.conjugate(), off)


# assemble_wang(params, grid): the scheme's operator.
assemble_wang = functools.partial(_assemble, _stencils)


def _cubic(quarter_beta, u_prev, u_cur, rhs):
    """The scheme's nonlinear term (beta/4)(|u|^2 + |u^{j-1}|^2)(u + u^{j-1})
    over a StepPlan's level buffer u_prev, as (lag, nonlinear) like
    mi._cubic: lag() writes |u^{j-1}|^2, once a step, and nonlinear(u)
    writes the term into rhs and returns it.  u_cur is not read.  Holds 2 K
    floats."""
    abs2_prev, weight = np.empty((2,) + u_prev.shape)
    # beta/4 as a 0-d array, which numpy need not convert on every call.
    scale = np.array(quarter_beta)
    add, multiply = np.add, np.multiply

    def lag():
        np.square(np.abs(u_prev, out=abs2_prev), out=abs2_prev)

    def nonlinear(u):
        np.square(np.abs(u, out=weight), out=weight)
        add(weight, abs2_prev, out=weight)
        multiply(weight, scale, out=weight)
        add(u, u_prev, out=rhs)
        return multiply(rhs, weight, out=rhs)
    return lag, nonlinear


# step_wang(window, system, params, grid, config) -> (u_next, fp_iters), by picard.
step_wang = functools.partial(picard, table=_stencils, cubic=_cubic)


# The name run_wang steps through: benchmarks/spans.py traces wang.step under
# it, and tests/test_benchmark_hooks.py counts the calls run_wang makes to it.
_step_wang = step_wang


def gradient_sums(levels, grid: GridSpec):
    """sum |dx u|^2 of the backward difference of each level of a
    [..., n, K] stack: shape [..., n]."""
    return np.sum(np.abs(backward_diff(levels, grid.h)) ** 2, axis=-1)


def _abs4(u):
    """|u|^4 elementwise, |u| squared twice, where a power of 4 would make a
    libm pow call per value.  Every energy of the scheme takes it from here,
    so a run's carried terms and a fresh energy_wang agree bit for bit."""
    modulus = np.abs(u)
    return np.square(np.square(modulus, out=modulus), out=modulus)


def kinetic_gradient(levels, grid: GridSpec, gradient=None):
    """h ||dt u||^2 + (h/2)(||dx u^{j+1}||^2 + ||dx u^j||^2), the part both
    energy variants share, for each pair of consecutive levels of a
    [..., n+1, K] stack: shape [..., n], from one backward difference of
    the n+1 levels, or from their gradient_sums if given."""
    h = grid.h
    dt = (levels[..., 1:, :] - levels[..., :-1, :]) / grid.tau
    if gradient is None:
        gradient = gradient_sums(levels, grid)
    return (h * np.sum(np.abs(dt) ** 2, axis=-1)
            + 0.5 * h * (gradient[..., 1:] + gradient[..., :-1]))


def energy_wang(u_cur, u_next, params: PdeParams, grid: GridSpec,
                kinetic=None, quartic=None) -> float:
    """The exactly conserved two-level energy of the scheme: a float for one
    pair, a float array for [..., K] stacks of pairs, row by row.  kinetic,
    if given, is the pairs' kinetic_gradient, and quartic their
    (|u^j|^4, |u^{j+1}|^4), already built."""
    u_cur = as_level(u_cur, grid)
    u_next = as_level(u_next, grid)
    if kinetic is None:
        kinetic = kinetic_gradient(np.stack((u_cur, u_next), axis=-2), grid)[..., 0]
    quartic_cur, quartic_next = ((_abs4(u_cur), _abs4(u_next))
                                 if quartic is None else quartic)
    return scalar_or_rows(
        kinetic + 0.25 * params.beta * grid.h * np.sum(quartic_next + quartic_cur,
                                                       axis=-1))


def energy_wang_printed(u_cur, u_next, params: PdeParams, grid: GridSpec,
                        kinetic=None, quartic=None) -> float:
    """Single-level quartic variant as commonly printed; drifts, recorded
    side by side for comparison.  Stacks, kinetic and quartic as in
    energy_wang."""
    u_cur = as_level(u_cur, grid)
    u_next = as_level(u_next, grid)
    if kinetic is None:
        kinetic = kinetic_gradient(np.stack((u_cur, u_next), axis=-2), grid)[..., 0]
    quartic_cur = _abs4(u_cur) if quartic is None else quartic[0]
    return scalar_or_rows(
        kinetic + 0.5 * params.beta * grid.h * np.sum(quartic_cur, axis=-1))


def run_wang(problem, grid: GridSpec, config: SolverConfig,
             snapshot_stride: int = 100) -> Trajectory:
    """Run the energy-preserving scheme through integrate, recording its own
    conserved energy next to the midpoint-scheme invariants, for
    side-by-side conservation comparisons, and the largest relative drift
    of the printed single-level variant from its bootstrap-pair value."""
    params = problem.params
    carried = None

    def wang_energies(levels, energy, mass, mean, abs2_mean):
        # The gradient sum and |u|^4 of a block's first level, the last of
        # the block before (first the bootstrap pair), are carried over.
        nonlocal carried
        fresh = levels if carried is None else levels[1:]
        gradient, quartic = gradient_sums(fresh, grid), _abs4(fresh)
        if carried is not None:
            gradient = np.concatenate((carried[0], gradient))
            quartic = np.concatenate((carried[1], quartic))
        carried = gradient[-1:], quartic[-1:]
        kinetic = kinetic_gradient(levels, grid, gradient)
        quartic = quartic[:-1], quartic[1:]
        u_cur, u_next = levels[:-1], levels[1:]
        return {"energy_wang": energy_wang(u_cur, u_next, params, grid, kinetic, quartic),
                "energy_wang_printed": energy_wang_printed(u_cur, u_next, params,
                                                           grid, kinetic, quartic)}

    traj = integrate(problem, grid, config, snapshot_stride,
                     _stencils, _cubic, _step_wang, wang_energies)
    printed = traj.series.pop("energy_wang_printed")
    traj.meta["scheme"] = "wang"
    traj.meta["energy_wang_printed_max_rel_drift"] = max_rel_drift(
        printed, traj.meta["energy_wang_printed_ref"])
    return traj
