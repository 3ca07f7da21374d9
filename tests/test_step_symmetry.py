"""Property tests: one step of either scheme commutes with a global phase
rotation and with a periodic shift of the grid, and is undone by the step
of the time-reversed scheme; the stencil tables build C as A^H, which must
equal the u^{j+1} stencil of the time-reversed scheme, and B = B^H.  Both
steps take the assembled operator or its prepared solver alike.

Both symmetries hold exactly for the schemes (constant coefficients, cubic
term |u|^2 u), so a step taken on rotated or shifted levels must equal the
rotated or shifted step up to round-off and the Picard tolerance.  Reversing
time maps each scheme onto itself with alpha and gamma negated, so stepping
back from (u^{j+1}, u^j) with those coefficients returns u^{j-1}.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlsw import (PdeParams, PreparedCyclicSolver, SolverConfig, StateWindow,
                  assemble_linear, assemble_wang, build_grid, builtin_problem,
                  step_mi, step_wang)
from nlsw import mi, wang

from strategies import (coefficient, gamma_coefficient, levels, periodic_grid,
                        seeds, sizes, time_steps)

REL_TOL = 1e-11


def _mi(params, grid):
    system = assemble_linear(params, grid)
    config = SolverConfig()
    return lambda u_prev, u_cur: step_mi(StateWindow(u_prev, u_cur), system,
                                         params, grid, config)[0]


def _wang(params, grid):
    system = assemble_wang(params, grid)
    config = SolverConfig()
    return lambda u_prev, u_cur: step_wang(StateWindow(u_prev, u_cur), system,
                                           params, grid, config)[0]


def _check_symmetries(step, u_prev, u_cur, phase, shift):
    u_next = step(u_prev, u_cur)
    scale = max(1.0, float(np.abs(u_next).max()))
    c = np.exp(1j * phase)
    rotated = step(c * u_prev, c * u_cur)
    assert np.abs(rotated - c * u_next).max() <= REL_TOL * scale
    shifted = step(np.roll(u_prev, shift), np.roll(u_cur, shift))
    assert np.abs(shifted - np.roll(u_next, shift)).max() <= REL_TOL * scale


def _check_time_reversal(scheme, params, grid, u_prev, u_cur):
    u_next = scheme(params, grid)(u_prev, u_cur)
    reversed_params = dataclasses.replace(params, alpha=-params.alpha,
                                          gamma=-params.gamma)
    u_back = scheme(reversed_params, grid)(u_next, u_cur)
    scale = max(1.0, float(np.abs(u_prev).max()))
    assert np.abs(u_back - u_prev).max() <= REL_TOL * scale


@settings(max_examples=40, deadline=None)
@given(alpha=coefficient, gamma=gamma_coefficient, theta=coefficient,
       lam=coefficient, beta=coefficient, K=sizes, tau=time_steps, seed=seeds,
       phase=st.floats(min_value=0.0, max_value=2.0 * np.pi),
       shift=st.integers(1, 7))
def test_step_mi_commutes_with_phase_and_shift(alpha, gamma, theta, lam, beta,
                                               K, tau, seed, phase, shift):
    params = PdeParams(alpha=alpha, gamma=gamma, theta=theta, lam=lam, beta=beta)
    _check_symmetries(_mi(params, periodic_grid(K, tau)), *levels(seed, K),
                      phase, shift)


@settings(max_examples=40, deadline=None)
@given(alpha=coefficient, beta=coefficient, K=sizes, tau=time_steps, seed=seeds,
       phase=st.floats(min_value=0.0, max_value=2.0 * np.pi),
       shift=st.integers(1, 7))
def test_step_wang_commutes_with_phase_and_shift(alpha, beta, K, tau, seed,
                                                 phase, shift):
    params = PdeParams(alpha=alpha, gamma=0.0, theta=0.0, lam=0.0, beta=beta)
    _check_symmetries(_wang(params, periodic_grid(K, tau)), *levels(seed, K),
                      phase, shift)


@settings(max_examples=40, deadline=None)
@given(alpha=coefficient, gamma=gamma_coefficient, theta=coefficient,
       lam=coefficient, beta=coefficient, K=sizes, tau=time_steps, seed=seeds)
def test_step_mi_undone_by_time_reversed_step(alpha, gamma, theta, lam, beta,
                                              K, tau, seed):
    params = PdeParams(alpha=alpha, gamma=gamma, theta=theta, lam=lam, beta=beta)
    _check_time_reversal(_mi, params, periodic_grid(K, tau), *levels(seed, K))


@settings(max_examples=40, deadline=None)
@given(alpha=coefficient, beta=coefficient, K=sizes, tau=time_steps, seed=seeds)
def test_step_wang_undone_by_time_reversed_step(alpha, beta, K, tau, seed):
    params = PdeParams(alpha=alpha, gamma=0.0, theta=0.0, lam=0.0, beta=beta)
    _check_time_reversal(_wang, params, periodic_grid(K, tau), *levels(seed, K))


def _adjoint(stencil):
    """(lower, diag, upper) of the conjugate transpose of a constant
    three-point periodic stencil."""
    lower, diag, upper = stencil
    return (np.conj(upper), np.conj(diag), np.conj(lower))


@settings(max_examples=300, deadline=None)
@given(alpha=coefficient, gamma=gamma_coefficient, theta=coefficient,
       lam=coefficient, beta=coefficient, K=sizes, tau=time_steps)
def test_mi_stencils_adjoint(alpha, gamma, theta, lam, beta, K, tau):
    # The table builds C as A^H; that adjoint must be the u^{j+1} stencil of
    # the time-reversed scheme, and B = B^H: the scheme is a discrete
    # Euler-Lagrange equation.
    params = PdeParams(alpha=alpha, gamma=gamma, theta=theta, lam=lam, beta=beta)
    grid = periodic_grid(K, tau)
    _, on_cur, on_prev = mi._stencils(params, grid)
    reversed_params = dataclasses.replace(params, alpha=-alpha, gamma=-gamma)
    assert on_prev == mi._stencils(reversed_params, grid)[0]
    assert on_cur == _adjoint(on_cur)


@settings(max_examples=300, deadline=None)
@given(alpha=coefficient, beta=coefficient, K=sizes, tau=time_steps)
def test_wang_stencils_adjoint(alpha, beta, K, tau):
    params = PdeParams(alpha=alpha, gamma=0.0, theta=0.0, lam=0.0, beta=beta)
    grid = periodic_grid(K, tau)
    _, on_cur, on_prev = wang._stencils(params, grid)
    reversed_params = dataclasses.replace(params, alpha=-alpha)
    assert on_prev == wang._stencils(reversed_params, grid)[0]
    assert on_cur == _adjoint(on_cur)


@pytest.mark.parametrize("assemble, step", [(assemble_linear, step_mi),
                                            (assemble_wang, step_wang)])
def test_step_takes_system_or_prepared_solver(monkeypatch, assemble, step):
    # Both schemes share one step contract: the assembled operator or its
    # prepared solver give the same level and sweep count, and a prepared
    # solver is used as it is, without a second factorisation.
    prob = builtin_problem("plane_beta2")
    grid = build_grid(prob.x_l, prob.x_r, 64, 1.0, 100)
    window = StateWindow(prob.exact(grid.nodes, 4 * grid.tau),
                         prob.exact(grid.nodes, 5 * grid.tau))
    config = SolverConfig()
    system = assemble(prob.params, grid)
    solver = PreparedCyclicSolver(system)
    u_system, sweeps_system = step(window, system, prob.params, grid, config)
    factored = []
    prepare = PreparedCyclicSolver.__init__

    def counted(self, *args):
        factored.append(args)
        prepare(self, *args)
    monkeypatch.setattr(PreparedCyclicSolver, "__init__", counted)
    u_solver, sweeps_solver = step(window, solver, prob.params, grid, config)
    assert np.array_equal(u_solver, u_system)
    assert sweeps_solver == sweeps_system > 1
    assert factored == []
