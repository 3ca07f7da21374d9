"""Property tests: one step of either scheme commutes with a global phase
rotation and with a periodic shift of the grid, and is undone by the step
of the time-reversed scheme.

Both symmetries hold exactly for the schemes (constant coefficients, cubic
term |u|^2 u), so a step taken on rotated or shifted levels must equal the
rotated or shifted step up to round-off and the Picard tolerance.  Reversing
time maps each scheme onto itself with alpha and gamma negated, so stepping
back from (u^{j+1}, u^j) with those coefficients returns u^{j-1}.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from nlsw import (PdeParams, SolverConfig, StateWindow, assemble_linear,
                  step_mi, step_wang)

from strategies import (coefficient, gamma_coefficient, levels, periodic_grid,
                        seeds, sizes, time_steps)

REL_TOL = 1e-11


def _mi(params, grid):
    system = assemble_linear(params, grid)
    config = SolverConfig()
    return lambda u_prev, u_cur: step_mi(StateWindow(u_prev, u_cur, 0.0), system,
                                         params, grid, config)[0]


def _wang(params, grid):
    config = SolverConfig()
    return lambda u_prev, u_cur: step_wang(StateWindow(u_prev, u_cur, 0.0),
                                           params, grid, config)


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
