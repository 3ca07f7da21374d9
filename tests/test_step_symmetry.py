"""Property tests: one step of either scheme commutes with a global phase
rotation and with a periodic shift of the grid.

Both symmetries hold exactly for the schemes (constant coefficients, cubic
term |u|^2 u), so a step taken on rotated or shifted levels must equal the
rotated or shifted step up to round-off and the Picard tolerance.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from nlsw import (PdeParams, SolverConfig, StateWindow, assemble_linear,
                  build_grid, step_mi, step_wang)

REL_TOL = 1e-11

coefficient = st.floats(min_value=-2.0, max_value=2.0)
# gamma = +-2 degenerates the first-order reduction (PdeParams rejects it).
gamma_coefficient = st.floats(min_value=-1.5, max_value=1.5)


def _levels(seed, K):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 2.0 * np.pi, K, endpoint=False)
    u_cur = np.exp(1j * x) + 0.3 * (rng.normal(size=K) + 1j * rng.normal(size=K))
    u_prev = u_cur * np.exp(0.05j) + 0.05 * (rng.normal(size=K)
                                              + 1j * rng.normal(size=K))
    return u_prev, u_cur


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


@settings(max_examples=40, deadline=None)
@given(alpha=coefficient, gamma=gamma_coefficient, theta=coefficient,
       lam=coefficient, beta=coefficient, K=st.integers(8, 64),
       tau=st.floats(min_value=0.01, max_value=0.1),
       seed=st.integers(0, 2 ** 32 - 1),
       phase=st.floats(min_value=0.0, max_value=2.0 * np.pi),
       shift=st.integers(1, 7))
def test_step_mi_commutes_with_phase_and_shift(alpha, gamma, theta, lam, beta,
                                               K, tau, seed, phase, shift):
    params = PdeParams(alpha=alpha, gamma=gamma, theta=theta, lam=lam, beta=beta)
    grid = build_grid(0.0, 2.0 * np.pi, K, 10 * tau, 10)
    _check_symmetries(_mi(params, grid), *_levels(seed, K), phase, shift)


@settings(max_examples=40, deadline=None)
@given(alpha=coefficient, beta=coefficient, K=st.integers(8, 64),
       tau=st.floats(min_value=0.01, max_value=0.1),
       seed=st.integers(0, 2 ** 32 - 1),
       phase=st.floats(min_value=0.0, max_value=2.0 * np.pi),
       shift=st.integers(1, 7))
def test_step_wang_commutes_with_phase_and_shift(alpha, beta, K, tau, seed,
                                                 phase, shift):
    params = PdeParams(alpha=alpha, gamma=0.0, theta=0.0, lam=0.0, beta=beta)
    grid = build_grid(0.0, 2.0 * np.pi, K, 10 * tau, 10)
    _check_symmetries(_wang(params, grid), *_levels(seed, K), phase, shift)
