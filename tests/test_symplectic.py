"""Symplecticity of the two-step map, the property in the paper's title.

A scheme's residual R(x_{j-1}, x_j, x_{j+1}) = 0 defines the map
(x_{j-1}, x_j) -> (x_j, x_{j+1}), in real coordinates x = (Re u, Im u).  The
reduced midpoint scheme is a discrete Euler-Lagrange equation, so its map
preserves the two-form with matrix

    Omega(x_{j-1}, x_j) = [[0, W], [-W^T, 0]],   W = (dR_j/dx_{j-1})^T,

i.e. M^T Omega(x_j, x_{j+1}) M = Omega(x_{j-1}, x_j) for the tangent map
M = [[0, I], [-R_2^{-1} R_0, -R_2^{-1} R_1]], R_i the Jacobians of R with
respect to its three levels.  The energy-preserving scheme's cubic couples
u^{j+1} with u^{j-1}, so for beta != 0 its map does not preserve the form:
that defect is pinned here as a negative result.

The Jacobians come from tests/oracles.py evaluated on numpy arrays, one
column per perturbation: R is cubic, so a central difference plus one
Richardson step gives them exactly, up to round-off, for any step.
"""

import numpy as np
import pytest

import oracles
from nlsw import PdeParams, SolverConfig, build_grid, run_mi, run_wang
from nlsw.problems import ProblemSpec

K, J, STEPS = 8, 6, 4


def trajectory(runner, params, tau):
    """The J + 1 levels of a converged K = 8 run on smooth data."""
    problem = ProblemSpec(name="symplectic", params=params, x_l=0.0,
                          x_r=2.0 * np.pi, default_T=J * tau,
                          f0=lambda x: np.exp(1j * x) + 0.3 * np.exp(-2j * x),
                          f1=lambda x: 0.5j * np.exp(1j * x))
    grid = build_grid(problem.x_l, problem.x_r, K, J * tau, J)
    traj = runner(problem, grid, SolverConfig(fp_tol=2e-14), snapshot_stride=1)
    return grid, [u for _, u in traj.snapshots]


def jacobians(residual, triple, params, grid, delta=0.1):
    """The real Jacobians (R_0, R_1, R_2) of residual at the levels triple:
    each is (4 D(delta/2) - D(delta)) / 3 of the central differences D,
    all columns from one residual call on [K, 4 * 2K] arrays."""
    n = 2 * grid.K
    directions = np.concatenate((np.eye(grid.K), 1j * np.eye(grid.K)), axis=1)
    offsets = np.array([delta, -delta, delta / 2, -delta / 2])
    perturbation = (directions[:, None, :] * offsets[None, :, None]).reshape(grid.K, -1)
    result = []
    for which in range(3):
        levels = [np.repeat(u[:, None], 4 * n, axis=1) for u in triple]
        levels[which] = levels[which] + perturbation
        R = np.array(residual(*levels, params, grid))
        R = np.concatenate((R.real, R.imag)).reshape(n, 4, n)
        coarse = (R[:, 0] - R[:, 1]) / (2 * delta)
        fine = (R[:, 2] - R[:, 3]) / delta
        result.append((4 * fine - coarse) / 3)
    return result


def form_defect(residual, params, levels, grid):
    """The largest relative change max|M^T Omega' M - Omega| / max|Omega| of
    the two-form over STEPS steps."""
    jac = [jacobians(residual, levels[j - 1:j + 2], params, grid)
           for j in range(1, STEPS + 2)]
    n = 2 * grid.K
    zero, eye = np.zeros((n, n)), np.eye(n)

    def omega(W):
        return np.block([[zero, W], [-W.T, zero]])

    worst = 0.0
    for j in range(STEPS):
        R0, R1, R2 = jac[j]
        M = np.block([[zero, eye],
                      [-np.linalg.solve(R2, R0), -np.linalg.solve(R2, R1)]])
        before = omega(R0.T)
        after = M.T @ omega(jac[j + 1][0].T) @ M
        worst = max(worst, float(np.abs(after - before).max() / np.abs(before).max()))
    return worst


def scheme_defect(scheme, params, tau):
    runner, residual = ((run_mi, oracles.mi_residual_direct) if scheme == "mi"
                        else (run_wang, oracles.wang_residual_direct))
    grid, levels = trajectory(runner, params, tau)
    return form_defect(residual, params, levels, grid)


@pytest.mark.parametrize("scheme, params", [
    ("mi", PdeParams(alpha=-1.0, gamma=0.7, theta=0.5, lam=0.3, beta=0.0)),
    ("mi", PdeParams(alpha=-1.0, gamma=0.7, theta=0.5, lam=0.3, beta=2.0)),
    ("mi", PdeParams(alpha=-1.0, gamma=0.0, theta=0.0, lam=0.0, beta=2.0)),
    ("wang", PdeParams(alpha=-1.0, gamma=0.0, theta=0.0, lam=0.0, beta=0.0)),
], ids=["mi-beta0", "mi-beta2", "mi-beta2-ep-coefficients", "wang-beta0"])
def test_two_step_map_is_symplectic(scheme, params):
    assert scheme_defect(scheme, params, 0.05) <= 1e-11


def test_energy_preserving_map_is_not_symplectic_at_beta2():
    # Measured 2.41e-3 at tau = 0.1 and 3.06e-4 at tau = 0.05 on these
    # levels: an order of about 3 in tau, far above round-off.
    params = PdeParams(alpha=-1.0, gamma=0.0, theta=0.0, lam=0.0, beta=2.0)
    coarse, fine = (scheme_defect("wang", params, tau) for tau in (0.1, 0.05))
    assert 1.2e-3 <= coarse <= 4.8e-3
    assert 1.5e-4 <= fine <= 6e-4
    assert coarse / fine >= 2.0 ** 2.5
