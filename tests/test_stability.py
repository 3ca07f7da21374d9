"""Linear stability of the midpoint scheme, mode by mode.

At beta = 0 both schemes have constant circulant stencils, so the Fourier
mode e^{i k theta} of a run's levels obeys lam_A z^2 + lam_B z + lam_C = 0,
with lam_X(theta) = lower e^{-i theta} + diag + upper e^{i theta} the symbol
of stencil X of the scheme's table.  C = A^H makes lam_C = conj(lam_A), and
lam_B is real, so both roots lie on the unit circle exactly when
lam_B^2 <= 4 |lam_A|^2."""

import mpmath
import numpy as np
from hypothesis import example, given, settings, strategies as st

from nlsw import (PdeParams, SolverConfig, build_grid, builtin_problem, mi, run_mi,
                  run_wang, wang)
from nlsw.problems import ProblemSpec

from strategies import coefficient, gamma_coefficient


def symbols(params, grid, theta):
    """(lam_A, lam_B, lam_C) of mi's stencils at the mode angle theta."""
    return [lower * np.exp(-1j * theta) + diag + upper * np.exp(1j * theta)
            for lower, diag, upper in mi._stencils(params, grid)]


def margin(params, grid, theta):
    """(4 |lam_A|^2 - lam_B^2) / (4 |lam_A|^2): >= 0 for both roots on the
    unit circle, 0 for a double root."""
    lam_A, lam_B, _ = symbols(params, grid, theta)
    return (4.0 * abs(lam_A) ** 2 - lam_B.real ** 2) / (4.0 * abs(lam_A) ** 2)


def exact_modes(params, grid):
    """(margin, |lam_A|) of mi's stencils on each grid mode
    theta = 2 pi m / K, evaluated at 50 digits on the float64 entries."""
    def symbol(stencil, turn):
        lower, diag, upper = (mpmath.mpc(complex(entry)) for entry in stencil)
        return lower * mpmath.conj(turn) + diag + upper * turn

    modes = []
    with mpmath.workdps(50):
        A, B, _ = mi._stencils(params, grid)
        for m in range(grid.K):
            turn = mpmath.expjpi(mpmath.mpf(2 * m) / grid.K)
            lam_A, lam_B = abs(symbol(A, turn)), symbol(B, turn).real
            modes.append((1 - lam_B ** 2 / (4 * lam_A ** 2), lam_A))
    return modes


def problem(params, f0, T):
    return ProblemSpec(name="mode", params=params, x_l=0.0, x_r=2.0 * np.pi,
                       default_T=T, f0=f0, f1=lambda x: 0.0 * x)


class TestCheckerboardMode:
    """For even K the mode theta = pi, u_k = (-1)^k, is on the grid, and
    there the temporal and lambda parts of the stencils cancel:
    lam_A h^2 = lam_C h^2 = 1 and lam_B h^2 = 2, whatever the coefficients
    and tau.  So z = -1 is a double root, and the mode (-1)^{j+k} (a + b j)
    grows linearly in j.  Its half-node means vanish, so the cubic term,
    the mass and the residual do not see it; the energy does only where it
    grows, b != 0 (test_diagnostics.TestCheckerboardNull)."""

    @settings(max_examples=60, deadline=None)
    @given(alpha=coefficient, gamma=gamma_coefficient, theta=coefficient,
           lam=coefficient, beta=coefficient, half_K=st.integers(2, 64),
           tau=st.floats(1e-3, 10.0))
    def test_symbols_at_pi_give_a_double_root(self, alpha, gamma, theta, lam,
                                              beta, half_K, tau):
        params = PdeParams(alpha=alpha, gamma=gamma, theta=theta, lam=lam, beta=beta)
        grid = build_grid(0.0, 2.0 * np.pi, 2 * half_K, 10 * tau, 10)
        h2 = grid.h ** 2
        for (lower, diag, upper), value, lam_X in zip(
                mi._stencils(params, grid), (1.0, 2.0, 1.0),
                symbols(params, grid, np.pi)):
            scale = (abs(lower) + abs(diag) + abs(upper)) * h2
            assert abs(lam_X * h2 - value) <= 1e-14 * scale

    def test_run_grows_linearly_unseen_by_the_energy(self):
        # K = 16 on [0, 2 pi): e^{8ix} samples (-1)^k.  The taylor2 bootstrap
        # gives u^1 = (1 - 2 tau^2/h^2 - beta tau^2/2) u^0, so a = 1,
        # b = 2 tau^2/h^2 + beta tau^2/2 - 2 and max|u^j| = |1 + b j|.
        grid = build_grid(0.0, 2.0 * np.pi, 16, 1.0, 100)
        for beta in (0.0, 1.0):
            b = 2.0 * grid.tau ** 2 / grid.h ** 2 + 0.5 * beta * grid.tau ** 2 - 2.0
            params = PdeParams(alpha=-1.0, gamma=0.0, theta=0.0, lam=0.0, beta=beta)
            prob = problem(params, lambda x: np.exp(8j * x), 1.0)
            traj = run_mi(prob, grid, SolverConfig(), snapshot_stride=1)
            peaks = np.array([np.abs(u).max() for _, u in traj.snapshots])
            assert np.allclose(peaks, np.abs(1.0 + b * np.arange(grid.J + 1)),
                               rtol=1e-9, atol=0.0)
            assert peaks[-1] > 198.0
            drift = np.abs(traj.series["energy_mi"] - traj.meta["energy_ref"]).max()
            assert drift <= 1e-9 * abs(traj.meta["energy_ref"])
            comparison = run_wang(prob, grid, SolverConfig(), snapshot_stride=1)
            assert max(np.abs(u).max() for _, u in comparison.snapshots) <= 1.0 + 1e-12


def test_continuously_stable_case_with_an_unstable_mode():
    # Every grid wavenumber k has real roots omega of
    # omega^2 - (gamma k - alpha) omega - (k^2 + theta k + lam) = 0, with a
    # discriminant of at least 0.0064 (at k = 1); yet mode 1 of this coarse
    # mesh has a root of modulus 1.0368, so the criterion depends on the mesh.
    params = PdeParams(alpha=3.67, gamma=1.75, theta=-1.4, lam=-0.52, beta=0.0)
    grid = build_grid(0.0, 2.0 * np.pi, 4, 90.0, 1000)
    assert grid.tau == 0.09
    k = np.arange(-2, 3)
    discriminant = ((params.gamma * k - params.alpha) ** 2
                    + 4.0 * (k * k + params.theta * k + params.lam))
    assert discriminant.min() >= 0.0064 - 1e-12
    assert abs(margin(params, grid, grid.h) - (-1.31e-3)) < 1e-5
    assert abs(np.abs(np.roots(symbols(params, grid, grid.h))).max() - 1.0368) < 1e-4
    traj = run_mi(problem(params, lambda x: np.exp(1j * x), 90.0), grid,
                  SolverConfig(), snapshot_stride=1)
    peaks = [np.abs(u).max() for _, u in traj.snapshots]
    assert 7e7 < peaks[500] < 8e7 and 5e15 < peaks[1000] < 6e15


def workload_grid(name, K, tau):
    """The problem's mesh of K nodes at time step tau."""
    prob = builtin_problem(name)
    return prob.params, build_grid(prob.x_l, prob.x_r, K, 10 * tau, 10)


class TestLinearStabilityMargin:
    """mi.linear_modes' linear_stability_margin is the smallest margin over
    the K grid modes, and every run records it in its meta."""

    @settings(max_examples=40, deadline=None)
    @given(alpha=coefficient, gamma=gamma_coefficient, theta=coefficient,
           lam=coefficient, K=st.integers(4, 64), tau=st.floats(1e-3, 10.0))
    @example(alpha=0.0, gamma=0.0, theta=0.3046875, lam=-1.4375, K=36, tau=6.0)
    def test_minimum_over_the_grid_modes(self, alpha, gamma, theta, lam, K, tau):
        """Against the minimum of the mode-wise margins at 50 digits, within
        the round-off of float64.  Let S_X = |lower| + |diag| + |upper| of
        stencil X.  A computed symbol lam_X is off by at most 13 eps S_X:
        the angle 2 pi m / K < 2 pi is rounded three times, so it is off by
        at most 3 pi eps, times |d lam_X / d theta| <= S_X; e^{i theta}, the
        two products and the two sums add about eps S_X each.  With
        r = lam_B / (2 |lam_A|) the margin is m = 1 - r^2, and it moves by
        at most 2 r^2 (|d lam_A| / |lam_A| + 2 eps) + |r| |d lam_B| / |lam_A|
        + eps (1 + |m|), to first order in eps.  As r^2 = 1 - m <= 1 + |m|
        and |lam_A| <= S_A, that is at most
        31 eps (1 + |m|) (S_A + S_B) / |lam_A| for the mode, and the
        minimum moves by at most the largest of these.  So the
        bound scales with the entries over min |lam_A|: where some |lam_A|
        is small, the symbol cancels that many digits.  The example has
        S_A = 32.8 against min |lam_A| = 3.9e-3 and m = -225.2, and
        differs from the reference by 2.3e-10."""
        params = PdeParams(alpha=alpha, gamma=gamma, theta=theta, lam=lam, beta=0.0)
        grid = build_grid(0.0, 2.0 * np.pi, K, 10 * tau, 10)
        modes = exact_modes(params, grid)
        entries = sum(abs(entry) for stencil in mi._stencils(params, grid)[:2]
                      for entry in stencil)
        bound = 31 * np.finfo(float).eps * entries * max(
            float((1 + abs(m)) / lam_A) for m, lam_A in modes)
        found = mi.linear_modes(mi._stencils, params, grid)["linear_stability_margin"]
        assert abs(found - min(m for m, _ in modes)) <= bound

    def test_unstable_mode_of_the_coarse_mesh(self):
        params = PdeParams(alpha=3.67, gamma=1.75, theta=-1.4, lam=-0.52, beta=0.0)
        grid = build_grid(0.0, 2.0 * np.pi, 4, 90.0, 1000)
        found = mi.linear_modes(mi._stencils, params, grid)["linear_stability_margin"]
        assert abs(found - (-1.3077e-3)) < 1e-7
        assert abs(found - margin(params, grid, grid.h)) <= 1e-15

    def test_checkerboard_double_root_on_even_K(self):
        for name, K, tau in (("gauss_split", 4096, 0.01), ("plane_beta2", 200, 0.05)):
            params, grid = workload_grid(name, K, tau)
            modes = mi.linear_modes(mi._stencils, params, grid)
            assert abs(modes["linear_stability_margin"]) <= 1e-15
            assert abs(margin(params, grid, np.pi)) <= 1e-15

    def test_stable_meshes(self):
        for table, name, K, tau, value in (
                (mi._stencils, "plane_beta2", 201, 0.05, 9.548e-5),
                (wang._stencils, "plane_beta2", 200, 0.05, 6.246e-4),
                (wang._stencils, "gauss_split", 4096, 0.01, 2.49994e-5)):
            modes = mi.linear_modes(table, *workload_grid(name, K, tau))
            found = modes["linear_stability_margin"]
            assert abs(found - value) <= 1e-4 * value

    def test_runs_record_it(self):
        params, grid = workload_grid("plane_beta2", 16, 0.05)
        prob = builtin_problem("plane_beta2")
        for runner, table in ((run_mi, mi._stencils), (run_wang, wang._stencils)):
            meta = runner(prob, grid, SolverConfig()).meta
            assert meta["linear_stability_margin"] == \
                mi.linear_modes(table, params, grid)["linear_stability_margin"]


class TestOperatorConditioning:
    """Both operators A are circulant, hence normal, so the moduli of their
    symbols on the grid modes are A's singular values: a run records the
    smallest and its ratio to the largest.  On plane_beta2 (alpha = -1,
    gamma = theta = lam = 0) at K = 200, tau = 0.05 the symbols are
    (1 + cos t)/(2 tau^2) + (1 - cos t)/(2 h^2) - i alpha (1 + cos t)/(4 tau)
    for the midpoint scheme and 1/tau^2 + (1 - cos t)/h^2 - i alpha/(2 tau)
    for the energy-preserving one: both smallest at t = 0, largest at t = pi."""

    def test_plane_beta2_at_K_200(self):
        params, grid = workload_grid("plane_beta2", 200, 0.05)
        a, h, tau = params.alpha, grid.h, grid.tau
        smallest = abs(1.0 / tau ** 2 - 0.5j * a / tau)
        for table, largest, pinned in (
                (mi._stencils, 1.0 / h ** 2, 0.394908),
                (wang._stencils, abs(1.0 / tau ** 2 + 2.0 / h ** 2 - 0.5j * a / tau),
                 0.164902)):
            modes = mi.linear_modes(table, params, grid)
            assert abs(modes["operator_min_abs_eigenvalue"] - smallest) <= 1e-12 * smallest
            assert abs(modes["operator_min_abs_eigenvalue"] - 400.12498) < 1e-5
            ratio = modes["operator_inverse_condition"]
            assert abs(ratio - smallest / largest) <= 1e-12
            assert abs(ratio - pinned) < 1e-6

    def test_runs_record_it(self):
        params, grid = workload_grid("plane_beta2", 16, 0.05)
        prob = builtin_problem("plane_beta2")
        for runner, table in ((run_mi, mi._stencils), (run_wang, wang._stencils)):
            meta = runner(prob, grid, SolverConfig()).meta
            modes = mi.linear_modes(table, params, grid)
            assert {name: meta[name] for name in modes} == modes
