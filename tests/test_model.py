import numpy as np
import pytest
from hypothesis import given, settings

from nlsw import (ConfigurationError, PdeParams, UsageError, ZField, builtin_problem,
                  build_grid, continuous_residual, grad_S, hamiltonian_S,
                  local_densities, local_law_residual, reconstruct_z,
                  structure_matrices)
from nlsw.model import pde_utt

from strategies import coefficient, gamma_coefficient, seeds

EX1 = PdeParams(alpha=-1.0, gamma=1.0, theta=-1.0, lam=3.0, beta=0.0)
EX3 = PdeParams(alpha=-1.0, gamma=0.0, theta=0.0, lam=0.0, beta=2.0)


def random_params(rng):
    return PdeParams(alpha=rng.normal(), gamma=rng.uniform(-1.5, 1.5),
                     theta=rng.normal(), lam=rng.normal(), beta=rng.normal())


class TestParams:
    def test_gamma_two_rejected(self):
        for gamma in (2.0, -2.0):
            with pytest.raises(ConfigurationError):
                PdeParams(alpha=0.0, gamma=gamma, theta=0.0, lam=0.0, beta=0.0)

    def test_nonfinite_rejected(self):
        # A bool is never a number, as at the CLI; the error names the field.
        for alpha in (np.nan, True, None, 10 ** 400):
            with pytest.raises(ConfigurationError) as err:
                PdeParams(alpha=alpha, gamma=0.0, theta=0.0, lam=0.0, beta=0.0)
            assert "alpha" in str(err.value)


class TestHamiltonian:
    def test_zero(self):
        p = PdeParams(1.0, 0.5, 1.0, 1.0, 1.0)
        assert hamiltonian_S(np.zeros(6), p) == 0.0

    def test_phi_only(self):
        p = PdeParams(alpha=0.0, gamma=0.0, theta=0.0, lam=1.0, beta=2.0)
        assert hamiltonian_S((1.0, 0.0, 0.0, 0.0, 0.0, 0.0), p) == pytest.approx(-1.0)

    def test_vf_coupling(self):
        p = PdeParams(alpha=0.0, gamma=1.0, theta=0.0, lam=0.0, beta=0.0)
        z = (0.0, 0.0, 1.0, 0.0, 1.0, 0.0)
        assert hamiltonian_S(z, p) == pytest.approx(-0.5)


class TestGradS:
    def test_zero(self):
        p = PdeParams(1.0, 0.5, 1.0, 1.0, 1.0)
        assert np.all(grad_S(np.zeros(6), p) == 0.0)

    def test_cubic_component(self):
        p = PdeParams(alpha=0.0, gamma=0.0, theta=0.0, lam=1.0, beta=2.0)
        g = grad_S((1.0, 0.0, 0.0, 0.0, 0.0, 0.0), p)
        assert np.allclose(g, [-3.0, 0.0, 0.0, 0.0, 0.0, 0.0])

    def test_matches_finite_differences(self, rng):
        # 100 random points: componentwise central differences of S
        step = 1e-6
        for _ in range(100):
            p = random_params(rng)
            z = rng.normal(size=6)
            g = grad_S(z, p)
            for i in range(6):
                zp, zm = z.copy(), z.copy()
                zp[i] += step
                zm[i] -= step
                fd = (hamiltonian_S(zp, p) - hamiltonian_S(zm, p)) / (2 * step)
                assert abs(g[i] - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_linear_when_beta_zero(self, rng):
        p = PdeParams(alpha=0.3, gamma=0.7, theta=-1.1, lam=2.0, beta=0.0)
        z = rng.normal(size=6)
        # scaling by a power of two is exact in floating point
        assert np.array_equal(grad_S(2.0 * z, p), 2.0 * grad_S(z, p))


class TestStructureMatrices:
    def test_skew_symmetry_random(self, rng):
        for _ in range(20):
            M, K = structure_matrices(random_params(rng))
            assert np.array_equal(M, -M.T)
            assert np.array_equal(K, -K.T)

    def test_zero_coefficients(self):
        p = PdeParams(alpha=0.0, gamma=0.0, theta=1.0, lam=0.0, beta=0.0)
        M, _ = structure_matrices(p)
        expected = np.zeros((6, 6))
        expected[0, 2] = 1.0
        expected[1, 3] = 1.0
        expected[2, 0] = -1.0
        expected[3, 1] = -1.0
        assert np.array_equal(M, expected)

    def test_example1_entries(self):
        M, K = structure_matrices(EX1)
        assert M[0][1] == -1.0
        assert M[0][4] == 0.5
        assert K[0][1] == -1.0

    def test_matrices_reproduce_first_order_system(self, rng):
        # M z_t + K z_x with z_t, z_x free vectors must reproduce the
        # left-hand sides of the componentwise system.
        p = random_params(rng)
        M, K = structure_matrices(p)
        zt = rng.normal(size=6)
        zx = rng.normal(size=6)
        lhs = M @ zt + K @ zx
        hg = 0.5 * p.gamma
        expected = np.array([
            p.alpha * zt[1] + zt[2] + hg * zt[4]
            + p.theta * zx[1] + hg * zx[2] - zx[4],
            -p.alpha * zt[0] + zt[3] + hg * zt[5]
            - p.theta * zx[0] + hg * zx[3] - zx[5],
            -zt[0] - hg * zx[0],
            -zt[1] - hg * zx[1],
            -hg * zt[0] + zx[0],
            -hg * zt[1] + zx[1],
        ])
        assert np.allclose(lhs, expected, atol=1e-14)


class TestLocalDensities:
    def test_zero(self):
        d = local_densities(np.zeros(6), EX1)
        assert d.E == 0.0 and d.F == 0.0 and d.I == 0.0 and d.G == 0.0

    def test_phi_only(self):
        p = PdeParams(alpha=0.0, gamma=0.0, theta=0.0, lam=1.0, beta=2.0)
        d = local_densities((1.0, 0.0, 0.0, 0.0, 0.0, 0.0), p)
        assert d.E == pytest.approx(1.0)
        assert d.F == 0.0
        assert d.I == 0.0
        assert d.G == pytest.approx(-1.0)

    def test_v_only(self):
        p = PdeParams(alpha=0.0, gamma=1.0, theta=0.0, lam=0.0, beta=0.0)
        d = local_densities((0.0, 0.0, 1.0, 0.0, 0.0, 0.0), p)
        assert d.E == pytest.approx(0.5)
        assert d.F == pytest.approx(0.5)   # (gamma/2)(v^2 + w^2)
        assert d.I == 0.0
        assert d.G == pytest.approx(0.5)

    def test_gauge_invariance(self, rng):
        # simultaneous rotation of (phi,psi), (v,w), (f,g) leaves S and the
        # densities unchanged
        for _ in range(25):
            p = random_params(rng)
            z = rng.normal(size=6)
            rho = rng.uniform(0, 2 * np.pi)
            c, s = np.cos(rho), np.sin(rho)
            rot = lambda a, b: (c * a - s * b, s * a + c * b)
            zr = np.empty(6)
            zr[0], zr[1] = rot(z[0], z[1])
            zr[2], zr[3] = rot(z[2], z[3])
            zr[4], zr[5] = rot(z[4], z[5])
            assert abs(hamiltonian_S(zr, p) - hamiltonian_S(z, p)) <= 1e-12
            d0, d1 = local_densities(z, p), local_densities(zr, p)
            for name in ("E", "F", "I", "G"):
                assert abs(getattr(d1, name) - getattr(d0, name)) <= 1e-12


def _fourier_modes(seed):
    """z(x, t) of u = sum_m a_m exp(i(k_m x - omega_m t)): two to four modes
    with distinct wavenumbers, so the densities vary in x, and frequencies
    off the dispersion relation, so the PDE residual R is O(1)."""
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 5)
    amp = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    k = rng.choice(np.arange(-3.0, 4.0), n, replace=False)
    omega = rng.uniform(-3.0, 3.0, n)

    def z(x, t):
        e = amp * np.exp(1j * (k * x - omega * t))
        u, ut, ux = e.sum(), (-1j * omega * e).sum(), (1j * k * e).sum()
        return u, ut, ux, (u.real, u.imag, ut.real, ut.imag, ux.real, ux.imag)

    return z, (rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(alpha=coefficient, gamma=gamma_coefficient, theta=coefficient,
       lam=coefficient, beta=coefficient, seed=seeds)
def test_local_laws_balance_the_residual(alpha, gamma, theta, lam, beta, seed):
    # Multiplying the PDE by conj(u_t) or conj(u_x) and taking real parts:
    # dE/dt + dF/dx = Re(R conj u_t) and dI/dt + dG/dx = -Re(R conj u_x)
    # for any smooth u, not only for solutions; derivatives of the densities
    # by 4th-order central differences.
    p = PdeParams(alpha=alpha, gamma=gamma, theta=theta, lam=lam, beta=beta)
    z, (x, t) = _fourier_modes(seed)
    step = 1e-3

    def d1(fn):
        return (-fn(2 * step) + 8.0 * fn(step) - 8.0 * fn(-step)
                + fn(-2 * step)) / (12.0 * step)

    def dens(dx, dt):
        return local_densities(z(x + dx, t + dt)[3], p)

    _, ut, ux, _ = z(x, t)
    r = continuous_residual(lambda xx, tt: z(xx, tt)[0], p, (x, t))
    energy = d1(lambda e: dens(0.0, e).E) + d1(lambda e: dens(e, 0.0).F)
    momentum = d1(lambda e: dens(0.0, e).I) + d1(lambda e: dens(e, 0.0).G)
    # The differencing noise is measured below 3e-8 of this scale.
    tol = 1e-6 * (1.0 + abs(r) * max(abs(ut), abs(ux)))
    assert abs(energy - (r * np.conj(ut)).real) <= tol
    assert abs(momentum + (r * np.conj(ux)).real) <= tol


class TestContinuousResidual:
    def test_example1_plane_wave(self):
        u = lambda x, t: np.exp(1j * (x - 3.0 * t))
        for x, t in ((0.3, 0.7), (2.0, 5.0), (6.0, 0.0)):
            assert abs(continuous_residual(u, EX1, (x, t))) < 1e-7

    def test_example3_dispersion(self):
        u = lambda x, t: np.sqrt(3.0) * np.exp(1j * (6.0 * x - 7.0 * t))
        for x, t in ((0.1, 0.2), (1.0, 1.0)):
            assert abs(continuous_residual(u, EX3, (x, t))) < 1e-6

    def test_wrong_speed_detected(self):
        u = lambda x, t: np.exp(1j * (x - 2.9 * t))
        assert abs(continuous_residual(u, EX1, (0.5, 0.5))) > 1e-2

    def test_soliton_ansatz_defect(self):
        # The sech ansatz leaves 2*A*(kappa^2 + A^2)*sech^3 uncancelled:
        # 1/16 at the origin.
        amp = kappa = 0.25
        nu = -0.5 - np.sqrt(3.0) / 4.0
        u = lambda x, t: amp / np.cosh(kappa * x) * np.exp(1j * nu * t)
        r = continuous_residual(u, EX3, (0.0, 0.0))
        assert abs(r - 0.0625) < 1e-6

    def test_pde_utt_on_numbers_and_arrays(self, rng):
        # continuous_residual calls pde_utt on Python complex numbers, the
        # taylor2 bootstrap on mesh functions; both get the same values.
        params = random_params(rng)
        fields = [rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(5)]
        whole = pde_utt(*fields, params)
        for k in range(8):
            one = pde_utt(*(complex(field[k]) for field in fields), params)
            assert isinstance(one, complex)
            assert abs(one - whole[k]) <= 1e-14 * (1.0 + abs(whole[k]))

    def test_pde_utt_of_a_plane_wave(self):
        # u = e^{i(kx - wt)}: u_tt = -w^2 u, and pde_utt at the exact
        # derivatives is (-k^2 - gamma k w + alpha w - theta k - lam) u.
        k, w = 1.0, 3.0
        u0 = np.exp(1j * (k * 0.4 - w * 0.9))
        exact = pde_utt(u0, -1j * w * u0, 1j * k * u0, -k * k * u0, k * w * u0, EX1)
        assert abs(exact + w * w * u0) < 1e-12


class TestReconstructZ:
    def test_constant_in_time(self, small_grid):
        u = np.exp(1j * small_grid.nodes)
        z = reconstruct_z(u, u, u, small_grid)
        assert np.all(z.v == 0.0) and np.all(z.w == 0.0)
        assert np.allclose(z.phi + 1j * z.psi, u)

    def test_time_derivative_accuracy(self):
        g = build_grid(0.0, 2.0 * np.pi, 64, 1e-1, 100)   # tau = 1e-3
        exact = lambda x, t: np.exp(1j * (x - 3.0 * t))
        x = g.nodes
        z = reconstruct_z(exact(x, -g.tau), exact(x, 0.0), exact(x, g.tau), g)
        err = np.max(np.abs((z.v + 1j * z.w) - (-3j) * exact(x, 0.0)))
        # |u_ttt| = 27: centered quotient error <= 27 tau^2 / 6
        assert err <= 27.0 * g.tau ** 2 / 6.0 * 1.01

    def test_space_derivative_accuracy(self):
        g = build_grid(0.0, 2.0 * np.pi, 256, 1.0, 10)
        u = np.exp(1j * g.nodes)
        z = reconstruct_z(u, u, u, g)
        err = np.max(np.abs((z.f + 1j * z.g) - 1j * u))
        assert err <= g.h ** 2 / 6.0 * 1.01


def _inject_z_levels(exact, grid, t0):
    """z at (t0-tau, t0, t0+tau) from five exact levels."""
    x = grid.nodes
    levels = [exact(x, t0 + k * grid.tau) for k in (-2, -1, 0, 1, 2)]
    return [reconstruct_z(levels[i - 1], levels[i], levels[i + 1], grid)
            for i in (1, 2, 3)]


class TestLocalLawResidual:
    def test_constant_z_exact_zero(self, small_grid):
        K = small_grid.K
        z = ZField(*(np.full(K, c) for c in (0.3, -0.2, 0.1, 0.5, -0.4, 0.2)))
        p = PdeParams(alpha=0.5, gamma=0.3, theta=1.0, lam=2.0, beta=1.0)
        r = local_law_residual(z, z, z, p, small_grid)
        assert np.all(r.energy_res == 0.0)
        assert np.all(r.momentum_res == 0.0)

    def test_unequal_component_shapes_rejected(self):
        with pytest.raises(UsageError, match="equal shapes"):
            ZField(*(np.zeros(8) for _ in range(5)), np.zeros(9))

    def test_plane_wave_injection_within_truncation(self):
        # A single plane wave has spatially constant densities, so both
        # residuals sit far below the O(tau^2 + h^2) truncation bound.
        prob = builtin_problem("linear_plane")
        g = build_grid(prob.x_l, prob.x_r, 64, 1.0, 250)
        zs = _inject_z_levels(prob.exact, g, 0.4)
        r = local_law_residual(zs[0], zs[1], zs[2], prob.params, g)
        bound = g.tau ** 2 + g.h ** 2
        assert np.max(np.abs(r.energy_res)) <= bound
        assert np.max(np.abs(r.momentum_res)) <= bound

    def test_momentum_law_two_mode_slope_two(self):
        # Superposing two on-dispersion modes of the linear problem gives a
        # non-degenerate exact solution; the energy and momentum law
        # residuals then show genuine second-order decay.
        p = PdeParams(alpha=-1.0, gamma=1.0, theta=-1.0, lam=3.0, beta=0.0)
        omega2 = (3.0 + np.sqrt(29.0)) / 2.0   # mode-2 root of the dispersion
        exact = lambda x, t: (np.exp(1j * (x - 3.0 * t))
                              + 0.5 * np.exp(1j * (2.0 * x - omega2 * t)))
        assert abs(continuous_residual(
            lambda x, t: complex(exact(x, t)), p, (0.3, 0.7))) < 1e-6
        sizes, energy, momentum = [], [], []
        for K, J in ((32, 125), (64, 250), (128, 500), (256, 1000)):
            g = build_grid(0.0, 2.0 * np.pi, K, 1.0, J)
            zs = _inject_z_levels(exact, g, 0.4)
            r = local_law_residual(zs[0], zs[1], zs[2], p, g)
            sizes.append(g.h)
            energy.append(np.max(np.abs(r.energy_res)))
            momentum.append(np.max(np.abs(r.momentum_res)))
        for errs in (energy, momentum):
            slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
            assert 1.7 <= slope <= 2.3

    def test_numerical_trajectory_residual_decays(self):
        # z reconstructed from a converged numerical run: halving h and tau
        # must shrink both law residuals by at least the second-order factor
        # (measured decay is in fact faster, ~14x, because the dominant
        # numerical error is a phase drift the gauge-invariant densities do
        # not see).
        from nlsw import SolverConfig, run_mi
        prob = builtin_problem("nonlinear_plane")
        cfg = SolverConfig()
        maxima = []
        for K, J in ((64, 125), (128, 250)):
            g = build_grid(prob.x_l, prob.x_r, K, 0.5, J)
            traj = run_mi(prob, g, cfg, snapshot_stride=1)
            levels = [u for _, u in traj.snapshots]
            zs = [reconstruct_z(levels[i - 1], levels[i], levels[i + 1], g)
                  for i in (J - 3, J - 2, J - 1)]
            r = local_law_residual(zs[0], zs[1], zs[2], prob.params, g)
            maxima.append(max(np.max(np.abs(r.energy_res)),
                              np.max(np.abs(r.momentum_res))))
        assert maxima[1] <= maxima[0] / 4.0
