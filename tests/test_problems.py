import dataclasses

import numpy as np
import pytest

from nlsw import (ConfigurationError, PdeParams, ProblemSpec, UsageError,
                  builtin_problem, build_grid, convergence_order, customized,
                  error_metrics)
from nlsw.problems import PROBLEM_NAMES


class TestBuiltins:
    def test_all_names_construct(self):
        for name in PROBLEM_NAMES:
            spec = builtin_problem(name)
            assert spec.name == name

    def test_unknown_name(self):
        with pytest.raises(UsageError):
            builtin_problem("standing_wave")

    def test_coefficient_tables(self):
        expected = {
            "linear_plane": (-1.0, 1.0, -1.0, 3.0, 0.0),
            "nonlinear_plane": (-1.0, 1.0, -1.0, 1.0, 2.0),
            "plane_beta2": (-1.0, 0.0, 0.0, 0.0, 2.0),
            "soliton": (-1.0, 0.0, 0.0, 0.0, 2.0),
            "gauss_split": (-1.0, 0.0, 0.0, 0.0, 1.0),
        }
        for name, coeffs in expected.items():
            p = builtin_problem(name).params
            assert (p.alpha, p.gamma, p.theta, p.lam, p.beta) == coeffs

    def test_domains_and_exactness(self):
        spec = builtin_problem("soliton")
        assert (spec.x_l, spec.x_r) == (-50.0, 50.0)
        assert spec.exactness == "claimed_inconsistent"
        spec = builtin_problem("gauss_split")
        assert (spec.x_l, spec.x_r) == (-40.0, 40.0)
        assert spec.exact is None

    def test_linear_plane_wave_speed(self):
        # rightward plane wave with velocity 3 and unit amplitude
        spec = builtin_problem("linear_plane")
        x = np.array([0.5])
        u0 = spec.exact(x, 0.0)
        u1 = spec.exact(x + 3.0 * 0.25, 0.25)
        assert np.allclose(u0, u1)
        assert np.allclose(np.abs(spec.exact(np.linspace(0, 6, 7), 2.0)), 1.0)

    def test_plane_beta2_dispersion(self):
        # f1 = -i*omega*f0 with omega = 7 solving omega^2 - omega - 42 = 0
        spec = builtin_problem("plane_beta2")
        x = np.linspace(0.0, 2.0 * np.pi, 5)
        assert np.allclose(spec.f1(x), -7j * spec.f0(x))
        assert 7.0 ** 2 - 7.0 - 42.0 == 0.0

    def test_soliton_initial_data(self):
        spec = builtin_problem("soliton")
        nu = -0.5 - np.sqrt(3.0) / 4.0
        x = np.array([0.0, 4.0])
        assert np.allclose(spec.f0(x), 0.25 / np.cosh(0.25 * x))
        assert np.allclose(spec.f1(x), 1j * nu * spec.f0(x))

    def test_wrong_exact_solution_rejected(self):
        params = PdeParams(alpha=-1.0, gamma=1.0, theta=-1.0, lam=3.0, beta=0.0)
        with pytest.raises(ConfigurationError):
            ProblemSpec(name="bad", params=params, x_l=0.0, x_r=2.0 * np.pi,
                        default_T=1.0,
                        f0=lambda x: np.exp(1j * x),
                        f1=lambda x: -2.9j * np.exp(1j * x),
                        exact=lambda x, t: np.exp(1j * (x - 2.9 * t)),
                        exactness="verified")

    def test_soliton_claim_fails_the_residual_gate(self):
        # The sech profile's claimed solution leaves an O(1) cubic defect, so
        # marking it verified must be refused at construction.
        spec = builtin_problem("soliton")
        with pytest.raises(ConfigurationError,
                           match="soliton: claimed exact solution fails the residual gate"):
            dataclasses.replace(spec, exactness="verified")

    @pytest.mark.parametrize("exact", [
        # Only scalar times: fails on a column, ...
        lambda x, t: np.exp(1j * (x - 3.0 * float(t))),
        # ... returns one level for it, ...
        lambda x, t: np.exp(1j * (x - 3.0 * np.ravel(t)[0])),
        # ... or one level per time, all at the last one.
        lambda x, t: np.exp(1j * (x - 3.0 * np.max(t))) + 0.0 * t,
    ])
    def test_exact_solution_without_time_columns_rejected(self, exact):
        params = PdeParams(alpha=-1.0, gamma=1.0, theta=-1.0, lam=3.0, beta=0.0)
        with pytest.raises(ConfigurationError,
                           match=r"scalar_times: exact\(x, t\[:, None\]\)"):
            ProblemSpec(name="scalar_times", params=params, x_l=0.0,
                        x_r=2.0 * np.pi, default_T=1.0,
                        f0=lambda x: np.exp(1j * x),
                        f1=lambda x: -3j * np.exp(1j * x),
                        exact=exact, exactness="verified")

    @pytest.mark.parametrize("exactness, message", [
        ("approximate", "unknown exactness level 'approximate'"),
        ("verified", "verified problems must carry an exact solution"),
    ])
    def test_exactness_level_checked(self, exactness, message):
        params = PdeParams(alpha=-1.0, gamma=0.0, theta=0.0, lam=0.0, beta=0.0)
        with pytest.raises(ConfigurationError, match=message):
            ProblemSpec(name="plain", params=params, x_l=0.0, x_r=2.0 * np.pi,
                        default_T=1.0,
                        f0=lambda x: np.exp(1j * x),
                        f1=lambda x: np.zeros_like(x, dtype=complex),
                        exactness=exactness)

    def test_periodic_compatibility_rejected(self):
        params = PdeParams(alpha=-1.0, gamma=0.0, theta=0.0, lam=0.0, beta=0.0)
        with pytest.raises(ConfigurationError):
            ProblemSpec(name="open", params=params, x_l=0.0, x_r=1.0,
                        default_T=1.0,
                        f0=lambda x: x.astype(complex),
                        f1=lambda x: np.zeros_like(x, dtype=complex),
                        exactness="none")

    def test_customized_drops_exactness(self):
        base = builtin_problem("plane_beta2")
        custom = customized(base, beta=1.0)
        assert custom.exactness == "none"
        assert custom.exact is None
        assert custom.params.beta == 1.0
        assert customized(base) is base
        assert customized(base, beta=base.params.beta) is base

    def test_customized_validates_params(self):
        base = builtin_problem("plane_beta2")
        with pytest.raises(ConfigurationError):
            customized(base, gamma=2.0)


class TestErrorMetrics:
    def grid(self, K=4):
        return build_grid(0.0, 1.0, K, 1.0, 10)

    def test_exact_match(self):
        g = self.grid()
        u = np.array([1.0, 1j, -1.0, -1j])
        m = error_metrics(u, u, g)
        assert m.err_max == 0.0 and m.e_infty_sq == 0.0 and m.mod_err == 0.0

    def test_pure_phase_error(self):
        g = self.grid()
        u = np.array([1.0, 1j, -1.0, -1j])
        m = error_metrics(u * np.exp(0.3j), u, g)
        # modulus-invariant metrics vanish up to round-off of |c*u|
        assert m.e_infty_sq <= 1e-15
        assert m.mod_err <= 1e-15
        assert m.err_max > 0.1

    def test_direct_arithmetic(self):
        g = self.grid()
        u = np.array([1.0 + 1e-3, 1.0, 1.0, 1.0])
        ref = np.ones(4)
        m = error_metrics(u, ref, g)
        assert m.err_max == pytest.approx(1e-3)
        assert m.e_infty_sq == pytest.approx(abs((1 + 1e-3) ** 2 - 1.0))

    def test_gauge_property(self, rng):
        g = self.grid(16)
        u = rng.normal(size=16) + 1j * rng.normal(size=16)
        ref = rng.normal(size=16) + 1j * rng.normal(size=16)
        c = np.exp(1j * 0.8)
        m0 = error_metrics(u, ref, g)
        m1 = error_metrics(c * u, c * ref, g)
        assert abs(m1.err_max - m0.err_max) <= 1e-14 * max(1.0, m0.err_max)

    def test_length_mismatch(self):
        g = self.grid()
        with pytest.raises(UsageError):
            error_metrics(np.zeros(4), np.zeros(5), g)


class TestConvergenceOrder:
    def test_exact_ratios(self):
        assert convergence_order([(0.1, 1.0), (0.05, 0.25)]) == pytest.approx(2.0)
        assert convergence_order([(0.1, 1.0), (0.05, 0.5)]) == pytest.approx(1.0)

    def test_requires_two_points(self):
        with pytest.raises(UsageError):
            convergence_order([(0.1, 1.0)])

    def test_requires_decreasing_sizes(self):
        with pytest.raises(UsageError):
            convergence_order([(0.05, 0.25), (0.1, 1.0)])

    def test_rejects_zero_errors(self):
        with pytest.raises(UsageError):
            convergence_order([(0.1, 1.0), (0.05, 0.0)])
