import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nlsw import (ConfigurationError, PdeParams, ProblemSpec, SolverConfig,
                  StateWindow, StepFailureError, assemble_linear, assemble_wang,
                  builtin_problem, build_grid, energy_wang, energy_wang_printed,
                  run_wang, step_wang)

from oracles import wang_residual_direct
from strategies import coefficient, levels, periodic_grid, seeds, sizes, time_steps

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0   # omega^2 - omega - 1 = 0


def golden_plane_problem():
    """Linear (beta=0) plane wave in the gamma=theta=lam=0 subfamily."""
    return ProblemSpec(
        name="golden_plane",
        params=PdeParams(alpha=-1.0, gamma=0.0, theta=0.0, lam=0.0, beta=0.0),
        x_l=0.0, x_r=2.0 * np.pi, default_T=10.0,
        f0=lambda x: np.exp(1j * x),
        f1=lambda x: -1j * GOLDEN * np.exp(1j * x),
        exact=lambda x, t: np.exp(1j * (x - GOLDEN * t)),
        exactness="verified")


def exact_case():
    """(params, grid, levels j-1, j) of plane_beta2 at K=100, tau=0.01."""
    prob = builtin_problem("plane_beta2")
    g = build_grid(prob.x_l, prob.x_r, 100, 1.0, 100)
    return prob.params, g, (prob.exact(g.nodes, 4 * g.tau),
                            prob.exact(g.nodes, 5 * g.tau))


@st.composite
def drawn_case(draw):
    """(params, grid, random levels j-1, j) with drawn alpha and beta."""
    params = PdeParams(alpha=draw(coefficient), gamma=0.0, theta=0.0, lam=0.0,
                       beta=draw(coefficient))
    K = draw(sizes)
    return params, periodic_grid(K, draw(time_steps)), levels(draw(seeds), K)


class TestStepWang:
    def test_zero_data(self):
        p = PdeParams(alpha=-1.0, gamma=0.0, theta=0.0, lam=0.0, beta=2.0)
        g = build_grid(0.0, 2.0 * np.pi, 32, 1.0, 100)
        zero = np.zeros(32, dtype=complex)
        u_next, _ = step_wang(StateWindow(zero, zero, 0.0), assemble_wang(p, g), p, g,
                              SolverConfig())
        assert np.all(u_next == 0.0)

    def test_rejects_incompatible_coefficients(self):
        prob = builtin_problem("linear_plane")   # gamma=1, theta=-1, lam=3
        g = build_grid(prob.x_l, prob.x_r, 32, 1.0, 100)
        with pytest.raises(ConfigurationError):
            assemble_wang(prob.params, g)
        with pytest.raises(ConfigurationError):
            run_wang(prob, g, SolverConfig())
        zero = np.zeros(32, dtype=complex)
        with pytest.raises(ConfigurationError):
            step_wang(StateWindow(zero, zero, 0.0), assemble_linear(prob.params, g),
                      prob.params, g, SolverConfig())

    @settings(max_examples=40, deadline=None)
    @given(case=drawn_case())
    @example(case=exact_case())
    def test_step_satisfies_scheme_oracle(self, case):
        # On exact plane_beta2 levels and on random levels with drawn
        # coefficients, the step satisfies the directly evaluated scheme.
        params, g, (up, uc) = case
        u_next, _ = step_wang(StateWindow(up, uc, 0.0), assemble_wang(params, g),
                              params, g, SolverConfig())
        resid = np.max(np.abs(wang_residual_direct(up, uc, u_next, params, g)))
        assert resid <= 1e-10

    def test_second_order_convergence_linear(self):
        # beta = 0 plane-wave problem in the scheme's coefficient subfamily
        prob = golden_plane_problem()
        cfg = SolverConfig()
        errs_t = []
        for J in (50, 100, 200):
            g = build_grid(prob.x_l, prob.x_r, 512, 1.0, J)
            traj = run_wang(prob, g, cfg, snapshot_stride=g.J)
            errs_t.append(traj.series["err_max"].max())
        slope = np.polyfit(np.log([1.0 / J for J in (50, 100, 200)]),
                           np.log(errs_t), 1)[0]
        assert 1.7 <= slope <= 2.3
        errs_h = []
        for K in (16, 32, 64):
            g = build_grid(prob.x_l, prob.x_r, K, 1.0, 2000)
            traj = run_wang(prob, g, cfg, snapshot_stride=g.J)
            errs_h.append(traj.series["err_max"].max())
        slope = np.polyfit(np.log([2.0 * np.pi / K for K in (16, 32, 64)]),
                           np.log(errs_h), 1)[0]
        assert 1.7 <= slope <= 2.3


class TestWangEnergy:
    def test_zero(self):
        p = PdeParams(alpha=-1.0, gamma=0.0, theta=0.0, lam=0.0, beta=2.0)
        g = build_grid(0.0, 2.0 * np.pi, 32, 1.0, 100)
        zero = np.zeros(32, dtype=complex)
        assert energy_wang(zero, zero, p, g) == 0.0

    def test_beta_zero_variants_agree(self, rng):
        p = PdeParams(alpha=-1.0, gamma=0.0, theta=0.0, lam=0.0, beta=0.0)
        g = build_grid(0.0, 2.0 * np.pi, 32, 1.0, 100)
        u = np.exp(1j * g.nodes)
        v = np.exp(1.3j * g.nodes + 0.2j)
        assert energy_wang(u, v, p, g) == energy_wang_printed(u, v, p, g)

    def test_two_level_energy_exactly_conserved(self):
        prob = builtin_problem("plane_beta2")
        g = build_grid(prob.x_l, prob.x_r, 200, 2.0, 200)
        traj = run_wang(prob, g, SolverConfig())
        ref = traj.meta["energy_wang_ref"]
        drift = np.abs(traj.series["energy_wang"] - ref).max() / abs(ref)
        assert drift <= 1e-11

    def test_printed_variant_drift_recorded(self):
        prob = builtin_problem("plane_beta2")
        g = build_grid(prob.x_l, prob.x_r, 100, 1.0, 100)
        traj = run_wang(prob, g, SolverConfig())
        assert "energy_wang_printed_max_rel_drift" in traj.meta
        assert traj.meta["energy_wang_printed_max_rel_drift"] >= 0.0

    def test_mi_invariants_recorded_for_comparison(self):
        prob = builtin_problem("plane_beta2")
        g = build_grid(prob.x_l, prob.x_r, 100, 0.5, 50)
        traj = run_wang(prob, g, SolverConfig())
        assert "energy_mi" in traj.series
        assert "mass_mi" in traj.series
        assert "energy_gap" not in traj.series


class TestRunWang:
    def test_step_failure_carries_step_index(self):
        # a Picard budget of one sweep cannot converge a beta != 0 step
        prob = builtin_problem("plane_beta2")
        g = build_grid(prob.x_l, prob.x_r, 64, 1.0, 100)
        with pytest.raises(StepFailureError) as err:
            run_wang(prob, g, SolverConfig(fp_max_iter=1))
        assert err.value.step == 2
        assert "not converged after 1 sweeps" in str(err.value)
