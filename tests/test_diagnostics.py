import math
import random
from dataclasses import astuple
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlsw import diagnostics, mi, wang
from nlsw import (PdeParams, SolverConfig, builtin_problem, build_grid,
                  continuous_invariants, energy_rhs, energy_wang,
                  energy_wang_printed, error_metrics, mass_rhs,
                  mass_rhs_printed, mi_energy, mi_mass, run_identity_oracle,
                  run_mi, run_wang, theorem_identity_gaps)
from nlsw.diagnostics import (PRINTED_MASS_FACTOR, VALIDATED_MASS_FACTOR,
                              half_nodes)
from nlsw.mi import BLOCK_VALUES, StepPlan
from nlsw.wang import kinetic_gradient

import oracles
from conftest import random_field
from strategies import (coefficient, gamma_coefficient, levels, periodic_grid,
                        seeds, sizes, time_steps)

EX1 = builtin_problem("linear_plane")


class TestDiscreteInvariants:
    def test_zero_fields(self, small_grid):
        p = PdeParams(alpha=-1.0, gamma=1.0, theta=-1.0, lam=3.0, beta=2.0)
        zero = np.zeros(small_grid.K, dtype=complex)
        assert mi_energy(zero, zero, p, small_grid) == 0.0
        assert mi_mass(zero, zero, p, small_grid) == 0.0

    def test_constant_field_lambda_term_only(self):
        g = build_grid(0.0, 2.0, 8, 1.0, 10)
        p = PdeParams(alpha=0.0, gamma=0.0, theta=0.0, lam=1.0, beta=0.0)
        ones = np.ones(8, dtype=complex)
        assert mi_energy(ones, ones, p, g) == pytest.approx(p.lam * g.h * g.K)

    def test_constant_real_field_mass_alpha_term(self):
        g = build_grid(0.0, 2.0, 8, 1.0, 10)
        p = PdeParams(alpha=-1.0, gamma=0.0, theta=0.0, lam=0.0, beta=0.0)
        ones = np.ones(8, dtype=complex)
        # equal real levels: only -i*alpha*||u||_{1/2}^2 survives
        assert mi_mass(ones, ones, p, g) == pytest.approx(g.h * g.K)

    def test_realness_assertions_hold_on_random_fields(self, rng, small_grid):
        # theta and gamma terms are structurally real/imaginary; the guards
        # must never fire on generic data
        p = PdeParams(alpha=0.7, gamma=1.3, theta=-2.0, lam=0.5, beta=1.5)
        for _ in range(100):
            u = random_field(rng, small_grid.K)
            v = random_field(rng, small_grid.K)
            mi_energy(u, v, p, small_grid)
            mi_mass(u, v, p, small_grid)

    def test_beta_zero_rhs_vanishes(self, rng, small_grid):
        p = PdeParams(alpha=-1.0, gamma=1.0, theta=-1.0, lam=3.0, beta=0.0)
        up = random_field(rng, small_grid.K)
        uc = random_field(rng, small_grid.K)
        un = random_field(rng, small_grid.K)
        assert energy_rhs(up, uc, un, p, small_grid) == 0.0
        assert mass_rhs(up, uc, un, p, small_grid) == 0.0
        gaps = theorem_identity_gaps(up, uc, un, p, small_grid)
        raw_e = (mi_energy(uc, un, p, small_grid)
                 - mi_energy(up, uc, p, small_grid))
        assert gaps.energy_gap == pytest.approx(raw_e)


class TestIdentityGapsOnTrajectories:
    def test_gaps_at_roundoff_nonlinear(self):
        prob = builtin_problem("plane_beta2")
        g = build_grid(prob.x_l, prob.x_r, 200, 2.0, 200)
        traj = run_mi(prob, g, SolverConfig())
        e_scale = abs(traj.meta["energy_ref"])
        q_scale = abs(traj.meta["mass_ref"])
        assert np.abs(traj.series["energy_gap"]).max() <= 1e-11 * e_scale
        assert np.abs(traj.series["mass_gap"]).max() <= 1e-9 * q_scale
        # while the raw invariants visibly drift
        e0 = traj.meta["energy_ref"]
        assert np.abs(traj.series["energy_mi"] - e0).max() / e_scale > 1e-9

    def test_carried_forward_rows_equal_fresh_evaluation(self):
        # run_mi evaluates each invariant once per step and carries it to
        # the next step's identity; every recorded value must be exactly
        # what the stand-alone functions give on the snapshot levels.
        prob = builtin_problem("plane_beta2")
        g = build_grid(prob.x_l, prob.x_r, 32, 1.0, 20)
        traj = run_mi(prob, g, SolverConfig(), snapshot_stride=1)
        levels = [u for _, u in traj.snapshots]
        p = prob.params
        series = traj.series
        assert len(levels) == len(series["step"]) + 2
        for i in range(1, len(levels) - 1):
            up, uc, un = levels[i - 1], levels[i], levels[i + 1]
            gaps = theorem_identity_gaps(up, uc, un, p, g)
            assert series["energy_mi"][i - 1] == mi_energy(uc, un, p, g)
            assert series["mass_mi"][i - 1] == mi_mass(uc, un, p, g)
            assert series["energy_gap"][i - 1] == gaps.energy_gap
            assert series["mass_gap"][i - 1] == gaps.mass_gap
        assert traj.meta["energy_ref"] == mi_energy(levels[0], levels[1], p, g)
        assert traj.meta["mass_ref"] == mi_mass(levels[0], levels[1], p, g)

    def test_carried_forward_rows_equal_fresh_evaluation_wang(self):
        # the comparison scheme runs through the same driver: its rows carry
        # the midpoint invariants forward and add its own energies
        self.check_wang_rows(32)

    def test_wang_level_terms_carried_across_blocks(self):
        # K = 1024 runs blocks of four pairs, each taking its first level's
        # terms from the block before
        self.check_wang_rows(1024)

    def check_wang_rows(self, K):
        prob = builtin_problem("plane_beta2")
        g = build_grid(prob.x_l, prob.x_r, K, 1.0, 20)
        traj = run_wang(prob, g, SolverConfig(), snapshot_stride=1)
        levels = [u for _, u in traj.snapshots]
        p = prob.params
        series = traj.series
        assert len(levels) == len(series["step"]) + 2
        printed_ref = energy_wang_printed(levels[0], levels[1], p, g)
        drift = 0.0
        assert "energy_gap" not in series and "mass_gap" not in series
        for i in range(1, len(levels) - 1):
            uc, un = levels[i], levels[i + 1]
            assert series["energy_mi"][i - 1] == mi_energy(uc, un, p, g)
            assert series["mass_mi"][i - 1] == mi_mass(uc, un, p, g)
            assert series["energy_wang"][i - 1] == energy_wang(uc, un, p, g)
            printed = energy_wang_printed(uc, un, p, g)
            drift = max(drift,
                        abs(printed - printed_ref) / max(abs(printed_ref), 1e-30))
        assert traj.meta["energy_ref"] == mi_energy(levels[0], levels[1], p, g)
        assert traj.meta["mass_ref"] == mi_mass(levels[0], levels[1], p, g)
        assert traj.meta["energy_wang_ref"] == energy_wang(levels[0], levels[1], p, g)
        assert traj.meta["energy_wang_printed_ref"] == printed_ref
        assert traj.meta["energy_wang_printed_max_rel_drift"] == drift

    def test_printed_mass_constant_rejected_on_trajectory(self):
        # with the printed beta/2 constant the identity residual is the
        # size of the RHS itself, orders above round-off
        prob = builtin_problem("plane_beta2")
        g = build_grid(prob.x_l, prob.x_r, 64, 0.5, 50)
        traj = run_mi(prob, g, SolverConfig(), snapshot_stride=1)
        levels = [u for _, u in traj.snapshots]
        p = prob.params
        for i in (5, 20, 40):
            up, uc, un = levels[i - 1], levels[i], levels[i + 1]
            dq = (mi_mass(uc, un, p, g) - mi_mass(up, uc, p, g)) / g.tau
            good = abs(dq - mass_rhs(up, uc, un, p, g))
            bad = abs(dq - mass_rhs_printed(up, uc, un, p, g))
            assert good < 1e-9 * max(1.0, abs(dq))
            assert bad > 100.0 * good


class TestIdentityOracle:
    def test_oracle_validates_corrected_constant(self):
        result = run_identity_oracle()
        assert result.ok
        assert result.mass_matches_validated
        assert not result.mass_matches_printed
        assert result.measured_mass_factor == pytest.approx(VALIDATED_MASS_FACTOR,
                                                            abs=1e-7)
        assert result.energy_max_rel_gap < 1e-10
        assert PRINTED_MASS_FACTOR == 0.5 and VALIDATED_MASS_FACTOR == 0.25

    def test_oracle_refuses_a_factor_that_matches_only_the_printed_constant(
            self, monkeypatch):
        # Runs still write beta/4; with the printed constant relabelled to
        # 0.25 and the validated one moved, the measured factor matches only
        # the printed candidate, which the oracle records but does not accept.
        monkeypatch.setattr(diagnostics, "PRINTED_MASS_FACTOR", 0.25)
        monkeypatch.setattr(diagnostics, "VALIDATED_MASS_FACTOR", 0.5)
        result = run_identity_oracle()
        assert result.mass_matches_printed
        assert not result.mass_matches_validated
        assert result.energy_max_rel_gap < 1e-10
        assert not result.ok


class TestContinuousInvariants:
    def test_zero_field(self, small_grid):
        p = PdeParams(alpha=-1.0, gamma=1.0, theta=-1.0, lam=3.0, beta=0.0)
        zero = np.zeros(small_grid.K, dtype=complex)
        inv = continuous_invariants(zero, zero, zero, p, small_grid)
        assert inv.energy_cont == 0.0 and inv.mass_cont == 0.0

    def test_plane_wave_values(self):
        # For u = exp(i(x-3t)) with Example-1 coefficients the energy
        # integrand is 9 + 1 - 1 + 3 = 12 and the mass integrand is -4i,
        # hence E = 24*pi and Q = -8*pi.  Cross-checked against a separate
        # quadrature of the analytic integrand below.
        g = build_grid(EX1.x_l, EX1.x_r, 512, 1.0, 2000)
        x, tau = g.nodes, g.tau
        t0 = 0.3
        inv = continuous_invariants(EX1.exact(x, t0 - tau), EX1.exact(x, t0),
                                    EX1.exact(x, t0 + tau), EX1.params, g)
        # independent quadrature with analytic derivatives
        u = EX1.exact(x, t0)
        ut = -3j * u
        ux = 1j * u
        p = EX1.params
        e_ref = float(np.real(g.h * np.sum(
            np.abs(ut) ** 2 + np.abs(ux) ** 2 + 1j * p.theta * u * np.conj(ux)
            + p.lam * np.abs(u) ** 2)))
        q_ref = float(np.imag(g.h * np.sum(
            ut * np.conj(u) - np.conj(ut) * u - p.gamma * u * np.conj(ux)
            - 1j * p.alpha * np.abs(u) ** 2)))
        assert e_ref == pytest.approx(24.0 * np.pi, rel=1e-12)
        assert q_ref == pytest.approx(-8.0 * np.pi, rel=1e-12)
        assert inv.energy_cont == pytest.approx(e_ref, rel=1e-5)
        assert inv.mass_cont == pytest.approx(q_ref, rel=1e-5)

    def test_time_independence_on_exact_solution(self):
        g = build_grid(EX1.x_l, EX1.x_r, 256, 1.0, 1000)
        x, tau = g.nodes, g.tau
        values = []
        for t0 in (0.1, 0.5, 2.0):
            inv = continuous_invariants(EX1.exact(x, t0 - tau), EX1.exact(x, t0),
                                        EX1.exact(x, t0 + tau), EX1.params, g)
            values.append(inv.energy_cont)
        assert np.ptp(values) <= 1e-10 * abs(values[0])

    def test_quadrature_error_refines_at_order_two(self):
        errs = []
        for K, J in ((64, 250), (128, 500)):
            g = build_grid(EX1.x_l, EX1.x_r, K, 1.0, J)
            x, tau = g.nodes, g.tau
            inv = continuous_invariants(EX1.exact(x, 0.3 - tau),
                                        EX1.exact(x, 0.3),
                                        EX1.exact(x, 0.3 + tau), EX1.params, g)
            errs.append(abs(inv.energy_cont - 24.0 * np.pi)
                        + abs(inv.mass_cont + 8.0 * np.pi))
        assert 2.8 <= errs[0] / errs[1] <= 5.2


def _three_levels(seed, K):
    """(u^{j-1}, u^j, u^{j+1}): strategies.levels plus a third level that
    continues the rotation with fresh noise."""
    u_prev, u_cur = levels(seed, K)
    rng = np.random.default_rng(seed + 1)
    u_next = u_cur * np.exp(-0.05j) + 0.05 * (rng.normal(size=K)
                                               + 1j * rng.normal(size=K))
    return u_prev, u_cur, u_next


def _frozen_copy(u):
    u = np.array(u)
    u.flags.writeable = False
    return u


def _production_residual(scheme, params, grid, u_prev, u_cur, u_next):
    """R = A u^{j+1} + B u^j + C u^{j-1} + N of a scheme (module mi or wang)
    at any three levels, from the pieces its steps use: the assembled A's
    matvec, and a StepPlan's known terms, lag() and nonlinear()."""
    assemble = mi.assemble_linear if scheme is mi else wang.assemble_wang
    system = assemble(params, grid)
    plan = StepPlan(system, params, grid, scheme._stencils, scheme._cubic)
    known = plan.known_terms(u_prev, u_cur).copy()
    plan.lag()
    return (system.matvec(u_next) + known
            + plan.nonlinear(u_next, np.empty(grid.K, dtype=complex)))


class TestResidualPairings:
    """The discrete laws hold for any three levels, not only for a step's:
    each gap, or the increment of the energy-preserving scheme's energy, is
    the scheme's residual R paired with a combination w of the levels,

        energy_gap            = h Re sum conj(u^{j+1} - u^{j-1}) R,
        mass_gap              = (h/2) Im sum conj(u^{j+1} + 2u^j + u^{j-1}) R,
        energy_wang increment = h Re sum conj(u^{j+1} - u^{j-1}) R_w,

    to round-off relative to h sum |w| |R|.  So a run's gaps measure only
    the residual of the iterate at which Picard stopped."""

    @settings(max_examples=40, deadline=None)
    @given(alpha=coefficient, gamma=gamma_coefficient, theta=coefficient,
           lam=coefficient, beta=coefficient, K=st.integers(5, 39),
           length=st.floats(0.5, 20.0), tau=st.floats(1e-3, 1.0),
           amplitude=st.floats(1e-2, 10.0), seed=seeds)
    def test_gaps_are_residual_pairings(self, alpha, gamma, theta, lam, beta, K,
                                        length, tau, amplitude, seed):
        g = build_grid(0.0, length, K, 10 * tau, 10)
        rng = np.random.default_rng(seed)
        u_prev, u_cur, u_next = amplitude * (rng.normal(size=(3, K))
                                             + 1j * rng.normal(size=(3, K)))
        h = g.h

        def pairing(w, R):
            return h * np.vdot(w, R), h * np.sum(np.abs(w) * np.abs(R))

        p = PdeParams(alpha=alpha, gamma=gamma, theta=theta, lam=lam, beta=beta)
        R = _production_residual(mi, p, g, u_prev, u_cur, u_next)
        direct = oracles.mi_residual_direct(u_prev, u_cur, u_next, p, g)
        scale = oracles.mi_residual_scale(u_next, p, g)
        assert np.max(np.abs(R - direct)) <= 1e-13 * scale
        gaps = theorem_identity_gaps(u_prev, u_cur, u_next, p, g)
        energy, energy_scale = pairing(u_next - u_prev, R)
        assert abs(gaps.energy_gap - energy.real) <= 1e-14 * energy_scale
        mass, mass_scale = pairing(u_next + 2.0 * u_cur + u_prev, R)
        assert abs(gaps.mass_gap - 0.5 * mass.imag) <= 1e-14 * 0.5 * mass_scale

        pw = PdeParams(alpha=alpha, gamma=0.0, theta=0.0, lam=0.0, beta=beta)
        R_w = _production_residual(wang, pw, g, u_prev, u_cur, u_next)
        direct = oracles.wang_residual_direct(u_prev, u_cur, u_next, pw, g)
        scale = oracles.mi_residual_scale(u_next, pw, g)
        assert np.max(np.abs(R_w - direct)) <= 1e-13 * scale
        increment = (energy_wang(u_cur, u_next, pw, g)
                     - energy_wang(u_prev, u_cur, pw, g))
        energy, energy_scale = pairing(u_next - u_prev, R_w)
        assert abs(increment - energy.real) <= 1e-14 * energy_scale


class TestExactLaws:
    """The three residual-pairing laws of TestResidualPairings hold exactly:
    the oracles of tests/oracles.py evaluated in Gaussian rationals, on
    random rational coefficients, mesh and levels, give both sides equal
    with ==.  Each side is a polynomial in the drawn numbers, so a law that
    failed as a polynomial identity would hold at a random point of this
    large grid of values only by a rare accident (Schwartz-Zippel).  With
    the printed beta/2 in place of beta/4 the mass law fails.  The fourth
    law is the discrete skew-adjointness Re sum conj(dx u) u = 0 over the
    half nodes, which both invariants carry and their one run-time check
    guards."""

    @staticmethod
    def rational(rng, positive=False):
        low = 1 if positive else -10 ** 6
        return Fraction(rng.randint(low, 10 ** 6), rng.randint(1, 10 ** 6))

    @pytest.mark.parametrize("K", [5, 7, 16])
    def test_laws_hold_exactly(self, K):
        rng = random.Random(K)
        alpha, gamma, theta, lam, beta = (self.rational(rng) for _ in range(5))
        grid = SimpleNamespace(K=K, h=self.rational(rng, True),
                               tau=self.rational(rng, True))
        u_prev, u_cur, u_next = ([oracles.GaussianRational(self.rational(rng),
                                                           self.rational(rng))
                                  for _ in range(K)] for _ in range(3))

        def pairing(w, R):
            return sum((wk.conjugate() * Rk for wk, Rk in zip(w, R)), 0) * grid.h

        p = SimpleNamespace(alpha=alpha, gamma=gamma, theta=theta, lam=lam, beta=beta)
        R = oracles.mi_residual_direct(u_prev, u_cur, u_next, p, grid)
        d_energy = (oracles.mi_energy_elementwise(u_cur, u_next, p, grid)
                    - oracles.mi_energy_elementwise(u_prev, u_cur, p, grid))
        d_mass = (oracles.mi_mass_elementwise(u_cur, u_next, p, grid)
                  - oracles.mi_mass_elementwise(u_prev, u_cur, p, grid))
        _, a, dx = oracles.half_fields_elementwise(u_cur, u_next, grid)
        b = oracles.half_fields_elementwise(u_prev, u_cur, grid)[1]
        assert sum((d.conjugate() * m for d, m in zip(dx, a)), 0).real == 0
        rhs_e, rhs_q = oracles.identity_rhs_elementwise(a, b, p, grid)
        energy_gap, mass_gap = d_energy - rhs_e, d_mass / grid.tau - rhs_q
        assert type(energy_gap) is type(mass_gap) is Fraction
        assert energy_gap == pairing([n - q for q, n in zip(u_prev, u_next)], R).real
        mass = pairing([n + 2 * c + q for q, c, n in zip(u_prev, u_cur, u_next)], R)
        assert mass_gap == mass.imag / 2
        printed = oracles.identity_rhs_elementwise(a, b, p, grid, Fraction(1, 2))[1]
        assert d_mass / grid.tau - printed != mass.imag / 2

        pw = SimpleNamespace(alpha=alpha, gamma=0, theta=0, lam=0, beta=beta)
        R_w = oracles.wang_residual_direct(u_prev, u_cur, u_next, pw, grid)
        increment = (oracles.energy_wang_elementwise(u_cur, u_next, pw, grid)
                     - oracles.energy_wang_elementwise(u_prev, u_cur, pw, grid))
        assert increment == pairing([n - q for q, n in zip(u_prev, u_next)], R_w).real


class TestDotProductEvaluator:
    """The invariants and identity right-hand sides against the elementwise
    sums of tests/oracles.py, within 1e-13 of the sum of the magnitudes of
    their terms; the invariants are the same with the half-node fields
    handed over as without."""

    @settings(max_examples=60, deadline=None)
    @given(alpha=coefficient, gamma=gamma_coefficient, theta=coefficient,
           lam=coefficient, beta=coefficient, K=sizes, tau=time_steps,
           seed=seeds)
    def test_matches_elementwise_sums(self, alpha, gamma, theta, lam, beta, K,
                                      tau, seed):
        p = PdeParams(alpha=alpha, gamma=gamma, theta=theta, lam=lam, beta=beta)
        g = periodic_grid(K, tau)
        u_prev, u_cur, u_next = _three_levels(seed, K)
        dt, mid, dx = oracles.half_fields_elementwise(u_cur, u_next, g)
        h = g.h
        abs_mid, abs_dx, abs_dt = np.abs(mid), np.abs(dx), np.abs(dt)
        e_scale = h * np.sum(abs_dt ** 2 + abs(theta) * abs_mid * abs_dx
                             + abs_dx ** 2 + abs(lam) * abs_mid ** 2
                             + 0.5 * abs(beta) * abs_mid ** 4)
        q_scale = h * np.sum(2.0 * abs_dt * abs_mid + abs(gamma) * abs_mid * abs_dx
                             + abs(alpha) * abs_mid ** 2)
        e_ref = oracles.mi_energy_elementwise(u_cur, u_next, p, g)
        q_ref = oracles.mi_mass_elementwise(u_cur, u_next, p, g)
        plain = (mi_energy(u_cur, u_next, p, g), mi_mass(u_cur, u_next, p, g))
        for half in (None, half_nodes(u_cur, u_next, g)):
            energy = mi_energy(u_cur, u_next, p, g, half=half)
            mass = mi_mass(u_cur, u_next, p, g, half=half)
            assert abs(energy - e_ref) <= 1e-13 * e_scale
            assert abs(mass - q_ref) <= 1e-13 * q_scale
            assert (energy, mass) == plain

        a = np.array(mid)
        b = np.array(oracles.half_fields_elementwise(u_prev, u_cur, g)[1])
        d = np.abs(np.abs(a) ** 2 - np.abs(b) ** 2)
        rhs_e_scale = 0.5 * abs(beta) * h * np.sum(d * np.abs(a - b) ** 2)
        rhs_q_scale = 0.25 * abs(beta) * h * np.sum(d * np.abs(a - b)
                                                     * np.abs(a + b))
        rhs_e, rhs_q = diagnostics._identity_rhs(a, b, p, g)
        ref_e, ref_q = oracles.identity_rhs_elementwise(a, b, p, g)
        assert abs(rhs_e - ref_e) <= 1e-13 * rhs_e_scale
        assert abs(rhs_q - ref_q) <= 1e-13 * rhs_q_scale
        assert energy_rhs(u_prev, u_cur, u_next, p, g) == rhs_e
        assert mass_rhs(u_prev, u_cur, u_next, p, g) == rhs_q


class TestStackedEvaluation:
    """On [n, K] stacks of pairs every diagnostic equals, under ==, its
    one-pair evaluation row by row, with the half-node fields and the wang
    kinetic part handed over as a run does; one pair gives Python floats."""

    @settings(max_examples=60, deadline=None)
    @given(alpha=coefficient, gamma=gamma_coefficient, theta=coefficient,
           lam=coefficient, beta=coefficient, K=sizes, tau=time_steps,
           n=st.integers(1, 9), seed=seeds)
    def test_rows_equal_one_pair_evaluations(self, alpha, gamma, theta, lam,
                                             beta, K, tau, n, seed):
        p = PdeParams(alpha=alpha, gamma=gamma, theta=theta, lam=lam, beta=beta)
        g = periodic_grid(K, tau)
        rng = np.random.default_rng(seed)
        stack = np.vstack(levels(seed, K)
                          + tuple(random_field(rng, K)[None] for _ in range(n - 1)))
        u_cur, u_next = stack[:-1], stack[1:]
        ref = u_next + 0.1 * random_field(rng, K)
        half = half_nodes(u_cur, u_next, g)
        # Each row's mean against the previous row's, wrapping around.
        a, b = half[1], np.roll(half[1], 1, axis=0)
        kinetic = kinetic_gradient(stack, g)
        blocked = (mi_energy(u_cur, u_next, p, g, half=half),
                   mi_mass(u_cur, u_next, p, g, half=half),
                   *diagnostics._identity_rhs(a, b, p, g),
                   energy_wang(u_cur, u_next, p, g, kinetic=kinetic),
                   energy_wang_printed(u_cur, u_next, p, g, kinetic=kinetic),
                   *astuple(error_metrics(u_next, ref, g)))
        for i in range(n):
            one = half_nodes(u_cur[i], u_next[i], g)
            assert all(np.array_equal(x[i], y) for x, y in zip(half, one))
            rowwise = (mi_energy(u_cur[i], u_next[i], p, g),
                       mi_mass(u_cur[i], u_next[i], p, g),
                       *diagnostics._identity_rhs(a[i], b[i], p, g),
                       energy_wang(u_cur[i], u_next[i], p, g),
                       energy_wang_printed(u_cur[i], u_next[i], p, g),
                       *astuple(error_metrics(u_next[i], ref[i], g)))
            assert all(type(value) is float for value in rowwise)
            assert [values[i] for values in blocked] == list(rowwise)


    @settings(max_examples=60, deadline=None)
    @given(K=sizes, tau=time_steps, n=st.integers(1, 9), m=st.integers(1, 3),
           seed=seeds)
    def test_kinetic_gradient_equals_two_differences_per_pair(self, K, tau, n,
                                                              m, seed):
        # One backward difference per level of an [m, n+1, K] stack gives
        # each pair the bits of differencing its two levels on their own.
        g = periodic_grid(K, tau)
        rng = np.random.default_rng(seed)
        stack = np.stack([np.vstack(levels(seed + b, K)
                                    + tuple(random_field(rng, K)[None]
                                            for _ in range(n - 1)))
                          for b in range(m)])
        kinetic = kinetic_gradient(stack, g)
        assert kinetic.shape == (m, n)
        for b in range(m):
            assert list(kinetic_gradient(stack[b], g)) == list(kinetic[b])
            for i in range(n):
                assert kinetic[b, i] == oracles.kinetic_gradient_pairwise(
                    stack[b, i], stack[b, i + 1], g)


class TestHalfFieldMemo:
    """A pair changed in place between two calls is evaluated afresh:
    nothing is memoised, whatever the arrays' flags."""

    P = PdeParams(alpha=0.7, gamma=1.3, theta=-2.0, lam=0.5, beta=1.5)

    def test_refrozen_pair_changed_in_place_is_evaluated_afresh(self, rng,
                                                               small_grid):
        u = _frozen_copy(random_field(rng, small_grid.K))
        v = _frozen_copy(random_field(rng, small_grid.K))
        before = mi_energy(u, v, self.P, small_grid)
        v.flags.writeable = True
        v[3] += 1.0 - 2.0j
        v.flags.writeable = False
        after = (mi_energy(u, v, self.P, small_grid),
                 mi_mass(u, v, self.P, small_grid))
        assert after[0] != before
        assert after == (mi_energy(u.copy(), v.copy(), self.P, small_grid),
                         mi_mass(u.copy(), v.copy(), self.P, small_grid))

    def test_writeable_pair_changed_in_place_is_evaluated_afresh(self, rng,
                                                                small_grid):
        u = random_field(rng, small_grid.K)
        v = random_field(rng, small_grid.K)
        before = (mi_energy(u, v, self.P, small_grid),
                  mi_mass(u, v, self.P, small_grid))
        v[3] += 1.0 - 2.0j
        after = (mi_energy(u, v, self.P, small_grid),
                 mi_mass(u, v, self.P, small_grid))
        assert after != before
        assert after == (mi_energy(u.copy(), v.copy(), self.P, small_grid),
                         mi_mass(u.copy(), v.copy(), self.P, small_grid))

    def test_read_only_view_of_writeable_base_is_never_memoised(self, rng,
                                                               small_grid):
        u = _frozen_copy(random_field(rng, small_grid.K))
        base = random_field(rng, small_grid.K)
        view = base[:]
        view.flags.writeable = False
        before = mi_energy(u, view, self.P, small_grid)
        base[5] *= 3.0
        after = mi_energy(u, view, self.P, small_grid)
        assert after != before
        assert after == mi_energy(u, base.copy(), self.P, small_grid)


@pytest.mark.parametrize("runner", [run_mi, run_wang])
def test_run_snapshots_are_writeable_copies(monkeypatch, runner):
    seen = []
    original = diagnostics.mi_energy

    def recording(u_cur, u_next, params, grid, half=None):
        seen.extend((u_cur, u_next))
        return original(u_cur, u_next, params, grid, half=half)

    monkeypatch.setattr(diagnostics, "mi_energy", recording)
    prob = builtin_problem("plane_beta2")
    g = build_grid(prob.x_l, prob.x_r, 16, 0.1, 10)
    traj = runner(prob, g, SolverConfig(), snapshot_stride=1)
    # One call for the bootstrap pair, then one per block of steps.
    blocks = math.ceil((g.J - 1) / max(1, BLOCK_VALUES // g.K))
    assert len(seen) == 2 * (1 + blocks)
    assert len(traj.snapshots) == g.J + 1
    for _, snap in traj.snapshots:
        assert snap.flags.writeable
        assert not any(np.shares_memory(snap, u) for u in seen)
