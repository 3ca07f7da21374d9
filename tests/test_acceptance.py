"""Acceptance suite: the nine exit criteria for the solver package.

Each test evaluates one criterion at its stated tolerance and prints one
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s`` to see
the lines as they appear).  The heavy benchmark trajectories are computed
once in module-scoped fixtures and shared.
"""

import time

import numpy as np
import pytest

from nlsw import (PdeParams, SolverConfig, StateWindow, assemble_linear,
                  builtin_problem, build_grid, grad_S, hamiltonian_S,
                  inner_product, apply_difference, norms, run_identity_oracle,
                  run_mi, run_wang, solve_cyclic_tridiagonal, step_mi)
from nlsw.cli import RunConfig, run_convergence
from nlsw.linsolve import PreparedCyclicSolver

from conftest import random_field
from test_linsolve import random_dd_system
from oracles import dense_solve, mi_residual_direct, mi_residual_scale


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def linear_long_run():
    # Fig.-3 mesh, desk-scaled horizon: tau = 0.01, h = 2*pi/64, T = 100
    prob = builtin_problem("linear_plane")
    grid = build_grid(prob.x_l, prob.x_r, 64, 100.0, 10000)
    return run_mi(prob, grid, SolverConfig(), snapshot_stride=1000)


@pytest.fixture(scope="module")
def beta2_runs():
    # Fig.-6/7 mesh, desk-scaled horizon: h = 2*pi/200, tau = 0.01, T = 20
    prob = builtin_problem("plane_beta2")
    grid = build_grid(prob.x_l, prob.x_r, 200, 20.0, 2000)
    cfg = SolverConfig()
    return (run_mi(prob, grid, cfg, snapshot_stride=500),
            run_wang(prob, grid, cfg, snapshot_stride=500))


def test_criterion_1_second_order_convergence(tmp_path):
    started = time.perf_counter()
    space_cfg = RunConfig(problem="linear_plane", K=32, J=2000, T=1.0,
                          output_dir=str(tmp_path / "space"))
    space = run_convergence(space_cfg, axis="space", levels=4)
    time_cfg = RunConfig(problem="linear_plane", K=1024, J=100, T=1.0,
                         output_dir=str(tmp_path / "time"))
    temporal = run_convergence(time_cfg, axis="time", levels=4)
    elapsed = time.perf_counter() - started
    ok_space = 1.7 <= space["fitted_order"] <= 2.3
    ok_time = 1.7 <= temporal["fitted_order"] <= 2.3
    ok_budget = elapsed < 120.0
    ok = ok_space and ok_time and ok_budget
    report(1, ok, f"spatial order {space['fitted_order']:.3f}, temporal order "
                  f"{temporal['fitted_order']:.3f}, runtime {elapsed:.1f}s")
    assert ok_space, f"spatial order {space['fitted_order']} outside 2.0 +- 0.3"
    assert ok_time, f"temporal order {temporal['fitted_order']} outside 2.0 +- 0.3"
    assert ok_budget, f"sweeps took {elapsed:.1f}s (budget 120s)"


def test_criterion_2_exact_conservation_beta_zero(linear_long_run):
    traj = linear_long_run
    e0, q0 = traj.meta["energy_ref"], traj.meta["mass_ref"]
    e_drift = np.abs(traj.series["energy_mi"] - e0).max() / abs(e0)
    q_drift = np.abs(traj.series["mass_mi"] - q0).max() / abs(q0)
    ok = e_drift <= 1e-10 and q_drift <= 1e-10
    report(2, ok, f"relative drifts over T=100: energy {e_drift:.2e}, "
                  f"mass {q_drift:.2e} (tolerance 1e-10)")
    assert e_drift <= 1e-10
    assert q_drift <= 1e-10


def test_error_constant_on_long_linear_run(linear_long_run):
    # supplementary: max error over T=100 bounded by C*(tau^2 + h^2), C <~ 10
    traj = linear_long_run
    err = traj.series["err_max"].max()
    bound = 10.0 * (traj.grid.tau ** 2 + traj.grid.h ** 2)
    assert err <= bound, f"err {err:.3e} vs 10*(tau^2+h^2) = {bound:.3e}"


def test_criterion_3_unit_circle_modulus(linear_long_run):
    # exact amplitude is 1, so the recorded modulus error is max||u|-1|
    dev = linear_long_run.series["mod_err"].max()
    ok = dev <= 1e-3
    report(3, ok, f"max modulus deviation from the unit circle {dev:.2e} "
                  f"(tolerance 1e-3)")
    assert ok


def test_criterion_4_energy_identity_roundoff(beta2_runs):
    mi_traj, _ = beta2_runs
    rel_gaps = np.abs(mi_traj.series["energy_gap"]) / np.abs(mi_traj.series["energy_mi"])
    e0 = mi_traj.meta["energy_ref"]
    raw_drift = np.abs(mi_traj.series["energy_mi"] - e0).max() / abs(e0)
    ok_gap = max(rel_gaps) <= 1e-10
    ok_visible = raw_drift > 1e-9
    ok = ok_gap and ok_visible
    report(4, ok, f"max per-step |energy_gap|/|E| = {max(rel_gaps):.2e} "
                  f"(tol 1e-10); raw energy drift {raw_drift:.2e} (visibly "
                  f"nonzero, paper-scale ~1e-7)")
    assert ok_gap
    assert ok_visible, "raw drift unexpectedly at round-off; identity check vacuous"


def test_criterion_5_mass_identity_oracle(beta2_runs):
    oracle = run_identity_oracle()
    mi_traj, _ = beta2_runs
    rel_gaps = np.abs(mi_traj.series["mass_gap"]) / np.abs(mi_traj.series["mass_mi"])
    corrected = oracle.mass_matches_validated and not oracle.mass_matches_printed
    ok = oracle.ok and max(rel_gaps) <= 1e-9
    report(5, ok, f"tiny-grid oracle: measured factor "
                  f"{oracle.measured_mass_factor:.10f}*beta "
                  f"({'corrected from printed 0.5 to 0.25' if corrected else 'printed form'}); "
                  f"max per-step |mass_gap|/|Q| = {max(rel_gaps):.2e} (tol 1e-9)")
    assert oracle.ok
    assert corrected, "expected the validated beta/4 constant, not the printed beta/2"
    assert max(rel_gaps) <= 1e-9


def test_criterion_6_scheme_comparison(beta2_runs):
    mi_traj, wang_traj = beta2_runs
    ew0 = wang_traj.meta["energy_wang_ref"]
    wang_drift = np.abs(wang_traj.series["energy_wang"] - ew0).max() / abs(ew0)
    mi_final = mi_traj.series["e_infty_sq"][-1]
    wang_final = wang_traj.series["e_infty_sq"][-1]
    q0 = mi_traj.meta["mass_ref"]
    residuals = np.abs(mi_traj.series["mass_mi"] - q0)
    half = len(residuals) // 2
    first, second = max(residuals[:half]), max(residuals[half:])
    ok_a = wang_drift <= 1e-9
    ok_b = mi_final <= wang_final
    ok_c = second <= 2.0 * first
    ok = ok_a and ok_b and ok_c
    report(6, ok, f"(a) Wang energy drift {wang_drift:.2e} (tol 1e-9); "
                  f"(b) final e_infty_sq MI {mi_final:.3e} <= Wang {wang_final:.3e}; "
                  f"(c) MI mass residual halves: {first:.3e} -> {second:.3e}")
    assert ok_a
    assert ok_b
    assert ok_c


def test_criterion_7_wang_energy_variants(beta2_runs):
    _, wang_traj = beta2_runs
    ref = wang_traj.meta["energy_wang_ref"]
    derived_drift = np.abs(wang_traj.series["energy_wang"] - ref).max() / abs(ref)
    printed_drift = wang_traj.meta["energy_wang_printed_max_rel_drift"]
    ok = derived_drift <= 1e-10
    report(7, ok, f"derived two-level energy drift {derived_drift:.2e} "
                  f"(tol 1e-10); printed single-level variant drift "
                  f"{printed_drift:.2e} (recorded, informational)")
    assert ok


def test_criterion_8_property_suites():
    rng = np.random.default_rng(987654321)
    trials = 100

    # Lemma-1 style identities
    for _ in range(trials):
        K = int(rng.integers(8, 96))
        g = build_grid(0.0, rng.uniform(1.0, 9.0), K, 1.0, 2)
        u = random_field(rng, K)
        v = random_field(rng, K)
        lhs = inner_product(apply_difference("second", u, g), v, g)
        rhs = -inner_product(apply_difference("backward", u, g),
                             apply_difference("backward", v, g), g)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        sk = inner_product(apply_difference("central", u, g), u, g)
        assert abs(sk.real) <= 1e-13 * max(1.0, abs(sk))
        tau = rng.uniform(0.05, 0.5)
        w = random_field(rng, K)
        lhs_t = inner_product((v - 2.0 * u + w) / tau ** 2,
                              (v - w) / (2.0 * tau), g).real
        rhs_t = (norms((v - u) / tau, g).l2 ** 2
                 - norms((u - w) / tau, g).l2 ** 2) / (2.0 * tau)
        assert abs(lhs_t - rhs_t) <= 1e-12 * max(1.0, abs(rhs_t))

    # grad-S against central finite differences of S
    step = 1e-6
    for _ in range(trials):
        p = PdeParams(alpha=rng.normal(), gamma=rng.uniform(-1.5, 1.5),
                      theta=rng.normal(), lam=rng.normal(), beta=rng.normal())
        z = rng.normal(size=6)
        gvec = grad_S(z, p)
        for i in range(6):
            zp, zm = z.copy(), z.copy()
            zp[i] += step
            zm[i] -= step
            fd = (hamiltonian_S(zp, p) - hamiltonian_S(zm, p)) / (2 * step)
            assert abs(gvec[i] - fd) <= 1e-6 * max(1.0, abs(fd))

    # cyclic tridiagonal solver against the dense oracle
    for _ in range(trials):
        K = int(np.exp(rng.uniform(np.log(4), np.log(512))))
        sys_ = random_dd_system(rng, max(K, 4))
        rhs = random_field(rng, sys_.size)
        x = solve_cyclic_tridiagonal(sys_, rhs)
        ref = dense_solve(sys_, rhs)
        assert np.max(np.abs(x - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    # gauge covariance of the midpoint step
    prob = builtin_problem("plane_beta2")
    g = build_grid(prob.x_l, prob.x_r, 48, 1.0, 100)
    solver = PreparedCyclicSolver(assemble_linear(prob.params, g))
    cfg = SolverConfig()
    for _ in range(trials):
        up = random_field(rng, 48) * 0.5
        uc = up + 0.05 * random_field(rng, 48)
        c = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        u1, _ = step_mi(StateWindow(up, uc), solver, prob.params, g, cfg)
        u2, _ = step_mi(StateWindow(c * up, c * uc), solver,
                        prob.params, g, cfg)
        assert np.max(np.abs(u2 - c * u1)) <= 1e-12 * max(1.0, np.max(np.abs(u1)))

    # scheme-residual oracle on accepted steps of a real trajectory
    g = build_grid(prob.x_l, prob.x_r, 64, 1.21, 121)
    cfg = SolverConfig()
    traj = run_mi(prob, g, cfg, snapshot_stride=1)
    levels = [u for _, u in traj.snapshots]
    assert len(levels) >= trials + 2
    for i in range(1, trials + 1):
        resid = np.max(np.abs(mi_residual_direct(
            levels[i - 1], levels[i], levels[i + 1], prob.params, g)))
        scale = mi_residual_scale(levels[i + 1], prob.params, g)
        assert resid <= 10.0 * cfg.fp_tol * scale

    report(8, True, f"{trials} randomized trials per suite: Lemma-1 "
                    "identities, grad-S finite differences, cyclic solver vs "
                    "dense oracle, step gauge covariance, scheme-residual "
                    "oracle - all passing")


def _prominent_peaks(u, floor_frac=0.1):
    a = np.abs(u)
    cut = floor_frac * a.max()
    return [k for k in range(len(a))
            if a[k] > a[k - 1] and a[k] > a[(k + 1) % len(a)] and a[k] >= cut]


def test_criterion_9_benchmark_robustness():
    cfg = SolverConfig()
    details = []
    ok = True
    for name, K, T, J in (("soliton", 1000, 50.0, 1000),
                          ("gauss_split", 1600, 20.0, 1000)):
        prob = builtin_problem(name)
        grid = build_grid(prob.x_l, prob.x_r, K, T, J)
        traj = run_mi(prob, grid, cfg, snapshot_stride=333)
        max_fp = traj.series["fp_iters"].max()
        e0, q0 = traj.meta["energy_ref"], traj.meta["mass_ref"]
        e_drift = np.abs(traj.series["energy_mi"] - e0).max() / abs(e0)
        q_drift = np.abs(traj.series["mass_mi"] - q0).max() / abs(q0)
        ok_run = max_fp <= 30 and e_drift <= 1e-3 and q_drift <= 1e-3
        detail = (f"{name}: fp<= {max_fp}, energy drift {e_drift:.2e}, "
                  f"mass drift {q_drift:.2e}")
        if name == "gauss_split":
            t_fin, u_fin = traj.snapshots[-1]
            assert t_fin == pytest.approx(20.0)
            n_peaks = len(_prominent_peaks(u_fin))
            ok_run = ok_run and n_peaks >= 3
            detail += f", wave split into {n_peaks} prominent maxima at t=20"
        ok = ok and ok_run
        details.append(detail)
    report(9, ok, "; ".join(details) + " (tolerances: fp<=30, drift<=1e-3, "
                  ">=3 maxima)")
    assert ok
