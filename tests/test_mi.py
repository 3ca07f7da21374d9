import functools
import gc
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nlsw import (ConfigurationError, ConsistencyError, DivergenceError,
                  PdeParams, SolverConfig, StateWindow, StepFailureError,
                  Trajectory, UsageError, assemble_linear, bootstrap,
                  builtin_problem, build_grid, customized, diagnostics, mi,
                  run_mi, run_wang, step_mi, wang)
from nlsw.cli import run_convergence
from nlsw.linsolve import PreparedCyclicSolver
from nlsw.mi import BLOCK_VALUES, StepPlan

from oracles import mi_residual_direct, mi_residual_scale
from strategies import (coefficient, gamma_coefficient, periodic_grid, seeds,
                        sizes, time_steps)

EX1 = builtin_problem("linear_plane")
EX3 = builtin_problem("plane_beta2")


def exact_levels(problem, grid, j):
    x = grid.nodes
    return (problem.exact(x, (j - 1) * grid.tau),
            problem.exact(x, j * grid.tau),
            problem.exact(x, (j + 1) * grid.tau))


def owned_bytes(plan):
    """The nbytes of every array that owns its data and is reachable from a
    StepPlan: through its and its solver's attributes, tuples, the factors
    bound in a functools.partial and the closure cells of the cubic's
    functions.  A view counts as its owner, found through .base, and each
    owner counts once."""
    owners, seen, todo = {}, set(), [plan]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while getattr(obj, "base", None) is not None:
                obj = obj.base
            assert obj.flags.owndata
            owners[id(obj)] = obj
        elif isinstance(obj, (StepPlan, PreparedCyclicSolver)):
            todo.extend(vars(obj).values())
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
        elif isinstance(obj, functools.partial):
            todo.extend((obj.func, *obj.args, *obj.keywords.values()))
        elif isinstance(obj, types.FunctionType):
            todo.extend(cell.cell_contents for cell in obj.__closure__ or ())
    return sum(owner.nbytes for owner in owners.values())


def exact_case(problem):
    """(params, grid, levels j-1, j, j+1) of the exact solution at K=32,
    tau=0.01."""
    g = build_grid(problem.x_l, problem.x_r, 32, 1.0, 100)
    return problem.params, g, exact_levels(problem, g, 5)


@st.composite
def drawn_case(draw):
    """(params, grid, three random levels) with drawn coefficients."""
    params = PdeParams(alpha=draw(coefficient), gamma=draw(gamma_coefficient),
                       theta=draw(coefficient), lam=draw(coefficient),
                       beta=draw(coefficient))
    g = periodic_grid(draw(sizes), draw(time_steps))
    rng = np.random.default_rng(draw(seeds))
    return params, g, tuple(rng.normal(size=(3, g.K)) + 1j * rng.normal(size=(3, g.K)))


class TestSolverConfig:
    def test_non_integral_fp_max_iter_rejected(self):
        # Would otherwise pass construction and fail as a TypeError in the
        # first Picard sweep, or, for a bool, run as 1; as at the CLI, a bool
        # is never a number, and the error names the field.
        for field, value in (("fp_max_iter", 2.5), ("fp_max_iter", True),
                             ("fp_tol", True), ("fp_tol", None),
                             ("fp_tol", "1e-13"), ("fp_tol", 10 ** 400),
                             ("bootstrap_mode", "taylor3")):
            with pytest.raises(ConfigurationError) as err:
                SolverConfig(**{field: value})
            assert field in str(err.value)
        assert SolverConfig(fp_max_iter=np.int64(3)).fp_max_iter == 3


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("refuse", [
    lambda v: run_mi(EX1, build_grid(EX1.x_l, EX1.x_r, 16, 0.1, 10), SolverConfig(),
                     snapshot_stride=v),
    lambda v: build_grid(0.0, 1.0, v, 1.0, 10),
    lambda v: SolverConfig(fp_tol=v),
    lambda v: SolverConfig(fp_max_iter=v),
    lambda v: PdeParams(alpha=v, gamma=0.0, theta=0.0, lam=0.0, beta=0.0),
    lambda v: run_convergence(None, "time", v),
], ids=["snapshot_stride", "K", "fp_tol", "fp_max_iter", "alpha", "levels"])
def test_refused_integer_too_long_for_str_is_named_by_its_bit_length(refuse, sign):
    # str refuses an int of more than sys.get_int_max_str_digits() digits,
    # so a message that echoed 10**5000 raised that ValueError instead.
    with pytest.raises((ConfigurationError, UsageError)) as err:
        refuse(sign * 10 ** 5000)
    assert f"{'-' if sign < 0 else ''}<16610-bit integer>" in str(err.value)


class TestAssembleLinear:
    def test_diagonal_entry(self):
        g = build_grid(0.0, 2.0 * np.pi, 16, 1.0, 100)
        p = PdeParams(alpha=-1.0, gamma=1.0, theta=-1.0, lam=3.0, beta=0.0)
        sys_ = assemble_linear(p, g)
        expected = (0.5 / g.tau ** 2 + 0.5 / g.h ** 2
                    - 0.25j * p.alpha / g.tau + p.lam / 8.0)
        assert sys_.diag[0] == expected
        assert np.all(sys_.diag == sys_.diag[0])

    def test_symmetric_when_only_wave_terms(self):
        g = build_grid(0.0, 2.0 * np.pi, 16, 1.0, 100)
        p = PdeParams(alpha=0.0, gamma=0.0, theta=0.0, lam=0.0, beta=0.0)
        sys_ = assemble_linear(p, g)
        expected = 0.25 / g.tau ** 2 - 0.25 / g.h ** 2
        assert np.all(sys_.upper == expected)
        assert np.all(sys_.lower == expected)

    def test_theta_contribution(self):
        g = build_grid(0.0, 2.0 * np.pi, 16, 1.0, 100)
        base = PdeParams(alpha=0.0, gamma=0.0, theta=0.0, lam=0.0, beta=0.0)
        with_theta = PdeParams(alpha=0.0, gamma=0.0, theta=0.7, lam=0.0, beta=0.0)
        s0 = assemble_linear(base, g)
        s1 = assemble_linear(with_theta, g)
        dcoef = -0.125j * 0.7 / g.h
        assert np.allclose(s1.upper - s0.upper, dcoef)
        assert np.allclose(s1.lower - s0.lower, -dcoef)
        assert np.array_equal(s1.diag, s0.diag)

    @settings(max_examples=40, deadline=None)
    @given(case=drawn_case())
    @example(case=exact_case(EX1))
    @example(case=exact_case(EX3))
    def test_operator_plus_known_terms_reproduce_scheme(self, case):
        # Applying the assembled operator to the new level plus the
        # explicitly evaluated lagged/cubic terms must equal the direct
        # per-node evaluation of the scheme: on exact levels of the builtin
        # problems and on random levels with drawn coefficients.
        p, g, (up, uc, un) = case
        sys_ = assemble_linear(p, g)
        plan = StepPlan(sys_, p, g, mi._stencils, mi._cubic)
        known = plan.known_terms(up, uc)
        plan.lag()
        lhs = sys_.matvec(un) + known + plan.nonlinear(un)
        direct = mi_residual_direct(up, uc, un, p, g)
        scale = mi_residual_scale(un, p, g)
        assert np.max(np.abs(lhs - direct)) <= 1e-13 * scale

    @pytest.mark.parametrize("prob", [EX1, EX3], ids=lambda p: p.name)
    def test_truncation_second_order(self, prob):
        # The exact solution, inserted into the full discrete scheme, leaves
        # an O(tau^2 + h^2) defect; halving both mesh sizes divides it by ~4.
        maxima = []
        for K, J in ((32, 50), (64, 100)):
            g = build_grid(prob.x_l, prob.x_r, K, 1.0, J)
            up, uc, un = exact_levels(prob, g, 5)
            maxima.append(np.max(np.abs(
                mi_residual_direct(up, uc, un, prob.params, g))))
        factor = maxima[0] / maxima[1]
        assert 2.8 <= factor <= 5.2


class TestCheckStencils:
    """A coefficient whose stencil entry overflows at the mesh is refused as
    a ConfigurationError that names the coefficients and the mesh, before
    the operator would be refused as a band with an inf entry."""

    @pytest.mark.parametrize("runner", [run_mi, run_wang])
    def test_runs_refuse_an_overflowing_alpha(self, monkeypatch, runner):
        prob = customized(EX3, alpha=1e307)
        g = build_grid(prob.x_l, prob.x_r, 16, 1.0, 100)
        monkeypatch.setattr(mi, "StepPlan", None)
        with pytest.raises(ConfigurationError) as err:
            runner(prob, g, SolverConfig())
        assert str(err.value) == (
            "the scheme's stencils overflow for alpha=1e+307, gamma=0.0, "
            f"theta=0.0, lambda=0.0 with tau=0.01 and h={g.h}")

    @pytest.mark.parametrize("name, value, L", [("alpha", -1e307, 2.0 * np.pi),
                                                ("theta", 1.7e308, 1.0)])
    def test_the_midpoint_table(self, name, value, L):
        # alpha / tau at tau = 0.01, and theta / h at h = 1/16.
        params = PdeParams(**dict(dict.fromkeys(("alpha", "gamma", "theta", "lam",
                                                 "beta"), 0.0), **{name: value}))
        g = build_grid(0.0, L, 16, 1.0, 100)
        assert not np.isfinite(np.array(mi._stencils(params, g))).all()
        problem = customized(builtin_problem("gauss_split"), **vars(params))
        with pytest.raises(ConfigurationError, match="stencils overflow") as err:
            mi.check_run(problem, g, SolverConfig(), 1, mi._stencils)
        assert f"{name}={value}," in str(err.value)

    def test_finite_tables_pass(self):
        g = build_grid(EX3.x_l, EX3.x_r, 200, 20.0, 400)
        for table in (mi._stencils, wang._stencils):
            assert mi.check_run(EX3, g, SolverConfig(), 1, table) is EX3.exact


class TestBootstrap:
    def test_taylor2_accuracy_example1(self):
        g = build_grid(0.0, 2.0 * np.pi, 256, 0.005 * 100, 100)   # tau = 0.005
        u0, u1 = bootstrap(EX1.f0, EX1.f1, EX1.params, g, mode="taylor2")
        assert np.max(np.abs(u1 - EX1.exact(g.nodes, g.tau))) <= 1e-6
        assert np.array_equal(u0, EX1.f0(g.nodes))

    def test_zero_velocity_small_tau_limit(self):
        p = PdeParams(alpha=-1.0, gamma=0.0, theta=0.0, lam=0.0, beta=1.0)
        f0 = lambda x: np.exp(1j * x)
        f1 = lambda x: np.zeros_like(x, dtype=complex)
        for tau in (1e-2, 1e-4):
            g = build_grid(0.0, 2.0 * np.pi, 64, tau * 10, 10)
            u0, u1 = bootstrap(f0, f1, p, g, mode="taylor2")
            # u1 - u0 = (tau^2/2) u_tt: second-order shrinkage
            assert np.max(np.abs(u1 - u0)) <= 2.0 * tau ** 2

    def test_exact_mode_samples_solution(self):
        prob = builtin_problem("nonlinear_plane")
        g = build_grid(prob.x_l, prob.x_r, 64, 1.0, 100)
        _, u1 = bootstrap(prob.f0, prob.f1, prob.params, g, mode="exact",
                          exact=prob.exact)
        assert np.array_equal(u1, prob.exact(g.nodes, g.tau))

    def test_exact_mode_requires_solution(self):
        # And, like every mode, a known one.
        prob = builtin_problem("gauss_split")
        g = build_grid(prob.x_l, prob.x_r, 64, 1.0, 100)
        for mode, message in (("exact", "'exact' needs the exact solution"),
                              ("taylor3", "unknown bootstrap mode 'taylor3'")):
            with pytest.raises(ConfigurationError, match=message):
                bootstrap(prob.f0, prob.f1, prob.params, g, mode=mode, exact=None)


class TestStepMi:
    def test_linear_one_step_accuracy(self):
        # beta = 0: one step from exact levels stays within 1e-6 of the
        # exact solution and the linear solve converges immediately.
        g = build_grid(0.0, 2.0 * np.pi, 256, 0.005 * 200, 200)
        up, uc, un_exact = exact_levels(EX1, g, 5)
        cfg = SolverConfig()
        sys_ = assemble_linear(EX1.params, g)
        u_next, iters = step_mi(StateWindow(up, uc), sys_,
                                EX1.params, g, cfg)
        assert iters == 1
        assert np.max(np.abs(u_next - un_exact)) <= 1e-6

    def test_zero_initial_data_stays_zero(self):
        p = PdeParams(alpha=-1.0, gamma=0.5, theta=1.0, lam=2.0, beta=2.0)
        g = build_grid(0.0, 2.0 * np.pi, 32, 1.0, 100)
        zero = np.zeros(32, dtype=complex)
        u_next, _ = step_mi(StateWindow(zero, zero), assemble_linear(p, g),
                            p, g, SolverConfig())
        assert np.all(u_next == 0.0)

    def test_step_residual_against_direct_oracle(self):
        # The accepted iterate satisfies the scheme as re-evaluated from
        # scratch by the brute-force oracle.
        g = build_grid(EX3.x_l, EX3.x_r, 200, 0.01 * 100, 100)
        up, uc, _ = exact_levels(EX3, g, 5)
        cfg = SolverConfig()
        sys_ = assemble_linear(EX3.params, g)
        u_next, iters = step_mi(StateWindow(up, uc), sys_,
                                EX3.params, g, cfg)
        assert iters >= 2
        resid = np.max(np.abs(mi_residual_direct(up, uc, u_next, EX3.params, g)))
        assert resid <= 1e-11

    def test_gauge_covariance(self, rng):
        # multiplying both window levels by a unit constant multiplies the
        # step result by the same constant
        g = build_grid(EX3.x_l, EX3.x_r, 64, 1.0, 100)
        cfg = SolverConfig()
        sys_ = assemble_linear(EX3.params, g)
        solver = PreparedCyclicSolver(sys_)
        for _ in range(10):
            up = np.exp(1j * g.nodes) * (1.0 + 0.1 * rng.normal(size=64))
            uc = up * np.exp(1j * 0.05)
            c = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            u1, _ = step_mi(StateWindow(up, uc), solver, EX3.params, g, cfg)
            u2, _ = step_mi(StateWindow(c * up, c * uc), solver,
                            EX3.params, g, cfg)
            assert np.max(np.abs(u2 - c * u1)) <= 1e-12 * max(1.0, np.max(np.abs(u1)))

    def test_nonconvergence_raises(self):
        g = build_grid(EX3.x_l, EX3.x_r, 64, 1.0, 100)
        up, uc, _ = exact_levels(EX3, g, 5)
        cfg = SolverConfig(fp_max_iter=1)
        with pytest.raises(StepFailureError) as err:
            step_mi(StateWindow(up, uc), assemble_linear(EX3.params, g),
                    EX3.params, g, cfg)
        assert err.value.residual is not None


class TestRunMi:
    def test_minimal_run_bookkeeping(self):
        g = build_grid(EX1.x_l, EX1.x_r, 64, 0.02, 2)
        traj = run_mi(EX1, g, SolverConfig(), snapshot_stride=1)
        assert isinstance(traj, Trajectory)
        assert len(traj.series["step"]) == 1   # J - 1 steps
        assert traj.series["step"][0] == 2
        assert len(traj.snapshots) == 3      # two bootstrap levels + one step
        times = [t for t, _ in traj.snapshots]
        assert times == sorted(times)

    @pytest.mark.parametrize("stride", [0, 2.5, True])
    def test_non_integral_snapshot_stride_rejected(self, stride):
        # 2.5 would keep the steps with j % 2.5 == 0 and True would run as 1.
        g = build_grid(EX1.x_l, EX1.x_r, 64, 0.02, 2)
        with pytest.raises(ConfigurationError) as err:
            run_mi(EX1, g, SolverConfig(), snapshot_stride=stride)
        assert "snapshot_stride" in str(err.value)

    def test_snapshot_count_formula(self):
        g = build_grid(EX1.x_l, EX1.x_r, 64, 1.0, 100)
        stride = 7
        traj = run_mi(EX1, g, SolverConfig(), snapshot_stride=stride)
        assert len(traj.snapshots) == (g.J - 1) // stride + 2

    def test_conservation_beta_zero(self):
        # explicit-conservation case: both invariants frozen to round-off
        g = build_grid(EX1.x_l, EX1.x_r, 64, 10.0, 1000)
        traj = run_mi(EX1, g, SolverConfig())
        e0, q0 = traj.meta["energy_ref"], traj.meta["mass_ref"]
        e_drift = np.abs(traj.series["energy_mi"] - e0).max() / abs(e0)
        q_drift = np.abs(traj.series["mass_mi"] - q0).max() / abs(q0)
        assert e_drift <= 1e-10
        assert q_drift <= 1e-10
        # beta = 0: the identity right-hand sides vanish identically
        assert (traj.series["fp_iters"] == 1).all()

    def test_error_metrics_recorded(self):
        g = build_grid(EX1.x_l, EX1.x_r, 64, 1.0, 100)
        traj = run_mi(EX1, g, SolverConfig())
        assert "err_max" in traj.series
        assert traj.series["err_max"][-1] < 1e-2

    def test_gauge_covariance_of_whole_run(self):
        # phase-rotated initial data propagates to a phase-rotated run
        prob = EX3
        g = build_grid(prob.x_l, prob.x_r, 50, 0.2, 20)
        cfg = SolverConfig()
        c = np.exp(0.7j)
        traj1 = run_mi(prob, g, cfg, snapshot_stride=g.J)
        import dataclasses
        rotated = dataclasses.replace(prob, name="rotated",
                                      f0=lambda x: c * prob.f0(x),
                                      f1=lambda x: c * prob.f1(x),
                                      exact=None, exactness="none")
        traj2 = run_mi(rotated, g, cfg, snapshot_stride=g.J)
        u1 = traj1.snapshots[-1][1]
        u2 = traj2.snapshots[-1][1]
        assert np.max(np.abs(u2 - c * u1)) <= 1e-12 * max(1.0, np.max(np.abs(u1)))

    def test_second_order_space_and_time(self):
        # two-sided order on the linear problem: halve h at fixed small tau,
        # then halve tau at fixed small h
        cfg = SolverConfig()
        errs_h = []
        for K in (32, 64):
            g = build_grid(EX1.x_l, EX1.x_r, K, 1.0, 2000)
            traj = run_mi(EX1, g, cfg, snapshot_stride=g.J)
            errs_h.append(traj.series["err_max"].max())
        assert 2.8 <= errs_h[0] / errs_h[1] <= 5.2
        errs_t = []
        for J in (50, 100):
            g = build_grid(EX1.x_l, EX1.x_r, 1024, 1.0, J)
            traj = run_mi(EX1, g, cfg, snapshot_stride=g.J)
            errs_t.append(traj.series["err_max"].max())
        assert 2.8 <= errs_t[0] / errs_t[1] <= 5.2

    @pytest.mark.parametrize("runner", [run_mi, run_wang])
    @pytest.mark.parametrize("K, J, stride", [(10 ** 9, 10, 100), (64, 10 ** 9, 1)])
    def test_run_beyond_memory_cap_refused_before_allocating(self, runner, K, J,
                                                             stride):
        # Refused from K, J and the stride alone: nothing of size K or J is
        # allocated first, not even the operator.
        g = build_grid(EX3.x_l, EX3.x_r, K, 1.0, J)
        with pytest.raises(ConfigurationError) as err:
            runner(EX3, g, SolverConfig(), snapshot_stride=stride)
        held = mi.held_bytes(g, stride)
        assert held > mi.MEMORY_CAP_BYTES
        assert f"would hold {held} bytes" in str(err.value)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), J=st.integers(2, 60))
    def test_snapshots_hold_the_stride_levels_and_the_last(self, data, J):
        # Level n at t = n tau for each n that the stride divides, then
        # level J, which is last; held_bytes counts the same levels.
        stride = data.draw(st.integers(1, J + 3), label="stride")
        g = build_grid(EX1.x_l, EX1.x_r, 8, 0.01 * J, J)
        every = run_mi(EX1, g, SolverConfig(), snapshot_stride=1).snapshots
        kept = [n for n in range(J + 1) if n % stride == 0 or n == J]
        snapshots = run_mi(EX1, g, SolverConfig(), snapshot_stride=stride).snapshots
        assert [t for t, _ in snapshots] == [n * g.tau for n in kept]
        assert all(u.tobytes() == every[n][1].tobytes()
                   for n, (_, u) in zip(kept, snapshots))
        count = (J - 1) // stride + 2
        assert len(snapshots) == count
        assert mi.held_bytes(g, stride) - mi.held_bytes(g, J + 1) == \
            (16 * g.K + mi.SNAPSHOT_OBJECT_BYTES) * (count - 2)

    @pytest.mark.parametrize("runner", [run_mi, run_wang])
    def test_held_bytes_covers_what_a_run_holds(self, runner):
        g = build_grid(EX3.x_l, EX3.x_r, 64, 0.3, 30)
        traj = runner(EX3, g, SolverConfig(), snapshot_stride=1)
        buffer = (max(1, BLOCK_VALUES // g.K) + 1) * g.K * 16
        held = (buffer + sum(u.nbytes for _, u in traj.snapshots)
                + sum(column.nbytes for column in traj.series.values()))
        assert held <= mi.held_bytes(g, 1) <= 2 * held

    @pytest.mark.parametrize("scheme, assemble", [(mi, assemble_linear),
                                                  (wang, wang.assemble_wang)],
                             ids=["mi", "wang"])
    def test_plan_bytes_per_node_are_what_a_plan_holds(self, scheme, assemble):
        # What a StepPlan and its solver hold once built, traced at two sizes
        # so that the parts of fixed size cancel: the midpoint scheme's plan
        # holds PLAN_BYTES_PER_NODE a node, the energy-preserving one's less.
        # The garbage of earlier tests is collected before each build, and
        # no collection runs during it, so the count holds the plan alone
        # but for the interpreter's caches: a window may keep or free an
        # object of fixed size, such as the 57-byte name string "setflags"
        # that numpy's flags setter makes and the type attribute cache
        # holds, under a byte a node over the 2,000 nodes between the sizes.
        # So the figure is compared in whole bytes; every buffer of the plan
        # adds at least 4.
        held = []
        for K in (1000, 3000):
            g = build_grid(EX3.x_l, EX3.x_r, K, 1.0, 10)
            gc.collect()
            gc.disable()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                plan = StepPlan(assemble(EX3.params, g), EX3.params, g,
                                scheme._stencils, scheme._cubic)
                held.append(tracemalloc.get_traced_memory()[0] - before)
            finally:
                tracemalloc.stop()
                gc.enable()
            del plan
        per_node = round((held[1] - held[0]) / 2000)
        assert per_node <= mi.PLAN_BYTES_PER_NODE, held
        if scheme is mi:
            assert per_node == mi.PLAN_BYTES_PER_NODE, held

    # The energy-preserving cubic holds two float buffers where the midpoint
    # one holds its cubes, their abs2 and the lagged sum: 16 bytes a node
    # against 40.
    @pytest.mark.parametrize("scheme, assemble, per_node",
                             [(mi, assemble_linear, mi.PLAN_BYTES_PER_NODE),
                              (wang, wang.assemble_wang, mi.PLAN_BYTES_PER_NODE - 24)],
                             ids=["mi", "wang"])
    def test_plan_bytes_per_node_are_exact(self, scheme, assemble, per_node):
        # The arrays a built plan owns, summed exactly at two sizes so that
        # the parts of fixed size cancel.
        held = []
        for K in (1000, 3000):
            g = build_grid(EX3.x_l, EX3.x_r, K, 1.0, 10)
            held.append(owned_bytes(StepPlan(assemble(EX3.params, g), EX3.params, g,
                                             scheme._stencils, scheme._cubic)))
        assert held[1] - held[0] == 2000 * per_node

    @pytest.mark.parametrize("runner", [run_mi, run_wang])
    def test_a_run_peaks_at_what_held_bytes_counts(self, runner):
        # The traced peak of a whole run, per node between two sizes so that
        # the parts of fixed size cancel, is at most the count and within
        # 10 % of it.  Both sizes are at least BLOCK_VALUES, so a block is
        # one pair, and at least numpy's 8192-element casting buffer.
        prob = builtin_problem("gauss_split")
        peaks, counts = [], []
        for K in (8192, 16384):
            g = build_grid(prob.x_l, prob.x_r, K, 0.04, 4)
            tracemalloc.start()
            try:
                runner(prob, g, SolverConfig(), snapshot_stride=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            counts.append(mi.held_bytes(g, 1))
        per_node = (peaks[1] - peaks[0]) / 8192
        count = (counts[1] - counts[0]) / 8192
        assert 0.9 * count <= per_node <= count

    @pytest.mark.parametrize("runner", [run_mi, run_wang])
    def test_small_k_run_peaks_at_what_held_bytes_counts_per_step(self, runner):
        # At K = 4 and stride 1 a step's snapshot objects outweigh its 64
        # bytes of values.  The traced peak's growth per step between two
        # values of J is at most the count's and within 10 % of it, on a
        # problem with a verified solution, so that every series column the
        # count holds is filled.  A warm-up run fills the caches first.
        peaks, counts = [], []
        for J in (2000, 4000):
            g = build_grid(EX3.x_l, EX3.x_r, 4, 0.001 * J, J)
            runner(EX3, g, SolverConfig(), snapshot_stride=1)
            tracemalloc.start()
            try:
                runner(EX3, g, SolverConfig(), snapshot_stride=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            counts.append(mi.held_bytes(g, 1))
        per_step = (peaks[1] - peaks[0]) / 2000
        count = (counts[1] - counts[0]) / 2000
        assert 0.9 * count <= per_step <= count, (peaks, counts)

    @pytest.mark.parametrize("runner", [run_mi, run_wang])
    def test_a_run_enters_its_floating_point_policy_once(self, monkeypatch, runner):
        # integrate enters quiet_overflow around the whole run; its steps go
        # through the run's StepPlan and do not enter it again.
        entered = []
        original = mi.quiet_overflow

        def counted():
            entered.append(None)
            return original()
        monkeypatch.setattr(mi, "quiet_overflow", counted)
        g = build_grid(EX3.x_l, EX3.x_r, 32, 0.2, 20)
        traj = runner(EX3, g, SolverConfig())
        assert traj.meta["total_fp_iters"] > g.J - 1
        assert len(entered) == 1

    def test_step_failure_carries_step_index(self):
        g = build_grid(EX3.x_l, EX3.x_r, 64, 1.0, 100)
        with pytest.raises(StepFailureError) as err:
            run_mi(EX3, g, SolverConfig(fp_max_iter=1))
        assert err.value.step == 2


def _noisy_mean(monkeypatch, call, row):
    """Patch diagnostics.half_nodes so that on its call-th call (0 is the
    bootstrap pair) the temporal mean of the given row is noise, which trips
    the energy's realness guard there (theta != 0)."""
    original = diagnostics.half_nodes
    calls = []

    def noisy(u_cur, u_next, grid):
        half = original(u_cur, u_next, grid)
        mid = half[1]
        if len(calls) == call and len(mid) > row:
            rng = np.random.default_rng(row)
            mid[row] = rng.normal(size=grid.K) + 1j * rng.normal(size=grid.K)
        calls.append(len(mid))
        return half
    monkeypatch.setattr(diagnostics, "half_nodes", noisy)


class TestBlockedDiagnostics:
    """integrate evaluates the diagnostics B = BLOCK_VALUES // K levels at a
    time; a failure still names the step, and is the failure, that a
    step-by-step evaluation would have met first."""

    def grid(self):
        # K = 64: blocks of 64 steps, so steps 2..100 are blocks of 64 and 35.
        return build_grid(EX1.x_l, EX1.x_r, 64, 1.0, 100)

    def test_guard_failure_mid_block_names_its_step(self, monkeypatch):
        g = self.grid()
        block = BLOCK_VALUES // g.K
        _noisy_mean(monkeypatch, call=2, row=5)
        with pytest.raises(ConsistencyError, match="energy") as err:
            run_mi(EX1, g, SolverConfig())
        assert err.value.row == 5
        assert err.value.step == 2 + block + 5

    def test_guard_failure_on_bootstrap_pair_names_step_1(self, monkeypatch):
        # The pair (u^0, u^1) is evaluated before the loop, for meta's
        # references: its failure names level 1, the bootstrap's.
        _noisy_mean(monkeypatch, call=0, row=0)
        with pytest.raises(ConsistencyError, match="energy") as err:
            run_mi(EX1, self.grid(), SolverConfig())
        assert err.value.step == 1

    def test_step_failure_reports_pending_guard_failure_first(self, monkeypatch):
        g = self.grid()
        original = mi.step_mi
        calls = []

        def failing(window, *args):
            # The tenth step produces level 11.
            calls.append(None)
            if len(calls) >= 10:
                raise StepFailureError("injected")
            return original(window, *args)
        monkeypatch.setattr(mi, "step_mi", failing)
        with pytest.raises(StepFailureError) as err:
            run_mi(EX1, g, SolverConfig())
        assert err.value.step == 11
        # The same failure with a guard failure at step 5 pending.
        calls.clear()
        _noisy_mean(monkeypatch, call=1, row=3)
        with pytest.raises(ConsistencyError) as err:
            run_mi(EX1, g, SolverConfig())
        assert err.value.step == 5

    @settings(max_examples=40, deadline=None)
    @given(theta=coefficient.filter(bool), gamma=gamma_coefficient.filter(bool),
           K=sizes, tau=time_steps, n=st.integers(1, 12), seed=seeds, data=st.data())
    def test_both_guards_flag_the_same_first_row(self, theta, gamma, K, tau, n,
                                                  seed, data):
        # The premise of integrate's failure rule: the energy's guard
        # (theta != 0) and the mass's (gamma != 0) test the one cached
        # HalfNodes.skew of a stack against one threshold, so whatever rows
        # are broken, both name the same first row.
        planted = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True),
                            label="planted")
        g = periodic_grid(K, tau)
        rng = np.random.default_rng(seed)
        u_cur, u_next, noise = (rng.normal(size=(n, K)) + 1j * rng.normal(size=(n, K))
                                for _ in range(3))
        half = diagnostics.half_nodes(u_cur, u_next, g)
        # Noise in the mean before skew is first read, so it enters the sum.
        half[1][planted] = noise[planted]
        params = PdeParams(alpha=0.5, gamma=gamma, theta=theta, lam=0.5, beta=1.0)
        for invariant in (diagnostics.mi_energy, diagnostics.mi_mass):
            with pytest.raises(ConsistencyError) as err:
                invariant(u_cur, u_next, params, g, half=half)
            assert err.value.row == min(planted)


@pytest.mark.parametrize("runner", [run_mi, run_wang])
def test_non_finite_taylor2_level_fails_as_step_1(runner):
    # beta |u|^2 u overflows in u_tt, so u^1 is not finite: the bootstrap
    # refuses it, before any step's Picard sweep meets it.
    problem = customized(builtin_problem("plane_beta2"), beta=1e308)
    grid = build_grid(problem.x_l, problem.x_r, 16, problem.default_T, 10)
    with pytest.raises(DivergenceError, match="bootstrap") as err:
        runner(problem, grid, SolverConfig())
    assert err.value.step == 1
