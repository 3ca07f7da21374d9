"""The Picard sweep both schemes share (mi.picard): its starting guess, its
failure paths, its early verdict, and its bits against the allocating
reference loop of tests/oracles.py.

The iteration starts from the quadratic extrapolation
3 u^j - 3 u^{j-1} + u^{j-2} when the window carries u^{j-2}, and from the
linear 2 u^j - u^{j-1} otherwise.  The start changes only where the
iteration stops, so both starts must land on the same level to within the
stopping tolerance, and a run's first step, which has no u^{j-2}, must be
bit for bit the step of the linear-start loop.
"""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nlsw import (DivergenceError, PdeParams, PreparedCyclicSolver,
                  SingularSystemError, SolverConfig, StateWindow, StepFailureError,
                  UsageError, assemble_linear, assemble_wang, bootstrap, build_grid,
                  builtin_problem, customized, run_mi, run_wang, step_mi, step_wang)
from nlsw import linsolve, mi, wang

import test_linsolve
from oracles import picard_reference
from strategies import (coefficient, gamma_coefficient, levels, periodic_grid,
                        seeds, sizes, special_coefficient, special_entry,
                        time_steps)

PLANE = builtin_problem("plane_beta2")

SCHEMES = {"mi": (step_mi, assemble_linear), "wang": (step_wang, assemble_wang)}


def earlier_level(seed, u_prev):
    """u^{j-2} for strategies.levels: u^{j-1} rotated and perturbed as
    u^{j-1} is from u^j."""
    rng = np.random.default_rng([seed, 2])
    noise = rng.normal(size=u_prev.shape) + 1j * rng.normal(size=u_prev.shape)
    return u_prev * np.exp(0.05j) + 0.05 * noise


@settings(max_examples=60, deadline=None)
@given(scheme=st.sampled_from(sorted(SCHEMES)), alpha=coefficient,
       gamma=gamma_coefficient, theta=coefficient, lam=coefficient,
       beta=coefficient, K=sizes, tau=time_steps, seed=seeds)
def test_quadratic_start_lands_on_linear_start_level(scheme, alpha, gamma, theta,
                                                     lam, beta, K, tau, seed):
    step, assemble = SCHEMES[scheme]
    if scheme == "wang":
        gamma = theta = lam = 0.0
    params = PdeParams(alpha=alpha, gamma=gamma, theta=theta, lam=lam, beta=beta)
    grid = periodic_grid(K, tau)
    u_prev, u_cur = levels(seed, K)
    solver = PreparedCyclicSolver(assemble(params, grid))
    config = SolverConfig()
    linear, _ = step(StateWindow(u_prev, u_cur), solver, params, grid, config)
    quadratic, _ = step(StateWindow(u_prev, u_cur, earlier_level(seed, u_prev)),
                        solver, params, grid, config)
    scale = max(1.0, float(np.abs(linear).max()))
    assert np.abs(quadratic - linear).max() <= 10 * config.fp_tol * scale


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_quadratic_start_saves_sweeps_on_a_smooth_solution(scheme):
    step, assemble = SCHEMES[scheme]
    grid = build_grid(PLANE.x_l, PLANE.x_r, 200, 20.0, 400)
    u = [PLANE.exact(grid.nodes, j * grid.tau) for j in (3, 4, 5)]
    solver = PreparedCyclicSolver(assemble(PLANE.params, grid))
    _, linear = step(StateWindow(u[1], u[2]), solver, PLANE.params, grid,
                     SolverConfig())
    _, quadratic = step(StateWindow(u[1], u[2], u[0]), solver, PLANE.params,
                        grid, SolverConfig())
    assert quadratic < linear


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_first_step_of_a_run_is_the_linear_start_step(scheme):
    step, assemble = SCHEMES[scheme]
    runner = run_mi if scheme == "mi" else run_wang
    grid = build_grid(PLANE.x_l, PLANE.x_r, 64, 0.15, 3)
    config = SolverConfig()
    traj = runner(PLANE, grid, config, snapshot_stride=1)
    (_, u0), (_, u1), (_, u2) = traj.snapshots[:3]
    expected, sweeps = picard_reference(
        StateWindow(u0, u1), PreparedCyclicSolver(assemble(PLANE.params, grid)),
        PLANE.params, grid, config, scheme)
    assert u2.tobytes() == expected.tobytes()
    assert traj.series["fp_iters"][0] == sweeps


def outcome(step):
    """(bytes of the level, sweeps) of a step, or the type and message of
    its StepFailureError (DivergenceError included) or SingularSystemError."""
    try:
        u, sweeps = step()
    except (StepFailureError, SingularSystemError) as exc:
        return type(exc), str(exc)
    return u.tobytes(), sweeps


@settings(max_examples=80, deadline=None)
@given(scheme=st.sampled_from(sorted(SCHEMES)), alpha=coefficient,
       gamma=gamma_coefficient, theta=coefficient, lam=coefficient,
       beta=coefficient, K=sizes, tau=time_steps, seed=seeds, quadratic=st.booleans())
def test_step_is_the_reference_loop_bit_for_bit(scheme, alpha, gamma, theta, lam, beta,
                                                K, tau, seed, quadratic):
    # The step writes the cubic term, the right-hand side and the update
    # into buffers and takes max|u| only when the update could pass; the
    # reference allocates every temporary and takes max|u| on every sweep.
    step, assemble = SCHEMES[scheme]
    if scheme == "wang":
        gamma = theta = lam = 0.0
    params = PdeParams(alpha=alpha, gamma=gamma, theta=theta, lam=lam, beta=beta)
    grid = periodic_grid(K, tau)
    u_prev, u_cur = levels(seed, K)
    window = StateWindow(u_prev, u_cur,
                         earlier_level(seed, u_prev) if quadratic else None)
    solver = PreparedCyclicSolver(assemble(params, grid))
    config = SolverConfig()
    assert outcome(lambda: step(window, solver, params, grid, config)) == outcome(
        lambda: picard_reference(window, solver, params, grid, config, scheme))


# Components whose cubes overflow, a few of which a special level carries.
HUGE = (1e200, -1e200, 1e200j, -1e200 - 1e200j)


@st.composite
def special_levels(draw, K):
    """(u^{j-2}, u^{j-1}, u^j) of strategies.special_entry values on a
    background of signed zeros, with up to two of their entries set to
    HUGE values."""
    zero = st.builds(complex, st.sampled_from((0.0, -0.0)), st.sampled_from((0.0, -0.0)))
    levels = draw(hnp.arrays(np.complex128, (3, K), elements=special_entry, fill=zero))
    for index in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, K - 1)),
                               max_size=2)):
        levels[index] = draw(st.sampled_from(HUGE))
    return levels


@settings(max_examples=80, deadline=None)
@given(data=st.data(), scheme=st.sampled_from(sorted(SCHEMES)),
       alpha=special_coefficient, gamma=gamma_coefficient,
       theta=special_coefficient, lam=special_coefficient,
       beta=st.one_of(st.sampled_from((0.0, -0.0)), coefficient),
       K=st.integers(4, 12), tau=time_steps, quadratic=st.booleans())
def test_step_is_the_reference_loop_on_special_values(data, scheme, alpha, gamma,
                                                      theta, lam, beta, K, tau,
                                                      quadratic):
    # Whole steps on levels with zeros of both signs, subnormals and
    # entries whose cubes overflow: every maximum, sign flip and sweep
    # decision the step makes through its buffers gives the reference's
    # level and sweep count, or its error and message.
    step, assemble = SCHEMES[scheme]
    if scheme == "wang":
        gamma = theta = lam = 0.0
    params = PdeParams(alpha=alpha, gamma=gamma, theta=theta, lam=lam, beta=beta)
    grid = periodic_grid(K, tau)
    u_prev2, u_prev, u_cur = data.draw(special_levels(K))
    window = StateWindow(u_prev, u_cur, u_prev2 if quadratic else None)
    solver = PreparedCyclicSolver(assemble(params, grid))
    config = SolverConfig()
    with mi.quiet_overflow():
        expected = outcome(
            lambda: picard_reference(window, solver, params, grid, config, scheme))
    assert outcome(lambda: step(window, solver, params, grid, config)) == expected


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_exact_peak_decides_an_update_between_tol_and_tol_times_peak(scheme):
    # fp_tol is set so that sweep m's update d lies strictly inside
    # (fp_tol, fp_tol * max|u|] with max|u| = sqrt(3): only the exact peak
    # lets the step stop there, and every earlier sweep must go on.
    step, assemble = SCHEMES[scheme]
    grid = build_grid(PLANE.x_l, PLANE.x_r, 200, 20.0, 400)
    u = [PLANE.exact(grid.nodes, j * grid.tau) for j in (3, 4, 5)]
    window = StateWindow(u[1], u[2], u[0])
    solver = PreparedCyclicSolver(assemble(PLANE.params, grid))
    trace = []
    picard_reference(window, solver, PLANE.params, grid, SolverConfig(), scheme, trace)
    m = len(trace) - 1
    d, peak = trace[m - 1]
    config = SolverConfig(fp_tol=d / np.sqrt(peak))
    assert config.fp_tol < d <= config.fp_tol * peak
    assert all(diff > config.fp_tol * max(1.0, p) for diff, p in trace[:m - 1])
    level, sweeps = step(window, solver, PLANE.params, grid, config)
    expected, expected_sweeps = picard_reference(window, solver, PLANE.params, grid,
                                                 config, scheme)
    assert sweeps == expected_sweeps == m
    assert level.tobytes() == expected.tobytes()


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("with_prev2", [False, True])
def test_overflowing_cubic_is_divergence_in_sweep_one(scheme, with_prev2):
    # |u|^2 u overflows at |u| = 1e110, so the first sweep's right-hand side
    # is not finite; the solve reports that as a singular system, which the
    # sweep turns back into the divergence it is.
    step, assemble = SCHEMES[scheme]
    grid = build_grid(PLANE.x_l, PLANE.x_r, 32, 1.0, 100)
    big = np.full(32, 1e110, dtype=complex)
    window = StateWindow(big, big, big if with_prev2 else None)
    with pytest.raises(DivergenceError) as err:
        step(window, assemble(PLANE.params, grid), PLANE.params, grid, SolverConfig())
    assert "non-finite nonlinear term in sweep 1" in str(err.value)
    assert err.value.__cause__ is None and err.value.__suppress_context__


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_overflowing_solve_of_a_finite_rhs_stays_singular(scheme):
    # h = tau = 1e150 makes every operator entry 1e-150 or smaller, so a
    # finite right-hand side of 1e300 solves to beyond the float range.  K is
    # odd, since the midpoint operator is singular at the K/2 mode here.
    step, assemble = SCHEMES[scheme]
    grid = build_grid(0.0, 9e150, 9, 1e152, 100)
    u = np.full(9, 1e100, dtype=complex)
    with pytest.raises(SingularSystemError) as err:
        step(StateWindow(u, u), assemble(PLANE.params, grid), PLANE.params,
             grid, SolverConfig())
    assert "cyclic solve overflowed" in str(err.value)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_stalled_iteration_stops_early(scheme):
    # fp_tol = 1e-18 lies below the round-off floor of the updates (about
    # 4.4e-16 on this mesh), so no sweep can meet it; the budget of 100
    # sweeps would be spent on round-off.
    runner = run_mi if scheme == "mi" else run_wang
    grid = build_grid(PLANE.x_l, PLANE.x_r, 200, 20.0, 400)
    with pytest.raises(StepFailureError) as err:
        runner(PLANE, grid, SolverConfig(fp_tol=1e-18))
    assert type(err.value) is StepFailureError
    assert err.value.step == 2
    message = str(err.value)
    assert "fixed point stalled in sweep" in message
    sweep = int(message.split("stalled in sweep ")[1].split(":")[0])
    assert sweep <= 15
    assert f"{mi.STALL_SWEEPS} sweeps without a smaller update" in message
    assert message.endswith(f", {err.value.residual:.3e})")
    assert err.value.residual < 1e-14


def test_stall_verdict_comes_before_the_budget():
    # The first step of the run above: a budget one short of the sweep that
    # gives the stall verdict ends with the budget message instead.
    grid = build_grid(PLANE.x_l, PLANE.x_r, 200, 20.0, 400)
    window = StateWindow(*bootstrap(PLANE.f0, PLANE.f1, PLANE.params, grid))
    solver = PreparedCyclicSolver(assemble_linear(PLANE.params, grid))
    with pytest.raises(StepFailureError) as err:
        step_mi(window, solver, PLANE.params, grid, SolverConfig(fp_tol=1e-18))
    stalled_in = int(str(err.value).split("stalled in sweep ")[1].split(":")[0])
    with pytest.raises(StepFailureError) as err:
        step_mi(window, solver, PLANE.params, grid,
                SolverConfig(fp_tol=1e-18, fp_max_iter=stalled_in - 1))
    assert f"not converged after {stalled_in - 1} sweeps" in str(err.value)


def _arrays(*owners):
    """The arrays among the attributes of owners, and in their lists."""
    for owner in owners:
        for value in vars(owner).values():
            for item in value if isinstance(value, (list, tuple)) else (value,):
                if isinstance(item, np.ndarray):
                    yield item


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("beta", [0.0, PLANE.params.beta])
def test_run_levels_are_standalone_steps_in_fresh_arrays(monkeypatch, scheme, beta):
    # A run steps through one StepPlan and a step called on its own builds
    # one for the call: level j+1 of a run must be, to the bit and the sweep,
    # the standalone step on the same window, and no level a run returns may
    # share memory with a later one or with the plan's and solver's buffers.
    step, assemble = SCHEMES[scheme]
    module, name = (mi, "step_mi") if scheme == "mi" else (wang, "_step_wang")
    runner = run_mi if scheme == "mi" else run_wang
    problem = customized(PLANE, beta=beta)
    grid = build_grid(problem.x_l, problem.x_r, 32, 0.6, 12)
    config = SolverConfig()
    calls = []
    original = getattr(module, name)

    def recorded(window, plan, *args):
        u_next, sweeps = original(window, plan, *args)
        calls.append((window, plan, u_next, sweeps))
        return u_next, sweeps
    monkeypatch.setattr(module, name, recorded)
    runner(problem, grid, config)
    assert len(calls) == grid.J - 1
    assert len({id(plan) for _, plan, _, _ in calls}) == 1
    plan = calls[0][1]
    scratch = list(_arrays(plan, plan.solver))
    levels = [u_next for _, _, u_next, _ in calls]
    for i, (window, _, u_next, sweeps) in enumerate(calls):
        alone, alone_sweeps = step(window, assemble(problem.params, grid),
                                   problem.params, grid, config)
        assert (alone.tobytes(), alone_sweeps) == (u_next.tobytes(), sweeps)
        assert (sweeps == 1) == (beta == 0.0)
        for other in levels[i + 1:] + scratch:
            assert not np.shares_memory(u_next, other)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("beta", [0.0, PLANE.params.beta])
def test_step_refuses_a_stack_of_levels(scheme, beta):
    # The step is 1-D: as_field refuses a [B, K] window as a usage error at
    # either beta, before the plan's level buffers would reject it.
    step, assemble = SCHEMES[scheme]
    problem = customized(PLANE, beta=beta)
    grid = build_grid(problem.x_l, problem.x_r, 16, 1.0, 100)
    stack = np.ones((2, 16), dtype=complex)
    with pytest.raises(UsageError, match="must be 1-D"):
        step(StateWindow(stack, stack), assemble(problem.params, grid),
             problem.params, grid, SolverConfig())


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("beta", [0.0, PLANE.params.beta])
@pytest.mark.parametrize("slot", ["u_prev", "u_cur", "u_prev2"])
def test_step_refuses_a_nan_level(scheme, beta, slot):
    # A step called on its own checks its window with as_field, so a NaN in
    # any of its levels is a usage error, not a solver failure of the sweep
    # or the solve it would run into.
    step, assemble = SCHEMES[scheme]
    problem = customized(PLANE, beta=beta)
    grid = build_grid(problem.x_l, problem.x_r, 16, 1.0, 100)
    window = {name: np.exp(1j * grid.nodes) for name in ("u_prev", "u_cur", "u_prev2")}
    window[slot][3] = np.nan
    with pytest.raises(UsageError, match="NaN/Inf"):
        step(StateWindow(window["u_prev"], window["u_cur"], window["u_prev2"]),
             assemble(problem.params, grid), problem.params, grid, SolverConfig())


PLANTED_SWEEP = 2


def planted_plan(scheme, position, value, rhs_value=None):
    """(window, a run's StepPlan, the grid) of a plane_beta2 step at
    K = TestFinitenessRule.K, whose solve result in sweep PLANTED_SWEEP
    carries value at position: the plan's core solve stands in for gttrs as
    TestFinitenessRule's does, and gives gttrs' own result there.  With
    rhs_value, every N(u) from that sweep on carries it too, so that the
    right-hand side, and known + N(u) evaluated again, are not finite."""
    _, assemble = SCHEMES[scheme]
    module = mi if scheme == "mi" else wang
    grid = build_grid(PLANE.x_l, PLANE.x_r, test_linsolve.TestFinitenessRule.K, 1.0, 100)
    plan = mi.StepPlan(assemble(PLANE.params, grid), PLANE.params, grid,
                       module._stencils, module._cubic)
    core_solve, solves = plan.solver._core_solve, itertools.count(1)

    def planted(b, **kwargs):
        y, info = core_solve(b, **kwargs)
        if next(solves) == PLANTED_SWEEP:
            y[position] = value
        return y, info
    plan.solver._core_solve = planted
    if rhs_value is not None:
        nonlinear, terms = plan.nonlinear, itertools.count(1)

        def planted_nonlinear(u):
            term = nonlinear(u)
            if next(terms) >= PLANTED_SWEEP:
                term[position] = rhs_value
            return term
        plan.nonlinear = planted_nonlinear
    u = [PLANE.exact(grid.nodes, j * grid.tau) for j in (3, 4, 5)]
    return StateWindow(u[1], u[2], u[0]), plan, grid


class TestSweepFinitenessRule:
    """A sweep solves in place, unchecked, and picard reads a non-finite
    result off the sweep's maximum update, refusing it by the allocating
    solve's rule: SingularSystemError for a finite right-hand side,
    DivergenceError naming the sweep for a non-finite one.  Each case steps
    on a run's plan under the run's policy, where no floating-point warning
    may be raised."""

    K = test_linsolve.TestFinitenessRule.K
    NON_FINITE = test_linsolve.TestFinitenessRule.NON_FINITE
    POSITIONS = [0, 1, K // 2, K - 1]

    @staticmethod
    def refusal(scheme, window, plan, grid):
        """The error a step on the plan raises, under the run's policy and
        with a floating-point warning made an error."""
        step, _ = SCHEMES[scheme]
        with mi.quiet_overflow(), warnings.catch_warnings(), \
                pytest.raises((SingularSystemError, StepFailureError)) as err:
            warnings.simplefilter("error")
            step(window, plan, PLANE.params, grid, SolverConfig())
        return err.value

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("position", POSITIONS)
    def test_finite_rhs_gives_the_solvers_overflow(self, scheme, value, position):
        window, plan, grid = planted_plan(scheme, position, value)
        error = self.refusal(scheme, window, plan, grid)
        assert (type(error), str(error)) == (SingularSystemError, linsolve.OVERFLOWED)
        # The allocating reference loop, on a solver planted alike, refuses
        # the same sweep with the same error.
        reference_plan = planted_plan(scheme, position, value)[1]
        with mi.quiet_overflow():
            assert outcome(lambda: picard_reference(
                window, reference_plan.solver, PLANE.params, grid, SolverConfig(),
                scheme)) == (SingularSystemError, linsolve.OVERFLOWED)

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("position", POSITIONS)
    def test_non_finite_rhs_gives_divergence_in_its_sweep(self, scheme, value, position):
        window, plan, grid = planted_plan(scheme, position, value, rhs_value=value)
        error = self.refusal(scheme, window, plan, grid)
        assert type(error) is DivergenceError
        assert f"non-finite nonlinear term in sweep {PLANTED_SWEEP}" in str(error)
        assert error.__cause__ is None and error.__suppress_context__


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_a_planned_step_holds_one_level(scheme):
    # The sweeps solve in the plan's two iterate buffers, so a step on a
    # run's plan allocates only the copy of the level it returns: 16 bytes
    # a node, where a solve into a fresh array would hold two levels at
    # once.  The constant covers the step's Python objects.
    step, assemble = SCHEMES[scheme]
    module = mi if scheme == "mi" else wang
    problem = builtin_problem("gauss_split")
    K = 4096
    grid = build_grid(problem.x_l, problem.x_r, K, 0.1, 10)
    plan = mi.StepPlan(assemble(problem.params, grid), problem.params, grid,
                       module._stencils, module._cubic)
    u0, u1 = bootstrap(problem.f0, problem.f1, problem.params, grid)
    window = StateWindow(u0, u1)
    with mi.quiet_overflow():
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            u2, sweeps = step(window, plan, problem.params, grid, SolverConfig())
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
    assert problem.params.beta != 0.0 and sweeps > 1
    assert 16 * K <= peak <= 16 * K + 2048
