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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlsw import (DivergenceError, PdeParams, PreparedCyclicSolver,
                  SingularSystemError, SolverConfig, StateWindow, StepFailureError,
                  UsageError, assemble_linear, assemble_wang, bootstrap, build_grid,
                  builtin_problem, customized, run_mi, run_wang, step_mi, step_wang)
from nlsw import mi, wang

from oracles import picard_reference
from strategies import (coefficient, gamma_coefficient, levels, periodic_grid,
                        seeds, sizes, time_steps)

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
    """(bytes of the level, sweeps) of a step, or the message of its
    StepFailureError."""
    try:
        u, sweeps = step()
    except StepFailureError as exc:
        return str(exc)
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
