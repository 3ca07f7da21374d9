"""The in-place kernels half_nodes and the identity right-hand sides give
the bytes of the allocating expressions they replaced (tests/oracles.py),
and so does the taylor2 bootstrap of its rolled reference, on levels drawn
with exact zeros of both signs and subnormals, where a reordered operation
shows.  So do the pieces of a Picard sweep, which work through the views
and buffers of a StepPlan: its known terms, each scheme's lag() and
nonlinear(), and the cyclic solve, allocating and in place."""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nlsw import PdeParams, PreparedCyclicSolver, bootstrap, diagnostics, mi, wang
from nlsw.mi import StepPlan

import oracles
from strategies import (gamma_coefficient, periodic_grid, special_coefficient,
                        special_entry, time_steps)


def stacks(shape):
    return hnp.arrays(np.complex128, shape, elements=special_entry)


def same_bits(left, right):
    return all(np.asarray(a).tobytes() == np.asarray(b).tobytes()
               for a, b in zip(left, right, strict=True))


@st.composite
def problems(draw):
    """(params, grid, shape of a level or of a stack of them)."""
    params = PdeParams(alpha=draw(special_coefficient),
                       gamma=draw(st.one_of(st.sampled_from((0.0, -0.0)),
                                            gamma_coefficient)),
                       theta=draw(special_coefficient), lam=draw(special_coefficient),
                       beta=draw(special_coefficient))
    K = draw(st.integers(4, 12))
    rows = draw(st.sampled_from(((), (1,), (3,))))
    return params, periodic_grid(K, draw(time_steps)), rows + (K,)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), problem=problems())
def test_half_nodes_and_identity_rhs_keep_their_bytes(data, problem):
    params, grid, shape = problem
    u_cur, u_next = data.draw(stacks(shape)), data.draw(stacks(shape))
    assert same_bits(diagnostics.half_nodes(u_cur, u_next, grid),
                     oracles.half_nodes_allocating(u_cur, u_next, grid))
    # A run hands the identities |a|^2 and |b|^2 from its HalfNodes.
    abs2 = tuple(diagnostics.HalfNodes((None, u, None)).abs2_mid for u in (u_cur, u_next))
    for factor in (diagnostics.VALIDATED_MASS_FACTOR, diagnostics.PRINTED_MASS_FACTOR):
        assert same_bits(diagnostics._identity_rhs(u_cur, u_next, abs2, params, grid,
                                                   factor),
                         oracles.identity_rhs_allocating(u_cur, u_next, params, grid,
                                                         factor))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), problem=problems())
def test_bootstrap_keeps_its_bytes(data, problem):
    params, grid, shape = problem
    u0, v0 = (data.draw(stacks(shape[-1])) for _ in range(2))
    assert same_bits(bootstrap(lambda x: u0, lambda x: v0, params, grid),
                     (u0, oracles.taylor2_allocating(u0, v0, params, grid)))


SCHEMES = {"mi": (mi, mi.assemble_linear), "wang": (wang, wang.assemble_wang)}


def scheme_problem(scheme, problem):
    """(module, params, grid, K, the scheme's operator) of a drawn
    problem; the energy-preserving scheme takes gamma = theta = lam = 0."""
    module, assemble = SCHEMES[scheme]
    params, grid, shape = problem
    if scheme == "wang":
        params = dataclasses.replace(params, gamma=0.0, theta=0.0, lam=0.0)
    return module, params, grid, shape[-1], assemble(params, grid)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), problem=problems(), scheme=st.sampled_from(sorted(SCHEMES)))
def test_sweep_pieces_keep_their_bytes(data, problem, scheme):
    # The plan's known terms, and lag() then nonlinear(u) into the plan's
    # rhs buffer, against the rolled stencils and the cubic terms of
    # tests/oracles.py.
    module, params, grid, K, system = scheme_problem(scheme, problem)
    u_prev, u_cur, u = (data.draw(stacks(K)) for _ in range(3))
    plan = StepPlan(system, params, grid, module._stencils, module._cubic)
    known = plan.known_terms(u_prev, u_cur)
    assert same_bits((known,), (oracles.known_terms_rolled(module._stencils, params,
                                                           grid, u_prev, u_cur),))
    quarter_beta = 0.25 * params.beta
    if scheme == "mi":
        expected = (oracles.mi_cubic_pair((u_cur + u) * 0.5)
                    + oracles.mi_cubic_pair((u_cur + u_prev) * 0.5)) * quarter_beta
    else:
        expected = oracles.wang_cubic(quarter_beta, u, u_prev)
    plan.lag()
    assert same_bits((plan.nonlinear(u),), (expected,))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), problem=problems(), scheme=st.sampled_from(sorted(SCHEMES)))
def test_cyclic_solve_keeps_its_bytes(data, problem, scheme):
    # Outside any floating-point policy: a finite solve warns of nothing.
    # solve(b) leaves b as it was and shares no memory with it; solve(b, b),
    # the sweep's form, gives solve(b)'s bytes in b itself, and
    # solve(b, out) gives them in out, leaving b as it was.
    _, _, _, K, system = scheme_problem(scheme, problem)
    solver = PreparedCyclicSolver(system)
    for _ in range(2):
        rhs = data.draw(stacks(K))
        b = rhs.copy()
        fresh = solver.solve(b)
        assert same_bits((b,), (rhs,))
        assert not np.shares_memory(fresh, b)
        assert same_bits((fresh,), (oracles.cyclic_solve_allocating(system, rhs),))
        b = rhs.copy()
        in_place = solver.solve(b, b)
        assert np.shares_memory(in_place, b)
        assert same_bits((in_place,), (fresh,))
        b, out = rhs.copy(), np.empty(K, dtype=np.complex128)
        assert solver.solve(b, out) is out
        assert same_bits((out, b), (fresh, rhs))
