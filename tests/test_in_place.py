"""The in-place kernels half_nodes and the identity right-hand sides give
the bytes of the allocating expressions they replaced (tests/oracles.py),
and so does the taylor2 bootstrap of its rolled reference, on levels drawn
with exact zeros of both signs and subnormals, where a reordered operation
shows."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nlsw import PdeParams, bootstrap, diagnostics

import oracles
from strategies import coefficient, gamma_coefficient, periodic_grid, time_steps

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1.5e-308, 1.0, -0.5)
component = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e3, 1e3),
                      st.floats(-1e-305, 1e-305))
entry = st.builds(complex, component, component)
special_coefficient = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0)), coefficient)


def stacks(shape):
    return hnp.arrays(np.complex128, shape, elements=entry)


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
    for factor in (diagnostics.VALIDATED_MASS_FACTOR, diagnostics.PRINTED_MASS_FACTOR):
        assert same_bits(diagnostics._identity_rhs(u_cur, u_next, params, grid, factor),
                         oracles.identity_rhs_allocating(u_cur, u_next, params, grid,
                                                         factor))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), problem=problems())
def test_bootstrap_keeps_its_bytes(data, problem):
    params, grid, shape = problem
    u0, v0 = (data.draw(stacks(shape[-1])) for _ in range(2))
    assert same_bits(bootstrap(lambda x: u0, lambda x: v0, params, grid),
                     (u0, oracles.taylor2_allocating(u0, v0, params, grid)))
