"""Hypothesis strategies shared by the property tests: scheme coefficients,
mesh sizes and time steps, and random time levels on the periodic grid
[0, 2*pi) with ten steps of the drawn tau."""

import numpy as np
from hypothesis import strategies as st

from nlsw import build_grid

coefficient = st.floats(min_value=-2.0, max_value=2.0)
# gamma = +-2 degenerates the first-order reduction (PdeParams rejects it).
gamma_coefficient = st.floats(min_value=-1.5, max_value=1.5)
sizes = st.integers(8, 64)
time_steps = st.floats(min_value=0.01, max_value=0.1)
seeds = st.integers(0, 2 ** 32 - 1)

# Components where a reordered or rewritten operation shows: exact zeros of
# both signs, subnormals and numbers near the underflow threshold, up to
# +-1e3; and coefficients with zeros of both signs and units.
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1.5e-308, 1.0, -0.5)
special_component = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e3, 1e3),
                              st.floats(-1e-305, 1e-305))
special_entry = st.builds(complex, special_component, special_component)
special_coefficient = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0)), coefficient)


def periodic_grid(K, tau):
    return build_grid(0.0, 2.0 * np.pi, K, 10 * tau, 10)


def levels(seed, K):
    """(u^{j-1}, u^j): a unit plane wave with O(0.3) noise, and a slightly
    rotated and perturbed copy of it as the earlier level."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 2.0 * np.pi, K, endpoint=False)
    u_cur = np.exp(1j * x) + 0.3 * (rng.normal(size=K) + 1j * rng.normal(size=K))
    u_prev = u_cur * np.exp(0.05j) + 0.05 * (rng.normal(size=K)
                                              + 1j * rng.normal(size=K))
    return u_prev, u_cur
