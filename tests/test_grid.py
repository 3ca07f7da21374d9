import numpy as np
import pytest

from nlsw import (GridSpec, UsageError, apply_difference, build_grid,
                  inner_product, norms)
from nlsw.errors import ConfigurationError
from nlsw.grid import half_average

from conftest import random_field
from oracles import slow_inner_product, slow_quartic_half


class TestBuildGrid:
    def test_paper_meshes(self):
        g = build_grid(0.0, 2.0 * np.pi, 64, 50.0, 10000)
        assert g.h == pytest.approx(2.0 * np.pi / 64, rel=0, abs=0)
        assert g.tau == 0.005
        g = build_grid(-50.0, 50.0, 1000, 500.0, 10000)
        assert g.h == 0.1
        assert g.tau == 0.05

    def test_direct_arithmetic(self):
        g = build_grid(0.0, 1.0, 4, 1.0, 2)
        assert g.h == 0.25
        assert g.tau == 0.5

    def test_nodes_bit_exact(self):
        g = build_grid(0.0, 2.0 * np.pi, 16, 1.0, 10)
        expected = np.array([0.0 + k * g.h for k in range(16)])
        assert np.array_equal(g.nodes, expected)

    @pytest.mark.parametrize("args", [
        (1.0, 0.0, 8, 1.0, 10),     # inverted domain
        (0.0, 1.0, 3, 1.0, 10),     # K below stencil minimum
        (0.0, 1.0, 8, 1.0, 1),      # too few time steps
        (0.0, 1.0, 8, 0.0, 10),     # non-positive horizon
        (0.0, 1.0, 8, -2.0, 10),
    ])
    def test_rejects_bad_sizes(self, args):
        with pytest.raises(ConfigurationError):
            build_grid(*args)

    def test_rejects_non_integral_sizes(self):
        # int() would silently run K=64, J=100 for these.
        for K, J in ((64.7, 100), (64, 100.9), (64.0, 100)):
            with pytest.raises(ConfigurationError):
                build_grid(0.0, 1.0, K, 1.0, J)
        g = build_grid(0.0, 1.0, np.int64(64), 1.0, np.int32(100))
        assert type(g.K) is int and type(g.J) is int

    @pytest.mark.parametrize("args, name", [
        ((0.0, 1.0, 8, 1e-320, 10), "T="),        # tau^2 underflows to 0
        ((0.0, 1.0, 8, 1e-160, 10), "T="),        # 1/tau^2 overflows
        ((0.0, 1e-160, 8, 1.0, 10), "K="),        # 1/h^2 overflows
        ((0.0, 1.0, 2 ** 63, 1.0, 10), "K="),     # beyond numpy's index range
        ((0.0, 1.0, 8, 1e300, 2), "T="),          # tau^2 overflows
        ((0.0, 1e300, 4, 1.0, 10), "K="),         # h^2 overflows
        ((-1e308, 1e308, 4, 1.0, 10), "K="),      # h itself overflows
    ])
    def test_rejects_degenerate_meshes_naming_them(self, args, name):
        with pytest.raises(ConfigurationError) as err:
            build_grid(*args)
        assert name in str(err.value)

    @pytest.mark.parametrize("args, name", [
        ((False, 1.0, 8, 1.0, 4), "x_l"),         # a bool is not a number
        ((0.0, True, 8, 1.0, 4), "x_r"),
        ((0.0, "1", 8, 1.0, 4), "x_r"),           # nor is a string
        ((0.0, 1.0, True, 1.0, 4), "K"),
        ((0.0, 1.0, 8, True, 4), "T"),
        ((0.0, 1.0, 8, 10 ** 400, 4), "T"),       # beyond the float range
        ((0.0, 1.0, 8, 1.0, 10 ** 400), "J"),
    ])
    def test_rejects_non_numbers_naming_them(self, args, name):
        value = args[("x_l", "x_r", "K", "T", "J").index(name)]
        with pytest.raises(ConfigurationError) as err:
            build_grid(*args)
        assert f"{name}={value!r}" in str(err.value)


class TestApplyDifference:
    def test_constant_fields_vanish(self, small_grid):
        u = np.full(small_grid.K, 2.0 - 1.0j)
        for kind in ("forward", "backward", "central", "second", "half_forward"):
            assert np.max(np.abs(apply_difference(kind, u, small_grid))) == 0.0
        assert np.allclose(apply_difference("half_average", u, small_grid), u)

    def test_forward_spike(self):
        g = build_grid(0.0, 2.0, 4, 1.0, 2)
        assert g.h == 0.5
        out = apply_difference("forward", [0.0, 1.0, 0.0, 0.0], g)
        assert np.allclose(out, [2.0, -2.0, 0.0, 0.0])

    def test_central_taylor_bound(self):
        g = build_grid(0.0, 2.0 * np.pi, 256, 1.0, 10)
        u = np.exp(1j * g.nodes)
        err = np.max(np.abs(apply_difference("central", u, g) - 1j * u))
        # |u'''| = 1 for the unit plane wave
        assert err <= g.h ** 2 / 6.0 * 1.0001

    def test_periodic_wrap(self):
        g = build_grid(0.0, 2.0, 4, 1.0, 2)
        u = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        back = apply_difference("backward", u, g)
        assert back[0] == pytest.approx((1.0 - 0.0) / 0.5)

    def test_unknown_kind(self, small_grid):
        with pytest.raises(UsageError):
            apply_difference("upwind", np.zeros(small_grid.K), small_grid)

    def test_rejects_nonfinite(self, small_grid):
        u = np.zeros(small_grid.K, dtype=complex)
        u[3] = np.nan
        with pytest.raises(UsageError):
            apply_difference("forward", u, small_grid)

    def test_linearity(self, rng, small_grid):
        for _ in range(20):
            u = random_field(rng, small_grid.K)
            v = random_field(rng, small_grid.K)
            a, b = rng.normal(), rng.normal()
            for kind in ("forward", "backward", "central", "second",
                         "half_average", "half_forward"):
                lhs = apply_difference(kind, a * u + b * v, small_grid)
                rhs = (a * apply_difference(kind, u, small_grid)
                       + b * apply_difference(kind, v, small_grid))
                scale = max(1.0, np.max(np.abs(lhs)))
                assert np.max(np.abs(lhs - rhs)) <= 1e-14 * scale


class TestInnerProductAndNorms:
    def test_trivial_values(self):
        g = build_grid(0.0, 2.0, 4, 1.0, 2)
        gh1 = build_grid(0.0, 4.0, 4, 1.0, 2)   # h = 1
        assert inner_product([1, 1j, 0, 0], [1, 1j, 0, 0], gh1) == pytest.approx(2.0)
        assert inner_product([1, 0, 0, 0], [0, 1, 0, 0], g) == 0.0

    def test_against_slow_oracle(self, rng):
        g = build_grid(0.0, 1.0, 64, 1.0, 2)
        for _ in range(10):
            u = random_field(rng, 64)
            v = random_field(rng, 64)
            fast = inner_product(u, v, g)
            slow = slow_inner_product(u, v, g.h)
            assert abs(fast - slow) <= 1e-14 * abs(slow)

    def test_length_mismatch(self, small_grid):
        for shape, message in (((3,), "length 3"), ((2, small_grid.K), "must be 1-D")):
            with pytest.raises(UsageError, match=message):
                inner_product(np.zeros(shape), np.zeros(small_grid.K), small_grid)

    def test_norms_constants(self):
        g = build_grid(0.0, 2.0, 4, 1.0, 2)
        n = norms([1.0, 1.0, 1.0, 1.0], g)
        assert n.l2 ** 2 == pytest.approx(2.0)
        assert n.half_l2 ** 2 == pytest.approx(2.0)
        assert n.max == 1.0
        assert n.quartic_half == pytest.approx(2.0)

    def test_half_norm_cancellation(self):
        g = build_grid(0.0, 4.0, 4, 1.0, 2)
        n = norms([1.0, -1.0, 1.0, -1.0], g)
        assert n.half_l2 == 0.0

    def test_quartic_against_slow_oracle(self, rng):
        g = build_grid(0.0, 1.0, 48, 1.0, 2)
        for _ in range(10):
            u = random_field(rng, 48)
            fast = norms(u, g).quartic_half
            slow = slow_quartic_half(u, g.h)
            assert abs(fast - slow) <= 1e-14 * abs(slow)


class TestDiscreteIdentities:
    """Summation-by-parts and related identities on random periodic fields."""

    @pytest.mark.parametrize("K", [8, 33, 128])
    def test_discrete_green_formula(self, rng, K):
        g = build_grid(0.0, 1.7, K, 1.0, 2)
        for _ in range(25):
            u = random_field(rng, K)
            v = random_field(rng, K)
            lhs = inner_product(apply_difference("second", u, g), v, g)
            rhs = -inner_product(apply_difference("backward", u, g),
                                 apply_difference("backward", v, g), g)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("K", [8, 33, 128])
    def test_skew_adjointness(self, rng, K):
        # The centered quotient is skew-adjoint on periodic fields, and the
        # backward quotient is minus the adjoint of the forward one; these
        # are the two pairings the conservation arguments rest on.  (The
        # backward quotient alone is NOT skew: its self-pairing has real
        # part (h/2)*||backward u||^2.)
        g = build_grid(0.0, 1.7, K, 1.0, 2)
        for _ in range(25):
            u = random_field(rng, K)
            v = random_field(rng, K)
            dc = apply_difference("central", u, g)
            lhs = inner_product(dc, u, g)
            rhs = inner_product(u, dc, g)
            scale = max(1.0, abs(lhs))
            assert abs(lhs + rhs) <= 1e-13 * scale
            assert abs(lhs.real) <= 1e-13 * scale   # purely imaginary
            dual = (inner_product(apply_difference("backward", u, g), v, g)
                    + inner_product(u, apply_difference("forward", v, g), g))
            assert abs(dual) <= 1e-12 * max(1.0, abs(lhs))
            back = inner_product(apply_difference("backward", u, g), u, g)
            half_sq = norms(apply_difference("backward", u, g), g).l2 ** 2
            assert abs(back.real - 0.5 * g.h * half_sq) <= 1e-12 * max(1.0, half_sq)

    @pytest.mark.parametrize("K", [8, 33, 128])
    def test_half_point_pairing_purely_imaginary(self, rng, K):
        # h * sum u_{k+1/2} * conj(forward quotient at k+1/2) has no real
        # part on periodic fields; the discrete energy's theta term and the
        # discrete mass's gamma term rely on exactly this.
        g = build_grid(0.0, 1.7, K, 1.0, 2)
        for _ in range(25):
            u = random_field(rng, K)
            uh = apply_difference("half_average", u, g)
            dh = apply_difference("half_forward", u, g)
            pairing = g.h * np.sum(uh * np.conj(dh))
            scale = max(1.0, g.h * float(np.sum(np.abs(uh) * np.abs(dh))))
            assert abs(pairing.real) <= 1e-13 * scale

    def test_temporal_identity(self, rng):
        # Re<d_t^2 u, centered dt u> telescopes the forward-difference norms.
        g = build_grid(0.0, 1.0, 32, 1.0, 2)
        tau = 0.37
        for _ in range(25):
            up = random_field(rng, 32)
            uc = random_field(rng, 32)
            un = random_field(rng, 32)
            d2t = (un - 2.0 * uc + up) / tau ** 2
            dct = (un - up) / (2.0 * tau)
            lhs = inner_product(d2t, dct, g).real
            fwd_plus = norms((un - uc) / tau, g).l2 ** 2
            fwd_minus = norms((uc - up) / tau, g).l2 ** 2
            rhs = (fwd_plus - fwd_minus) / (2.0 * tau)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_half_average_wrap(self):
        u = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        out = half_average(u)
        assert out[-1] == pytest.approx(0.5 * (4.0 + 1.0))
