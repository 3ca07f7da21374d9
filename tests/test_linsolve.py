import numpy as np
import pytest

from nlsw import (CyclicTridiagonalSystem, PreparedCyclicSolver,
                  SingularSystemError, UsageError, solve_cyclic_tridiagonal)

from conftest import random_field
from oracles import dense_cyclic_matrix, dense_solve


def random_dd_system(rng, K):
    """Random diagonally dominant cyclic tridiagonal system."""
    lower = random_field(rng, K)
    upper = random_field(rng, K)
    diag = random_field(rng, K)
    diag += (np.abs(lower) + np.abs(upper) + 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi, K))
    # keep dominance regardless of the random phase
    diag = (np.abs(lower) + np.abs(upper) + 1.0 + np.abs(diag)) * diag / np.abs(diag)
    return CyclicTridiagonalSystem(lower=lower, diag=diag, upper=upper)


class TestSolve:
    def test_identity_system(self, rng):
        K = 16
        sys_ = CyclicTridiagonalSystem(lower=np.zeros(K), diag=np.ones(K),
                                       upper=np.zeros(K))
        rhs = random_field(rng, K)
        x = solve_cyclic_tridiagonal(sys_, rhs)
        assert np.max(np.abs(x - rhs)) <= 1e-14 * np.max(np.abs(rhs))

    def test_periodic_laplacian_is_singular(self):
        # Rows of the periodic Laplacian sum to zero (constant null vector),
        # so a unique solve must be refused; the quoted compatible solution
        # is still checked through the matrix action.
        K = 4
        sys_ = CyclicTridiagonalSystem(lower=-np.ones(K), diag=2.0 * np.ones(K),
                                       upper=-np.ones(K))
        rhs = np.array([1.0, 0.0, -1.0, 0.0], dtype=complex)
        x_compatible = np.array([0.5, 0.0, -0.5, 0.0], dtype=complex)
        assert np.allclose(sys_.matvec(x_compatible), rhs)
        A = dense_cyclic_matrix(sys_)
        assert abs(np.linalg.det(A)) < 1e-12   # the dense oracle agrees
        with pytest.raises(SingularSystemError):
            solve_cyclic_tridiagonal(sys_, rhs)

    @pytest.mark.parametrize("K", [4, 5, 17, 64, 257, 512])
    def test_against_dense_oracle(self, rng, K):
        for _ in range(20 if K <= 64 else 5):
            sys_ = random_dd_system(rng, K)
            rhs = random_field(rng, K)
            x = solve_cyclic_tridiagonal(sys_, rhs)
            ref = dense_solve(sys_, rhs)
            assert np.max(np.abs(x - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_residual_bound(self, rng):
        for K in (8, 64, 256):
            sys_ = random_dd_system(rng, K)
            rhs = random_field(rng, K)
            x = solve_cyclic_tridiagonal(sys_, rhs)
            resid = np.max(np.abs(sys_.matvec(x) - rhs))
            a_norm = np.max(np.abs(sys_.lower) + np.abs(sys_.diag) + np.abs(sys_.upper))
            bound = 1e-12 * (a_norm * np.max(np.abs(x)) + np.max(np.abs(rhs)))
            assert resid <= bound

    def test_recovers_known_solution(self, rng):
        for K in (4, 32, 128):
            sys_ = random_dd_system(rng, K)
            x_known = random_field(rng, K)
            rhs = sys_.matvec(x_known)
            x = solve_cyclic_tridiagonal(sys_, rhs)
            assert np.max(np.abs(x - x_known)) <= 1e-12 * max(1.0, np.max(np.abs(x_known)))

    def test_prepared_solver_reuse(self, rng):
        sys_ = random_dd_system(rng, 32)
        solver = PreparedCyclicSolver(sys_)
        for _ in range(5):
            rhs = random_field(rng, 32)
            assert np.allclose(solver.solve(rhs), dense_solve(sys_, rhs))

    def test_zero_diagonal_rows_rejected(self):
        K = 8
        sys_ = CyclicTridiagonalSystem(lower=np.zeros(K), diag=np.zeros(K),
                                       upper=np.zeros(K))
        with pytest.raises(SingularSystemError):
            solve_cyclic_tridiagonal(sys_, np.ones(K))

    def test_overflowing_core_rejected_at_setup(self):
        # Diagonal rows with a subnormal last pivot: the core factors, but
        # its solve against the corner vector overflows.
        K = 8
        diag = np.ones(K)
        diag[K - 1] = 1e-310
        upper = np.zeros(K)
        upper[K - 1] = 1.0
        sys_ = CyclicTridiagonalSystem(lower=np.zeros(K), diag=diag, upper=upper)
        with pytest.raises(SingularSystemError, match="overflowed"):
            PreparedCyclicSolver(sys_)

    def test_overflow_in_cyclic_correction_rejected(self):
        # The periodic Laplacian shifted by eps keeps a well-conditioned core
        # but maps the constant vector to itself over eps: a 1e301 right-hand
        # side has a finite core solution and an overflowing corrected one.
        K = 8
        eps = 1e-8
        sys_ = CyclicTridiagonalSystem(lower=-np.ones(K), diag=np.full(K, 2.0 + eps),
                                       upper=-np.ones(K))
        solver = PreparedCyclicSolver(sys_)
        assert np.allclose(solver.solve(np.ones(K)), 1.0 / eps)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(SingularSystemError, match="overflowed"):
            solver.solve(np.full(K, 1e301))

    def test_shape_validation(self):
        with pytest.raises(UsageError):
            CyclicTridiagonalSystem(lower=np.zeros(3), diag=np.zeros(4),
                                    upper=np.zeros(4))
        with pytest.raises(UsageError):
            CyclicTridiagonalSystem(lower=np.zeros(3), diag=np.zeros(3),
                                    upper=np.zeros(3))
        sys_ = CyclicTridiagonalSystem(lower=np.zeros(8), diag=np.ones(8),
                                       upper=np.zeros(8))
        with pytest.raises(UsageError):
            solve_cyclic_tridiagonal(sys_, np.ones(5))

    def test_dense_matrix_layout(self):
        # corner couplings must sit at (0, K-1) and (K-1, 0)
        K = 5
        sys_ = CyclicTridiagonalSystem(lower=np.full(K, 2.0), diag=np.full(K, 5.0),
                                       upper=np.full(K, 3.0))
        A = dense_cyclic_matrix(sys_)
        assert A[0, K - 1] == 2.0
        assert A[K - 1, 0] == 3.0
        assert A[2, 1] == 2.0 and A[2, 3] == 3.0
