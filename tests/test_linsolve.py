import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlsw
from nlsw import (CyclicTridiagonalSystem, PreparedCyclicSolver,
                  SingularSystemError, UsageError, linsolve, solve_cyclic_tridiagonal)

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

    @pytest.mark.parametrize("band", ["lower", "diag", "upper"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_nonfinite_band_rejected(self, band, value):
        # Refused where the system is built, naming the band, before the
        # factorisation would meet it as an overflowing core solve.
        bands = {"lower": np.ones(8), "diag": np.full(8, 4.0), "upper": np.ones(8)}
        bands[band] = bands[band].astype(complex)
        bands[band][2] = value
        with pytest.raises(UsageError, match=f"band {band} contains NaN/Inf"):
            CyclicTridiagonalSystem(**bands)

    def test_dense_matrix_layout(self):
        # corner couplings must sit at (0, K-1) and (K-1, 0)
        K = 5
        sys_ = CyclicTridiagonalSystem(lower=np.full(K, 2.0), diag=np.full(K, 5.0),
                                       upper=np.full(K, 3.0))
        A = dense_cyclic_matrix(sys_)
        assert A[0, K - 1] == 2.0
        assert A[K - 1, 0] == 3.0
        assert A[2, 1] == 2.0 and A[2, 3] == 3.0


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# The solver's gttrf/gttrs are scipy's `_flapack` wrappers, loaded without the
# scipy.linalg package; they must be the very same LAPACK calls.
class TestLoadedLapack:
    @pytest.mark.parametrize("K", [4, 200, 4096])
    def test_same_bits_as_scipy_linalg_lapack(self, rng, K):
        from scipy.linalg import lapack
        sys_ = random_dd_system(rng, K)
        core = (sys_.lower[1:], sys_.diag, sys_.upper[:-1])
        ours, theirs = linsolve.zgttrf(*core), lapack.zgttrf(*core)
        assert len(ours) == len(theirs) == 6
        assert all(same_bits(a, b) for a, b in zip(ours, theirs))
        rhs = random_field(rng, K)
        x, info = linsolve.zgttrs(*ours[:-1], rhs)
        x_ref, info_ref = lapack.zgttrs(*theirs[:-1], rhs)
        assert info == info_ref == 0 and same_bits(x, x_ref)

    def test_extension_kept_out_of_sys_modules(self):
        import scipy.linalg
        assert linsolve._flapack is not scipy.linalg._flapack
        assert linsolve._flapack.__name__ not in sys.modules

    def test_same_bits_before_and_after_importing_scipy_linalg(self):
        # In a fresh process, as benchmarks/probe.py does after parsing: the
        # extension is then initialised a second time, for scipy.linalg.
        script = """
import sys
import numpy as np
from nlsw import CyclicTridiagonalSystem, PreparedCyclicSolver
assert "scipy.linalg" not in sys.modules
rng = np.random.default_rng(7)
K = 200
off = rng.normal(size=(2, K)) + 1j * rng.normal(size=(2, K))
system = CyclicTridiagonalSystem(lower=off[0], diag=4.0 + 1j * rng.normal(size=K),
                                 upper=off[1])
rhs = rng.normal(size=K) + 1j * rng.normal(size=K)
solver = PreparedCyclicSolver(system)
before = solver.solve(rhs)
import scipy.linalg
again = solver.solve(rhs)
fresh = PreparedCyclicSolver(system).solve(rhs)
print(before.tobytes() == again.tobytes() == fresh.tobytes())
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(nlsw.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "True"
