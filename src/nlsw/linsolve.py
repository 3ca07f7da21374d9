"""O(K) solver for periodic (cyclic) tridiagonal complex systems.

Row k of the matrix reads

    lower[k] * x[k-1]  +  diag[k] * x[k]  +  upper[k] * x[k+1]

with indices modulo K, so lower[0] and upper[K-1] carry the periodic
corner couplings.  The solve peels the two corners off as a rank-one
update of a plain tridiagonal core (Sherman-Morrison).  The core is
factored once with LAPACK's gttrf (LU with partial pivoting, which keeps
the fill-in within one extra super-diagonal), and every solve after that
is one gttrs call against the stored factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgttrf, zgttrs

from .errors import SingularSystemError, UsageError
from .grid import stencil

# The Sherman-Morrison denominator equals det(A)/det(core); relative to the
# correction scale, anything below this means A itself is singular.
_DEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class CyclicTridiagonalSystem:
    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        for name in ("lower", "diag", "upper"):
            arr = np.asarray(getattr(self, name), dtype=np.complex128)
            object.__setattr__(self, name, arr)
        if not (self.lower.shape == self.diag.shape == self.upper.shape):
            raise UsageError("lower/diag/upper must have equal lengths")
        if self.diag.ndim != 1 or self.diag.shape[0] < 4:
            raise UsageError("cyclic tridiagonal system needs K >= 4")

    @property
    def size(self) -> int:
        return self.diag.shape[0]

    def matvec(self, x) -> np.ndarray:
        return stencil((self.lower, self.diag, self.upper),
                       np.asarray(x, dtype=np.complex128))


class PreparedCyclicSolver:
    """Factor the Sherman-Morrison pieces once, then solve in O(K) per call.

    With A = T + u v^T, where u = gamma0*e_0 + upper[K-1]*e_{K-1} and
    v = e_0 + (lower[0]/gamma0)*e_{K-1}, the core T is strictly
    tridiagonal and  x = y - (v.y)/(1 + v.q) * q  with y = T^-1 rhs and
    q = T^-1 u.
    """

    def __init__(self, system: CyclicTridiagonalSystem):
        lo, d, up = system.lower, system.diag, system.upper
        K = system.size
        gamma0 = -d[0] if d[0] != 0 else complex(1.0)
        core_diag = d.copy()
        core_diag[0] -= gamma0
        core_diag[K - 1] -= up[K - 1] * lo[0] / gamma0
        *factors, info = zgttrf(lo[1:], core_diag, up[:-1])
        if info != 0:
            raise SingularSystemError(
                f"tridiagonal core is singular: zero pivot at row {info}")
        self._factors = factors
        self._size = K
        self._v_last = lo[0] / gamma0
        u = np.zeros(K, dtype=np.complex128)
        u[0] = gamma0
        u[K - 1] = up[K - 1]
        q = self._core_solve(u)
        den = 1.0 + q[0] + self._v_last * q[K - 1]
        if abs(den) < _DEGENERACY_TOL * (1.0 + abs(q[0]) + abs(self._v_last * q[K - 1])):
            raise SingularSystemError(
                "cyclic correction denominator collapsed (matrix is singular)")
        self._q = q
        self._den = den

    def _core_solve(self, b):
        x, info = zgttrs(*self._factors, b)
        if info != 0:
            raise SingularSystemError(f"tridiagonal core solve failed (info={info})")
        if not np.isfinite(x).all():
            raise SingularSystemError("tridiagonal core solve overflowed (near-zero pivot)")
        return x

    def solve(self, rhs) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=np.complex128)
        if rhs.shape != (self._size,):
            raise UsageError(f"rhs has shape {rhs.shape}, expected ({self._size},)")
        y = self._core_solve(rhs)
        corr = (y[0] + self._v_last * y[-1]) / self._den
        return y - corr * self._q


def solve_cyclic_tridiagonal(system: CyclicTridiagonalSystem, rhs) -> np.ndarray:
    """Solve the periodic tridiagonal system for one right-hand side."""
    return PreparedCyclicSolver(system).solve(rhs)
