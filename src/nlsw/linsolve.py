"""O(K) solver for periodic (cyclic) tridiagonal complex systems.

Row k of the matrix reads

    lower[k] * x[k-1]  +  diag[k] * x[k]  +  upper[k] * x[k+1]

with indices modulo K, so lower[0] and upper[K-1] carry the periodic
corner couplings.  The solve peels the two corners off as a rank-one
update of a plain tridiagonal core (Sherman-Morrison).  The core is
factored once with LAPACK's gttrf (LU with partial pivoting), and every
solve after that is one gttrs call against the stored factors.

zgttrf and zgttrs come from scipy's `_flapack` extension, loaded from the
folder that scipy's import spec names, so that neither scipy.linalg's
package imports nor scipy/__init__.py, most of a short run's start-up, are
executed; the extension finds its OpenBLAS through its own RPATH
($ORIGIN/../../scipy.libs on the PyPI wheels).  SCIPY_VERSION is read from
scipy's version.py in that folder.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SingularSystemError, UsageError
from .grid import shift_next, shift_prev


def _scipy_folder() -> Path:
    """The installed scipy package's folder, from its import spec: finding
    the spec executes nothing of the package."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    return Path(spec.submodule_search_locations[0])


def _load_private(path: Path):
    """The module at `path`, executed under a private name in this package
    that is left out of sys.modules (an extension's init function is found
    from the name's last component, so that stays the file's stem)."""
    name = f"{__name__}.{path.name.partition('.')[0]}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # CPython files a single-phase extension in sys.modules itself.
    sys.modules.pop(name, None)
    return module


def _load_flapack(scipy_folder: Path):
    """scipy.linalg's `_flapack` extension module."""
    folder = scipy_folder / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / ("_flapack" + suffix)
        if path.is_file():
            return _load_private(path)
    raise ImportError(f"scipy's LAPACK extension _flapack is not in {folder}")


_scipy = _scipy_folder()
_flapack = _load_flapack(_scipy)
SCIPY_VERSION = _load_private(_scipy / "version.py").version
zgttrf, zgttrs = _flapack.zgttrf, _flapack.zgttrs

# The Sherman-Morrison denominator equals det(A)/det(core); relative to the
# correction scale, anything below this means A itself is singular.
_DEGENERACY_TOL = 1e-10

# The message of a solve whose result is not finite: PreparedCyclicSolver.solve
# refuses one with it, and mi.picard a sweep's, given a finite right-hand side.
OVERFLOWED = "cyclic solve overflowed (near-singular matrix or huge right-hand side)"


@dataclass(frozen=True)
class CyclicTridiagonalSystem:
    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        for name in ("lower", "diag", "upper"):
            arr = np.asarray(getattr(self, name), dtype=np.complex128)
            if not np.isfinite(arr).all():
                raise UsageError(f"band {name} contains NaN/Inf entries")
            object.__setattr__(self, name, arr)
        if not (self.lower.shape == self.diag.shape == self.upper.shape):
            raise UsageError("lower/diag/upper must have equal lengths")
        if self.diag.ndim != 1 or self.diag.shape[0] < 4:
            raise UsageError("cyclic tridiagonal system needs K >= 4")

    @property
    def size(self) -> int:
        return self.diag.shape[0]

    def matvec(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        return self.lower * shift_prev(x) + self.diag * x + self.upper * shift_next(x)


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
        # zgttrs with the factors bound, so that a solve passes only b.
        self._core_solve = functools.partial(zgttrs, *factors)
        self._v_last = lo[0] / gamma0
        u = np.zeros(K, dtype=np.complex128)
        u[0] = gamma0
        u[K - 1] = up[K - 1]
        q, info = self._core_solve(u)
        if info != 0:
            raise SingularSystemError(f"tridiagonal core solve failed (info={info})")
        if not np.isfinite(q).all():
            raise SingularSystemError(
                "tridiagonal core solve overflowed (near-zero pivot)")
        den = 1.0 + q[0] + self._v_last * q[K - 1]
        if abs(den) < _DEGENERACY_TOL * (1.0 + abs(q[0]) + abs(self._v_last * q[K - 1])):
            raise SingularSystemError(
                "cyclic correction denominator collapsed (matrix is singular)")
        self._q = q
        self._den = den
        # The correction's coefficient goes into a 0-d array, which the
        # multiply takes faster than a numpy scalar.
        self._coefficient = np.empty((), dtype=np.complex128)
        self._correction = np.empty(K, dtype=np.complex128)
        self._zeros = np.zeros(K, dtype=np.complex128)

    def solve(self, rhs, out=None) -> np.ndarray:
        """x with A x = rhs.  Without out, rhs is coerced to complex128 and
        must have shape (K,) (UsageError otherwise), x is a fresh array,
        and a non-finite x is refused with SingularSystemError(OVERFLOWED).
        With out, a contiguous complex128 (K,) buffer that may be rhs
        itself, x is solved in out and returned, with no coercion, no
        allocation and no finiteness test, which is the caller's.  A failed
        gttrs call is a SingularSystemError either way."""
        if out is None:
            rhs = np.asarray(rhs, dtype=np.complex128)
            if rhs.shape != self._q.shape:
                raise UsageError(f"rhs has shape {rhs.shape}, expected {self._q.shape}")
            y, info = self._core_solve(rhs)
        else:
            if out is not rhs:
                np.copyto(out, rhs)
            y, info = self._core_solve(out, overwrite_b=1)
        if info != 0:
            raise SingularSystemError(f"tridiagonal core solve failed (info={info})")
        coefficient = self._coefficient
        coefficient[()] = (y[0] + self._v_last * y[-1]) / self._den
        np.subtract(y, np.multiply(coefficient, self._q, out=self._correction), out=y)
        # 0 * x is 0 for a finite x and NaN for an inf or NaN anywhere; vdot,
        # unlike the ufuncs and dot, warns of nothing on the way.
        if out is None and np.vdot(self._zeros, y) != 0:
            raise SingularSystemError(OVERFLOWED)
        return y


def solve_cyclic_tridiagonal(system: CyclicTridiagonalSystem, rhs) -> np.ndarray:
    """Solve the periodic tridiagonal system for one right-hand side."""
    return PreparedCyclicSolver(system).solve(rhs)
