"""Uniform periodic space-time grid and the discrete calculus on it.

Complex fields live on the K spatial nodes x_k = x_l + k*h; index K aliases
index 0, so all index arithmetic is modulo K.  Half-node quantities (the
average (u_k + u_{k+1})/2 and the forward quotient (u_{k+1} - u_k)/h at
x_{k+1/2}) are stored as length-K arrays where slot k holds the value at
position k + 1/2; the periodic wrap pairs (K-1, 0).
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError

DIFFERENCE_KINDS = ("forward", "backward", "central", "second",
                    "half_average", "half_forward")


@dataclass(frozen=True)
class GridSpec:
    """Uniform mesh: K periodic cells on [x_l, x_r), J time steps up to T."""

    x_l: float
    x_r: float
    K: int
    J: int
    T: float
    h: float
    tau: float

    @property
    def nodes(self) -> np.ndarray:
        """Spatial nodes x_k = x_l + k*h for k = 0..K-1."""
        return self.x_l + self.h * np.arange(self.K)

    @property
    def times(self) -> np.ndarray:
        """Time levels t_j = j*tau for j = 0..J."""
        return self.tau * np.arange(self.J + 1)


def build_grid(x_l, x_r, K, T, J) -> GridSpec:
    """Construct a GridSpec with h = (x_r - x_l)/K and tau = T/J.

    The three-node periodic stencils need K >= 4, and a two-step scheme
    needs J >= 2; K and J must be integers (numpy integers included).
    """
    if not (isinstance(K, numbers.Integral) and isinstance(J, numbers.Integral)):
        raise ConfigurationError(f"K and J must be integers, got K={K!r}, J={J!r}")
    K, J = int(K), int(J)
    for name, n in (("K", K), ("J", J)):
        if n > sys.float_info.max:
            raise ConfigurationError(f"{name} is beyond the float range")
    if not (np.isfinite(x_l) and np.isfinite(x_r) and x_r > x_l):
        raise ConfigurationError(f"need x_r > x_l, got [{x_l}, {x_r}]")
    if K < 4:
        raise ConfigurationError(f"K={K} too small: stencil needs K >= 4")
    if J < 2:
        raise ConfigurationError(f"J={J} too small: two-step scheme needs J >= 2")
    if not (np.isfinite(T) and T > 0):
        raise ConfigurationError(f"final time must be positive, got T={T}")
    return GridSpec(x_l=float(x_l), x_r=float(x_r), K=K, J=J, T=float(T),
                    h=(float(x_r) - float(x_l)) / K, tau=float(T) / J)


def as_field(values, grid: GridSpec | None = None) -> np.ndarray:
    """Coerce to a 1-D complex mesh function and enforce its invariants."""
    u = np.asarray(values, dtype=np.complex128)
    if u.ndim != 1:
        raise UsageError(f"mesh function must be 1-D, got shape {u.shape}")
    if grid is not None and u.shape[0] != grid.K:
        raise UsageError(f"mesh function has length {u.shape[0]}, grid has K={grid.K}")
    if not np.all(np.isfinite(u)):
        raise UsageError("mesh function contains NaN/Inf entries")
    return u


def as_level(values, grid: GridSpec) -> np.ndarray:
    """Coerce to a complex mesh function of length K without scanning it.

    For time levels inside a run: bootstrap checks the first two with
    as_field, and every step rejects a non-finite new level, so the step
    kernels and per-step diagnostics only need the shape.
    """
    u = np.asarray(values, dtype=np.complex128)
    if u.shape != (grid.K,):
        raise UsageError(f"mesh function has shape {u.shape}, grid has K={grid.K}")
    return u


# Periodic shifts: slot k of shift_next(u) holds u_{k+1}, slot k of
# shift_prev(u) holds u_{k-1}.  They give the same arrays as numpy's roll by
# -1 and +1 at a fraction of its call overhead.

def shift_next(u):
    return np.concatenate((u[1:], u[:1]))


def shift_prev(u):
    return np.concatenate((u[-1:], u[:-1]))


def stencil(coefficients, u):
    """Three-point periodic stencil (lower, diag, upper), scalars or length-K
    arrays: slot k holds lower*u_{k-1} + diag*u_k + upper*u_{k+1}."""
    lower, diag, upper = coefficients
    return lower * shift_prev(u) + diag * u + upper * shift_next(u)


# Bare periodic stencils.  These skip validation and are shared by the
# time-stepping kernels; the public apply_difference below wraps them.

def forward_diff(u, h):
    return (shift_next(u) - u) / h


def backward_diff(u, h):
    return (u - shift_prev(u)) / h


def central_diff(u, h):
    return (shift_next(u) - shift_prev(u)) / (2.0 * h)


def second_diff(u, h):
    return (shift_next(u) - 2.0 * u + shift_prev(u)) / (h * h)


def half_average(u):
    """Node field -> half-node field of cell means (slot k is k+1/2)."""
    return 0.5 * (u + shift_next(u))


def pair_sum(y):
    """Half-node field -> node field y_{k+1/2} + y_{k-1/2}."""
    return y + shift_prev(y)


_DISPATCH = {
    "forward": lambda u, g: forward_diff(u, g.h),
    "backward": lambda u, g: backward_diff(u, g.h),
    "central": lambda u, g: central_diff(u, g.h),
    "second": lambda u, g: second_diff(u, g.h),
    "half_average": lambda u, g: half_average(u),
    "half_forward": lambda u, g: forward_diff(u, g.h),
}


def apply_difference(kind: str, u, grid: GridSpec) -> np.ndarray:
    """Apply one of the periodic difference quotients to a mesh function.

    Kinds: forward (u_{k+1}-u_k)/h, backward (u_k-u_{k-1})/h, central
    (u_{k+1}-u_{k-1})/(2h), second (u_{k+1}-2u_k+u_{k-1})/h^2, plus the
    half-node kinds half_average (u_k+u_{k+1})/2 and half_forward
    (u_{k+1}-u_k)/h, which are indexed at k+1/2.
    """
    if kind not in _DISPATCH:
        raise UsageError(f"unknown difference kind {kind!r}; "
                         f"expected one of {DIFFERENCE_KINDS}")
    return _DISPATCH[kind](as_field(u, grid), grid)


def inner_product(u, v, grid: GridSpec) -> complex:
    """Discrete inner product h * sum_k u_k * conj(v_k)."""
    u = as_field(u, grid)
    v = as_field(v, grid)
    return grid.h * complex(np.sum(u * np.conj(v)))


@dataclass(frozen=True)
class Norms:
    l2: float
    half_l2: float
    max: float
    quartic_half: float


def norms(u, grid: GridSpec) -> Norms:
    """l2 norm, half-node l2 norm, max norm, and the half-node quartic sum.

    quartic_half is h * sum_k |u_{k+1/2}|^4 (a plain weighted sum, not the
    square of half_l2^2).
    """
    u = as_field(u, grid)
    uh = half_average(u)
    abs2 = np.abs(u) ** 2
    abs2h = np.abs(uh) ** 2
    return Norms(
        l2=float(np.sqrt(grid.h * np.sum(abs2))),
        half_l2=float(np.sqrt(grid.h * np.sum(abs2h))),
        max=float(np.max(np.abs(u))),
        quartic_half=float(grid.h * np.sum(abs2h ** 2)),
    )
