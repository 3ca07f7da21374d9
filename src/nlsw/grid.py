"""Uniform periodic space-time grid and the discrete calculus on it.

Complex fields live on the K spatial nodes x_k = x_l + k*h; index K aliases
index 0, so all index arithmetic is modulo K.  Half-node quantities (the
average (u_k + u_{k+1})/2 and the forward quotient (u_{k+1} - u_k)/h at
x_{k+1/2}) are stored as length-K arrays where slot k holds the value at
position k + 1/2; the periodic wrap pairs (K-1, 0).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import ConfigurationError, UsageError

DIFFERENCE_KINDS = ("forward", "backward", "central", "second",
                    "half_average", "half_forward")


def is_number(value, kind=Real) -> bool:
    """Whether value is a kind (Real or Integral) inside the float range; a
    bool is never a number, and NaN and the infinities are out of range."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


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
    needs J >= 2; all five are numbers as is_number has it, K and J integers.
    """
    for name, value, kind in (("x_l", x_l, Real), ("x_r", x_r, Real), ("K", K, Integral),
                              ("T", T, Real), ("J", J, Integral)):
        if not is_number(value, kind):
            noun = "an integer" if kind is Integral else "a real number"
            raise ConfigurationError(f"{name}={value!r} is not {noun} in the float range")
    K, J = int(K), int(J)
    if K > np.iinfo(np.intp).max:
        raise ConfigurationError(f"K={K} is beyond numpy's index range")
    if not x_r > x_l:
        raise ConfigurationError(f"need x_r > x_l, got [{x_l}, {x_r}]")
    if K < 4:
        raise ConfigurationError(f"K={K} too small: stencil needs K >= 4")
    if J < 2:
        raise ConfigurationError(f"J={J} too small: two-step scheme needs J >= 2")
    if not T > 0:
        raise ConfigurationError(f"final time must be positive, got T={T}")
    h = (float(x_r) - float(x_l)) / K
    tau = float(T) / J
    # The stencils divide by tau^2, h^2 and tau*h.
    if not _finite_inverse_square(tau):
        raise ConfigurationError(
            f"T={T} is too small for J={J}: 1/tau^2 is not finite")
    if not _finite_inverse_square(h):
        raise ConfigurationError(
            f"[{x_l}, {x_r}] is too short for K={K}: 1/h^2 is not finite")
    return GridSpec(x_l=float(x_l), x_r=float(x_r), K=K, J=J, T=float(T),
                    h=h, tau=tau)


def _finite_inverse_square(step: float) -> bool:
    square = step * step
    return square > 0.0 and math.isfinite(1.0 / square)


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
    """Coerce to complex mesh functions, shape [..., K], without scanning them.

    For time levels inside a run: bootstrap checks the first two with
    as_field, and every step rejects a non-finite new level, so the step
    kernels and the diagnostics only need the last axis to be the mesh.
    """
    u = np.asarray(values, dtype=np.complex128)
    if u.ndim == 0 or u.shape[-1] != grid.K:
        raise UsageError(f"mesh function has shape {u.shape}, grid has K={grid.K}")
    return u


def scalar_or_rows(values):
    """A Python float for a reduction over one mesh function, the float
    array as it is for a reduction over a [..., K] stack."""
    return float(values) if np.ndim(values) == 0 else values


# Periodic shifts along the last (mesh) axis, so that they and the stencils
# below act on one level or on a [..., K] stack of levels alike: slot k of
# shift_next(u) holds u_{k+1}, slot k of shift_prev(u) holds u_{k-1}.  They
# give the same arrays as numpy's roll by -1 and +1 at a fraction of its call
# overhead.

def shift_next(u):
    return np.concatenate((u[..., 1:], u[..., :1]), axis=-1)


def shift_prev(u):
    return np.concatenate((u[..., -1:], u[..., :-1]), axis=-1)


def stencil(coefficients, u):
    """Three-point periodic stencil (lower, diag, upper), scalars or length-K
    arrays, on the last axis of u: slot k holds
    lower*u_{k-1} + diag*u_k + upper*u_{k+1}."""
    lower, diag, upper = coefficients
    return lower * shift_prev(u) + diag * u + upper * shift_next(u)


# Bare periodic stencils on the last axis.  These skip validation and are
# shared by the time-stepping kernels and the diagnostics; the public
# apply_difference below wraps them.

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
