"""PDE coefficients, first-order reformulation, and conservation densities.

The governing equation on a periodic interval is

    u_tt - u_xx + gamma*u_tx - i*alpha*u_t - i*theta*u_x
        + lam*u + beta*|u|^2 u = 0,

with five real coefficients.  Writing u = phi + i*psi, u_t = v + i*w,
u_x = f + i*g gives the equivalent real system

    M z_t + K z_x = grad S(z),       z = (phi, psi, v, w, f, g),

with constant skew-symmetric M, K and scalar potential S.  Solutions carry
local energy and momentum conservation laws dE/dt + dF/dx = 0 and
dI/dt + dG/dx = 0 whose densities are evaluated pointwise here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError
from .grid import GridSpec, as_field, central_diff, is_number, shown


@dataclass(frozen=True)
class PdeParams:
    """Coefficients (alpha, gamma, theta, lam, beta) of the governing PDE."""

    alpha: float
    gamma: float
    theta: float
    lam: float
    beta: float

    def __post_init__(self):
        for name in ("alpha", "gamma", "theta", "lam", "beta"):
            value = getattr(self, name)
            if not is_number(value):
                raise ConfigurationError(
                    f"coefficient {name} must be a finite number, got {shown(value)}")
        # The first-order reduction divides by 1 - gamma^2/4.
        if abs(1.0 - 0.25 * self.gamma * self.gamma) < 1e-12:
            raise ConfigurationError(
                "gamma = +-2 degenerates the first-order reduction "
                "(determinant 1 - gamma^2/4 vanishes)")


@dataclass(frozen=True)
class ZField:
    """Real component fields of z = (phi, psi, v, w, f, g) on the grid."""

    phi: np.ndarray
    psi: np.ndarray
    v: np.ndarray
    w: np.ndarray
    f: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.phi)
        for name in ("psi", "v", "w", "f", "g"):
            if np.shape(getattr(self, name)) != shape:
                raise UsageError("ZField components must have equal shapes")

    def as_tuple(self):
        return (self.phi, self.psi, self.v, self.w, self.f, self.g)


def hamiltonian_S(z, params: PdeParams):
    """Scalar potential S(z); accepts scalars or arrays componentwise."""
    phi, psi, v, w, f, g = z
    n2 = phi * phi + psi * psi
    return -0.5 * (params.lam * n2 + 0.5 * params.beta * n2 * n2
                   + v * v + w * w - (f * f + g * g)
                   + params.gamma * (v * f + w * g))


def grad_S(z, params: PdeParams):
    """Componentwise gradient of S; matches the right-hand sides of the
    first-order system."""
    phi, psi, v, w, f, g = z
    n2 = phi * phi + psi * psi
    half_gamma = 0.5 * params.gamma
    return np.array([
        -params.lam * phi - params.beta * n2 * phi,
        -params.lam * psi - params.beta * n2 * psi,
        -v - half_gamma * f,
        -w - half_gamma * g,
        f - half_gamma * v,
        g - half_gamma * w,
    ])


def structure_matrices(params: PdeParams):
    """The constant skew-symmetric matrices (M, K) of M z_t + K z_x = grad S."""
    a, hg, th = params.alpha, 0.5 * params.gamma, params.theta
    M = np.array([
        [0.0,   a,   1.0, 0.0, hg,  0.0],
        [-a,    0.0, 0.0, 1.0, 0.0, hg],
        [-1.0,  0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0,  -1.0, 0.0, 0.0, 0.0, 0.0],
        [-hg,   0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0,  -hg,  0.0, 0.0, 0.0, 0.0],
    ])
    K = np.array([
        [0.0,  th,   hg,  0.0, -1.0, 0.0],
        [-th,  0.0,  0.0, hg,  0.0, -1.0],
        [-hg,  0.0,  0.0, 0.0, 0.0,  0.0],
        [0.0, -hg,   0.0, 0.0, 0.0,  0.0],
        [1.0,  0.0,  0.0, 0.0, 0.0,  0.0],
        [0.0,  1.0,  0.0, 0.0, 0.0,  0.0],
    ])
    return M, K


@dataclass(frozen=True)
class Densities:
    E: np.ndarray
    F: np.ndarray
    I: np.ndarray
    G: np.ndarray


def local_densities(z, params: PdeParams) -> Densities:
    """Energy density E, energy flux F, momentum density I, momentum flux G.

    For any smooth u, dE/dt + dF/dx = Re(R conj(u_t)) and
    dI/dt + dG/dx = -Re(R conj(u_x)), with R the left-hand side of the PDE
    (multiply it by conj(u_t) or conj(u_x) and take real parts)."""
    phi, psi, v, w, f, g = z if not isinstance(z, ZField) else z.as_tuple()
    n2 = phi * phi + psi * psi
    vw2 = v * v + w * w
    fg2 = f * f + g * g
    E = 0.5 * (params.lam * n2 + 0.5 * params.beta * n2 * n2 + vw2 + fg2
               + params.theta * (phi * g - psi * f))
    F = (0.5 * params.gamma * vw2 + 0.5 * params.theta * (psi * v - phi * w)
         - (f * v + g * w))
    I = (0.5 * params.alpha * (phi * g - psi * f) - (f * v + g * w)
         - 0.5 * params.gamma * fg2)
    G = (-0.5 * params.lam * n2 - 0.25 * params.beta * n2 * n2
         + 0.5 * (vw2 + fg2) - 0.5 * params.alpha * (phi * w - psi * v))
    return Densities(E=E, F=F, I=I, G=G)


def reconstruct_z(u_prev, u_cur, u_next, grid: GridSpec) -> ZField:
    """Second-order z reconstruction from three consecutive time levels:
    u_t by the centered time quotient, u_x by the centered space quotient."""
    u_prev = as_field(u_prev, grid)
    u_cur = as_field(u_cur, grid)
    u_next = as_field(u_next, grid)
    ut = (u_next - u_prev) / (2.0 * grid.tau)
    ux = central_diff(u_cur, grid.h)
    return ZField(phi=u_cur.real.copy(), psi=u_cur.imag.copy(),
                  v=ut.real, w=ut.imag, f=ux.real, g=ux.imag)


@dataclass(frozen=True)
class LawResiduals:
    energy_res: np.ndarray
    momentum_res: np.ndarray


def local_law_residual(z_prev: ZField, z_cur: ZField, z_next: ZField,
                       params: PdeParams, grid: GridSpec) -> LawResiduals:
    """Centered-difference divergence of (E, F) and (I, G) along a z
    trajectory; decays at second order for a converged smooth solution."""
    d_prev = local_densities(z_prev, params)
    d_cur = local_densities(z_cur, params)
    d_next = local_densities(z_next, params)
    two_tau = 2.0 * grid.tau
    energy = (d_next.E - d_prev.E) / two_tau + central_diff(d_cur.F, grid.h)
    momentum = (d_next.I - d_prev.I) / two_tau + central_diff(d_cur.G, grid.h)
    return LawResiduals(energy_res=energy.real, momentum_res=momentum.real)


def pde_utt(u, u_t, u_x, u_xx, u_tx, params: PdeParams):
    """The PDE solved for u_tt,
        u_xx - gamma*u_tx + i*alpha*u_t + i*theta*u_x - lam*u - beta*|u|^2 u,
    from numbers or from arrays of equal shape."""
    return (u_xx - params.gamma * u_tx
            + 1j * params.alpha * u_t + 1j * params.theta * u_x
            - params.lam * u - params.beta * abs(u) ** 2 * u)


def continuous_residual(u_exact, params: PdeParams, point) -> complex:
    """Left-hand side of the PDE at one (x, t) point for a smooth candidate
    solution, u_tt - pde_utt, with derivatives by 4th-order central
    differencing.

    The step 3e-4 balances stencil truncation against round-off for
    temporal/spatial frequencies up to ~10, keeping true solutions below
    ~1e-7 while O(1) defects stay unambiguous.
    """
    x, t = point
    d = 3e-4

    def u(xx, tt):
        return complex(u_exact(xx, tt))

    def d1(fn):
        return (-fn(2 * d) + 8.0 * fn(d) - 8.0 * fn(-d) + fn(-2 * d)) / (12.0 * d)

    def d2(fn):
        return (-fn(2 * d) + 16.0 * fn(d) - 30.0 * fn(0.0)
                + 16.0 * fn(-d) - fn(-2 * d)) / (12.0 * d * d)

    u0 = u(x, t)
    ut = d1(lambda e: u(x, t + e))
    ux = d1(lambda e: u(x + e, t))
    utt = d2(lambda e: u(x, t + e))
    uxx = d2(lambda e: u(x + e, t))
    utx = d1(lambda e: d1(lambda s: u(x + s, t + e)))
    return utt - pde_utt(u0, ut, ux, uxx, utx, params)
