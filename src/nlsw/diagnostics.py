"""Discrete two-level invariants, their per-step identities, and recording.

The midpoint scheme carries a discrete energy E^{j+1/2} and a discrete
mass Q^{j+1/2}, both built from half-node values of the pair
(u^j, u^{j+1}).  For beta = 0 they are conserved exactly; for beta != 0
their per-step increments equal explicit cubic residuals, so the measured
increment minus that residual ("identity gap") must sit at round-off on
any converged trajectory.

The three half-node fields of a pair (time quotient, temporal mean and its
space quotient) come from half_nodes.  A run builds them once per block of
pairs and hands them to the energy, the mass and the identity mean through
their `half` argument; no state persists between calls.

Every function here takes one pair of levels, shape (K,), or stacks of
pairs, shape [..., K], evaluated row by row: each sum is one np.vecdot or
one sum over the last axis, which gives every row the same bits as its
one-pair evaluation.  One pair gives Python floats, a stack float arrays of
shape [...].  The run loop (mi.integrate) evaluates a block of levels at a
time this way.

The printed constant of the mass identity does not survive re-derivation:
expanding the inner-product argument on a tiny grid shows the increment
equals the stated bilinear form with constant beta/4, not beta/2.  The
corrected constant is the module default; run_identity_oracle re-measures
it empirically and both forms stay available for auditing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, UsageError
from .grid import (GridSpec, as_field, as_level, central_diff, scalar_or_rows,
                   shift_next)
from .model import PdeParams

# Mass-identity constant as a multiple of beta: printed beta/2, validated beta/4.
PRINTED_MASS_FACTOR = 0.5
VALIDATED_MASS_FACTOR = 0.25

_REALNESS_TOL = 1e-12


@dataclass
class DiagnosticsRow:
    """One per-step record; optional fields stay None when not applicable."""

    step: int
    t: float
    energy_mi: float | None = None
    mass_mi: float | None = None
    energy_gap: float | None = None
    mass_gap: float | None = None
    energy_wang: float | None = None
    err_max: float | None = None
    e_infty_sq: float | None = None
    mod_err: float | None = None
    fp_iters: int | None = None


def _check_negligible(part, scale, what):
    """Raise ConsistencyError, naming the first offending row of a stack,
    where |part| exceeds _REALNESS_TOL * scale."""
    bad = np.flatnonzero(np.abs(part) > _REALNESS_TOL * np.maximum(scale, 1e-30))
    if bad.size:
        row = int(bad[0])
        raise ConsistencyError(f"{what} {np.ravel(part)[row]:.3e}", row=row)


def half_nodes(u_cur, u_next, grid):
    """Half-node values (slot k is k+1/2) of the time quotient, the temporal
    mean and its space quotient for the pair (u^j, u^{j+1}), or for each row
    of [..., K] stacks of pairs.

    The invariants run on every level of a run, whose levels are already
    checked (see as_level), so only the last axis is checked here: a NaN
    level gives a NaN invariant.
    """
    v_cur = as_level(u_cur, grid)
    v_next = as_level(u_next, grid)
    u_mid = 0.5 * (v_cur + v_next)
    mid_next = shift_next(u_mid)
    du = v_next - v_cur
    return ((du + shift_next(du)) * (0.5 / grid.tau),
            0.5 * (u_mid + mid_next),
            (mid_next - u_mid) / grid.h)


def mi_energy(u_cur, u_next, params: PdeParams, grid: GridSpec,
              half=None) -> float:
    """Discrete energy E^{j+1/2} of the midpoint scheme.

    E = ||dt u||_{1/2}^2 + i*theta*h*sum u_{k+1/2} dx conj(u)_{k+1/2}
        + ||dx u||_{1/2}^2 + lam*||u||_{1/2}^2 + (beta/2)*h*sum |u_{k+1/2}|^4,

    everything evaluated on the temporal mean u^{j+1/2}.  The theta term is
    real by discrete skew-adjointness; the realness assertion guards that,
    and on a stack its ConsistencyError carries the first offending row.
    half, if given, is half_nodes(u_cur, u_next, grid), already built.
    """
    if half is None:
        half = half_nodes(u_cur, u_next, grid)
    dt_half, mid_half, dx_half = half
    h = grid.h
    abs_mid = np.abs(mid_half)
    abs2_mid = abs_mid * abs_mid
    total = (h * (np.vecdot(dt_half, dt_half).real + np.vecdot(dx_half, dx_half).real
                  + params.lam * np.vecdot(abs_mid, abs_mid)
                  + 0.5 * params.beta * np.vecdot(abs2_mid, abs2_mid))
             + 1j * params.theta * h * np.vecdot(dx_half, mid_half))
    scale = np.maximum(np.abs(total), h * np.vecdot(abs_mid, np.abs(dx_half)))
    _check_negligible(total.imag, scale,
                      "discrete energy has spurious imaginary part")
    return scalar_or_rows(total.real)


def mi_mass(u_cur, u_next, params: PdeParams, grid: GridSpec,
            half=None) -> float:
    """Discrete mass Q^{j+1/2} (purely imaginary by construction; the
    imaginary part is returned).

    Q = h*sum [dt u * conj(u) - u * dt conj(u)]_{k+1/2}
        - gamma*h*sum u_{k+1/2} dx conj(u)_{k+1/2}
        - i*alpha*||u||_{1/2}^2,

    with every factor taken at half nodes of the temporal mean (the
    half-node norm in the alpha term is what the derivation produces).  The
    first sum is m - conj(m) with m = sum dt u * conj(u), exactly imaginary
    like each of its terms, so only the gamma term can trip the realness
    assertion.  half and stacks are as in mi_energy.
    """
    if half is None:
        half = half_nodes(u_cur, u_next, grid)
    dt_half, mid_half, dx_half = half
    h = grid.h
    abs_mid = np.abs(mid_half)
    m = np.vecdot(mid_half, dt_half)
    q = (h * (m - m.conjugate())
         - params.gamma * h * np.vecdot(dx_half, mid_half)
         - 1j * params.alpha * h * np.vecdot(abs_mid, abs_mid))
    scale = np.maximum(np.abs(q), h * np.vecdot(np.abs(dt_half), abs_mid))
    _check_negligible(q.real, scale, "discrete mass has spurious real part")
    return scalar_or_rows(q.imag)


def _half_node_means(u_prev, u_cur, u_next, grid):
    """Half-node values of the two temporal means around level j."""
    return half_nodes(u_cur, u_next, grid)[1], half_nodes(u_prev, u_cur, grid)[1]


def _identity_rhs(a, b, params: PdeParams, grid: GridSpec,
                  factor: float = VALIDATED_MASS_FACTOR):
    """Right-hand sides (energy, mass) of the two identities, from the
    half-node means a of u^{j+1/2} and b of u^{j-1/2} (row-wise for stacks).

    With d = |a|^2 - |b|^2 and c = factor * beta:
        energy: -(beta/2) * h * sum d * |a - b|^2   (|a - b| = tau * |centered
                time quotient|)
        mass:   -c * h * sum d (a-b)(conj a + conj b) + c * h * sum d^2,
                which is purely imaginary; its imaginary part is returned
                (the real c*h*sum d^2 does not enter it).
    factor=0.25 is the empirically validated mass constant; factor=0.5
    reproduces the printed form.
    """
    d = np.abs(a) ** 2 - np.abs(b) ** 2
    jump = a - b
    weighted = d * jump
    energy = -0.5 * params.beta * grid.h * np.vecdot(jump, weighted).real
    mass = -factor * params.beta * grid.h * np.vecdot(a + b, weighted).imag
    return scalar_or_rows(energy), scalar_or_rows(mass)


def energy_rhs(u_prev, u_cur, u_next, params: PdeParams, grid: GridSpec) -> float:
    """Right-hand side of the energy identity (see _identity_rhs)."""
    a, b = _half_node_means(u_prev, u_cur, u_next, grid)
    return _identity_rhs(a, b, params, grid)[0]


def mass_rhs(u_prev, u_cur, u_next, params: PdeParams, grid: GridSpec,
             factor: float = VALIDATED_MASS_FACTOR) -> float:
    """Right-hand side of the mass identity, imaginary part as a real (see
    _identity_rhs for the form and the choice of factor)."""
    a, b = _half_node_means(u_prev, u_cur, u_next, grid)
    return _identity_rhs(a, b, params, grid, factor)[1]


def mass_rhs_printed(u_prev, u_cur, u_next, params: PdeParams, grid: GridSpec) -> float:
    return mass_rhs(u_prev, u_cur, u_next, params, grid, factor=PRINTED_MASS_FACTOR)


@dataclass(frozen=True)
class IdentityGaps:
    energy_gap: float
    mass_gap: float


def identity_gaps(d_energy, d_mass, a, b, params: PdeParams,
                  grid: GridSpec) -> IdentityGaps:
    """Identity gaps from the invariant increments E^{j+1/2} - E^{j-1/2} and
    Q^{j+1/2} - Q^{j-1/2} and the half-node means a, b of the two pairs;
    row-wise for stacks (arrays of increments, [..., K] means).

    A run carries the invariants and the mean of the previous pair forward,
    so each level's invariants are evaluated once.
    """
    rhs_e, rhs_q = _identity_rhs(a, b, params, grid)
    return IdentityGaps(energy_gap=d_energy - rhs_e,
                        mass_gap=d_mass / grid.tau - rhs_q)


def theorem_identity_gaps(u_prev, u_cur, u_next, params: PdeParams,
                          grid: GridSpec) -> IdentityGaps:
    """Measured invariant increments minus their identity right-hand sides.

    energy_gap = (E^{j+1/2} - E^{j-1/2}) - RHS_E
    mass_gap   = (Q^{j+1/2} - Q^{j-1/2})/tau - RHS_Q

    Both sit at round-off for a converged midpoint step.
    """
    plus = half_nodes(u_cur, u_next, grid)
    minus = half_nodes(u_prev, u_cur, grid)
    d_energy = (mi_energy(u_cur, u_next, params, grid, half=plus)
                - mi_energy(u_prev, u_cur, params, grid, half=minus))
    d_mass = (mi_mass(u_cur, u_next, params, grid, half=plus)
              - mi_mass(u_prev, u_cur, params, grid, half=minus))
    return identity_gaps(d_energy, d_mass, plus[1], minus[1], params, grid)


def rel_drift(value, ref) -> float:
    """|value - ref| / |ref|, the scale floored at 1e-30."""
    return abs(value - ref) / max(abs(ref), 1e-30)


@dataclass(frozen=True)
class ContinuousInvariants:
    energy_cont: float
    mass_cont: float


def continuous_invariants(u_prev, u_cur, u_next, params: PdeParams,
                          grid: GridSpec) -> ContinuousInvariants:
    """Rectangle-rule quadrature of the continuous energy and mass
    integrands at level j, with u_t and u_x by centered quotients.  Only
    O(tau^2 + h^2) accurate; used to cross-check the discrete invariants."""
    u_prev = as_field(u_prev, grid)
    u_cur = as_field(u_cur, grid)
    u_next = as_field(u_next, grid)
    ut = (u_next - u_prev) / (2.0 * grid.tau)
    ux = central_diff(u_cur, grid.h)
    abs2 = np.abs(u_cur) ** 2
    energy = grid.h * np.sum(np.abs(ut) ** 2 + np.abs(ux) ** 2
                             + 1j * params.theta * u_cur * np.conj(ux)
                             + params.lam * abs2 + 0.5 * params.beta * abs2 ** 2)
    mass = grid.h * np.sum(ut * np.conj(u_cur) - np.conj(ut) * u_cur
                           - params.gamma * u_cur * np.conj(ux)
                           - 1j * params.alpha * abs2)
    return ContinuousInvariants(energy_cont=float(energy.real),
                                mass_cont=float(mass.imag))


@dataclass(frozen=True)
class IdentityOracleResult:
    """Outcome of the tiny-grid brute-force validation of the identity
    constants, reported in run metadata."""

    ok: bool
    energy_max_rel_gap: float
    measured_mass_factor: float
    mass_matches_validated: bool
    mass_matches_printed: bool
    validated_mass_factor: float = VALIDATED_MASS_FACTOR
    printed_mass_factor: float = PRINTED_MASS_FACTOR


def run_identity_oracle() -> IdentityOracleResult:
    """Validate the identity constants on a K=8 nonlinear trajectory.

    Runs a few midpoint steps on strongly nonlinear data through run_mi,
    takes the invariant increments from its rows, and fits the constant of
    the mass right-hand side.  The energy identity is checked with its stated
    constant; the mass constant is matched against the validated beta/4
    and the printed beta/2 forms.
    """
    from .grid import build_grid
    from .mi import SolverConfig, run_mi
    from .problems import ProblemSpec

    steps, K, tau = 3, 8, 0.05
    params = PdeParams(alpha=-1.0, gamma=0.0, theta=0.0, lam=0.0, beta=2.0)
    problem = ProblemSpec(name="identity_oracle", params=params,
                          x_l=0.0, x_r=2.0 * np.pi, default_T=steps * tau,
                          f0=lambda x: np.exp(1j * x) + 0.3 * np.exp(-2j * x),
                          f1=lambda x: 0.5j * np.exp(1j * x))
    grid = build_grid(problem.x_l, problem.x_r, K, steps * tau, steps)
    traj = run_mi(problem, grid, SolverConfig(fp_tol=1e-15, fp_max_iter=200),
                  snapshot_stride=1)
    levels = [u for _, u in traj.snapshots]

    energy_gaps = []
    factors = []
    mass = traj.meta["mass_ref"]
    for j, row in enumerate(traj.rows, start=1):
        up, uc, un = levels[j - 1], levels[j], levels[j + 1]
        rhs_e = energy_rhs(up, uc, un, params, grid)
        scale = max(abs(row.energy_mi), abs(rhs_e), 1.0)
        energy_gaps.append(abs(row.energy_gap) / scale)
        dq = (row.mass_mi - mass) / grid.tau
        mass = row.mass_mi
        base = mass_rhs(up, uc, un, params, grid, factor=1.0)
        if abs(base) > 1e-10:
            factors.append(dq / base)
    if not factors:
        raise UsageError("identity oracle produced no usable mass increments")
    measured = float(np.mean(factors))
    spread = float(np.max(np.abs(np.asarray(factors) - measured)))
    energy_max = float(np.max(energy_gaps))
    matches_validated = (spread < 1e-6
                         and abs(measured - VALIDATED_MASS_FACTOR) < 1e-6)
    matches_printed = (spread < 1e-6
                       and abs(measured - PRINTED_MASS_FACTOR) < 1e-6)
    ok = energy_max < 1e-10 and (matches_validated or matches_printed)
    return IdentityOracleResult(ok=ok,
                                energy_max_rel_gap=energy_max,
                                measured_mass_factor=measured,
                                mass_matches_validated=matches_validated,
                                mass_matches_printed=matches_printed)
