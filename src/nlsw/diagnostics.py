"""Discrete two-level invariants, their per-step identities, and recording.

The midpoint scheme carries a discrete energy E^{j+1/2} and a discrete
mass Q^{j+1/2}, both built from half-node values of the pair
(u^j, u^{j+1}).  For beta = 0 they are conserved exactly; for beta != 0
their per-step increments equal explicit cubic residuals, so the measured
increment minus that residual ("identity gap") must sit at round-off on
any converged trajectory.

The three half-node fields of a pair (time quotient, temporal mean and its
space quotient) come from half_nodes, as a HalfNodes that also computes,
once, the modulus of the mean and the skew sum that the invariants share.
A run builds them once per block of pairs and hands them to the energy,
the mass and the identity mean through their `half` argument, and the
squared modulus of the mean on to the identities; the functions keep no
state between calls.

Every function here takes one pair of levels, shape (K,), or stacks of
pairs, shape [..., K], evaluated row by row: each sum is one np.vecdot or
one sum over the last axis, which gives every row the same bits as its
one-pair evaluation.  One pair gives Python floats, a stack float arrays of
shape [...].  The run loop (mi.integrate) evaluates a block of levels at a
time this way.

The printed constant of the mass identity does not survive re-derivation:
expanding the inner-product argument on a tiny grid shows the increment
equals the stated bilinear form with constant beta/4, not beta/2.  The
corrected constant is the one every run writes and the one run_identity_oracle
accepts on re-measuring it; mass_rhs_printed keeps the printed form for auditing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, UsageError
from .grid import GridSpec, as_level, scalar_or_rows, shift_next
from .model import PdeParams, local_densities, reconstruct_z

# Mass-identity constant as a multiple of beta: printed beta/2, validated beta/4.
PRINTED_MASS_FACTOR = 0.5
VALIDATED_MASS_FACTOR = 0.25

_REALNESS_TOL = 1e-12


# The per-step series of a run, in series.csv column order: Trajectory.series
# maps each name that applies to the run to one array with a row per step.
SERIES_COLUMNS = ("step", "t", "energy_mi", "mass_mi", "energy_gap", "mass_gap",
                  "energy_wang", "err_max", "e_infty_sq", "mod_err", "fp_iters")


def _skew_imag(half, weight, what):
    """Im s of the half-node sum s = sum conj(dx_half) * mid_half of a
    HalfNodes, row-wise for stacks, the sum that both invariants carry.

    Re s telescopes to zero (discrete skew-adjointness).  Raise
    ConsistencyError where |Re s| exceeds
    _REALNESS_TOL * sum |dx_half| |mid_half|, naming the first offending row
    of a stack and reporting weight * Re s, the spurious part that the
    invariant's term puts in.
    """
    s, scale = half.skew
    bad = np.flatnonzero(np.abs(s.real) > _REALNESS_TOL * scale)
    if bad.size:
        row = int(bad[0])
        raise ConsistencyError(f"{what} {weight * np.ravel(s.real)[row]:.3e}", row=row)
    return s.imag


class HalfNodes(tuple):
    """The three fields of half_nodes, (dt_half, mid_half, dx_half), and
    what the invariants and the identities share of them, each computed on
    its first use: abs_mid = |mid_half|, abs2_mid = abs_mid * abs_mid, and
    skew, the sum s of _skew_imag with the scale of its realness check."""

    @functools.cached_property
    def abs_mid(self):
        return np.abs(self[1])

    @functools.cached_property
    def abs2_mid(self):
        return self.abs_mid * self.abs_mid

    @functools.cached_property
    def skew(self):
        _, mid_half, dx_half = self
        return (np.vecdot(dx_half, mid_half),
                np.vecdot(np.abs(dx_half), self.abs_mid))


def half_nodes(u_cur, u_next, grid):
    """Half-node values (slot k is k+1/2) of the time quotient, the temporal
    mean and its space quotient for the pair (u^j, u^{j+1}), or for each row
    of [..., K] stacks of pairs.

    The invariants run on every level of a run, whose levels are already
    checked (see as_level), so only the last axis is checked here: a NaN
    level gives a NaN invariant.

    With u_mid = 0.5 * (u^j + u^{j+1}), du = u^{j+1} - u^j and
    mid_next = shift_next(u_mid), the fields are
        (du + shift_next(du)) * (0.5 / tau), 0.5 * (u_mid + mid_next)
        and (mid_next - u_mid) / h,
    each operation done in place, with the operands and in the order
    written, so that no more than one array beyond the three fields is live.
    """
    v_cur = as_level(u_cur, grid)
    v_next = as_level(u_next, grid)
    du = np.subtract(v_next, v_cur)
    dt_half = shift_next(du)
    np.add(du, dt_half, out=dt_half)
    dt_half *= 0.5 / grid.tau
    u_mid = np.add(v_cur, v_next, out=du)
    np.multiply(0.5, u_mid, out=u_mid)
    mid_next = shift_next(u_mid)
    dx_half = np.subtract(mid_next, u_mid)
    dx_half /= grid.h
    mid_half = np.add(u_mid, mid_next, out=mid_next)
    np.multiply(0.5, mid_half, out=mid_half)
    return HalfNodes((dt_half, mid_half, dx_half))


def mi_energy(u_cur, u_next, params: PdeParams, grid: GridSpec,
              half=None) -> float:
    """Discrete energy E^{j+1/2} of the midpoint scheme.

    E = ||dt u||_{1/2}^2 + i*theta*h*sum u_{k+1/2} dx conj(u)_{k+1/2}
        + ||dx u||_{1/2}^2 + lam*||u||_{1/2}^2 + (beta/2)*h*sum |u_{k+1/2}|^4,

    everything evaluated on the temporal mean u^{j+1/2}.  The theta term is
    real by discrete skew-adjointness, -theta*h*Im s with s as in _skew_imag,
    whose check guards that where theta != 0; on a stack its
    ConsistencyError carries the first offending row.  half, if given, is
    half_nodes(u_cur, u_next, grid), already built, whose shared fields
    (HalfNodes) the mass and the identities then reuse.
    """
    half = half_nodes(u_cur, u_next, grid) if half is None else half
    dt_half, _, dx_half = half
    h = grid.h
    theta_h = params.theta * h
    skew = (theta_h * _skew_imag(half, theta_h,
                                 "discrete energy has spurious imaginary part")
            if params.theta else 0.0)
    abs_mid, abs2_mid = half.abs_mid, half.abs2_mid
    energy = (h * (np.vecdot(dt_half, dt_half).real + np.vecdot(dx_half, dx_half).real
                   + params.lam * np.vecdot(abs_mid, abs_mid)
                   + 0.5 * params.beta * np.vecdot(abs2_mid, abs2_mid))
              - skew)
    return scalar_or_rows(energy)


def mi_mass(u_cur, u_next, params: PdeParams, grid: GridSpec,
            half=None) -> float:
    """Discrete mass Q^{j+1/2} (purely imaginary by construction; the
    imaginary part is returned).

    Q = h*sum [dt u * conj(u) - u * dt conj(u)]_{k+1/2}
        - gamma*h*sum u_{k+1/2} dx conj(u)_{k+1/2}
        - i*alpha*||u||_{1/2}^2,

    with every factor taken at half nodes of the temporal mean (the
    half-node norm in the alpha term is what the derivation produces).  The
    first sum is m - conj(m) with m = sum dt u * conj(u), 2i*Im m; the gamma
    term is -gamma*h*s with s as in _skew_imag, imaginary by discrete
    skew-adjointness, whose check guards that where gamma != 0.  half and
    stacks are as in mi_energy.
    """
    half = half_nodes(u_cur, u_next, grid) if half is None else half
    dt_half, mid_half, _ = half
    h = grid.h
    gamma_h = params.gamma * h
    skew = (gamma_h * _skew_imag(half, -gamma_h,
                                 "discrete mass has spurious real part")
            if params.gamma else 0.0)
    abs_mid = half.abs_mid
    mass = (h * (2.0 * np.vecdot(mid_half, dt_half).imag) - skew
            - params.alpha * h * np.vecdot(abs_mid, abs_mid))
    return scalar_or_rows(mass)


def _half_node_means(u_prev, u_cur, u_next, grid):
    """(a, b, abs2) of _identity_rhs: the half-node values of the two
    temporal means around level j and their squared moduli."""
    plus = half_nodes(u_cur, u_next, grid)
    minus = half_nodes(u_prev, u_cur, grid)
    return plus[1], minus[1], (plus.abs2_mid, minus.abs2_mid)


def _identity_rhs(a, b, abs2, params: PdeParams, grid: GridSpec,
                  factor: float = VALIDATED_MASS_FACTOR):
    """Right-hand sides (energy, mass) of the two identities, from the
    half-node means a of u^{j+1/2} and b of u^{j-1/2} (row-wise for stacks).

    With d = |a|^2 - |b|^2 and c = factor * beta:
        energy: -(beta/2) * h * sum d * |a - b|^2   (|a - b| = tau * |centered
                time quotient|)
        mass:   -c * h * sum d (a-b)(conj a + conj b) + c * h * sum d^2,
                which is purely imaginary; its imaginary part is returned
                (the real c*h*sum d^2 does not enter it).
    factor=0.25 is the validated mass constant that mass_rhs and every run
    use; 0.5 reproduces the printed form, and the oracle fits factor=1.0.

    abs2 is (|a|^2, |b|^2), each x * x of |x| (HalfNodes.abs2_mid), so d is
    one subtraction; a - b, d (a - b) and a + b are formed with the operands
    and in the order written, a + b in the buffer of a - b once the energy
    is summed.
    """
    d = np.subtract(*abs2)
    jump = np.subtract(a, b)
    weighted = np.multiply(d, jump)
    energy = -0.5 * params.beta * grid.h * np.vecdot(jump, weighted).real
    mass = -factor * params.beta * grid.h * np.vecdot(np.add(a, b, out=jump),
                                                       weighted).imag
    return scalar_or_rows(energy), scalar_or_rows(mass)


def energy_rhs(u_prev, u_cur, u_next, params: PdeParams, grid: GridSpec) -> float:
    """Right-hand side of the energy identity (see _identity_rhs)."""
    return _identity_rhs(*_half_node_means(u_prev, u_cur, u_next, grid), params, grid)[0]


def mass_rhs(u_prev, u_cur, u_next, params: PdeParams, grid: GridSpec) -> float:
    """Right-hand side of the mass identity, imaginary part as a real, with
    the validated beta/4; mass_rhs_printed uses the printed beta/2."""
    return _identity_rhs(*_half_node_means(u_prev, u_cur, u_next, grid), params, grid)[1]


def mass_rhs_printed(u_prev, u_cur, u_next, params: PdeParams, grid: GridSpec) -> float:
    return _identity_rhs(*_half_node_means(u_prev, u_cur, u_next, grid), params, grid,
                         PRINTED_MASS_FACTOR)[1]


@dataclass(frozen=True)
class IdentityGaps:
    energy_gap: float
    mass_gap: float


def identity_gaps(d_energy, d_mass, a, b, abs2, params: PdeParams,
                  grid: GridSpec) -> IdentityGaps:
    """Identity gaps from the invariant increments E^{j+1/2} - E^{j-1/2} and
    Q^{j+1/2} - Q^{j-1/2} and the half-node means a, b of the two pairs;
    row-wise for stacks (arrays of increments, [..., K] means).

    A run carries the invariants, the mean of the previous pair and its
    |mean|^2 forward, so each level's invariants and each mean's modulus
    are evaluated once; abs2 is as in _identity_rhs.
    """
    rhs_e, rhs_q = _identity_rhs(a, b, abs2, params, grid)
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
    return identity_gaps(d_energy, d_mass, plus[1], minus[1],
                         (plus.abs2_mid, minus.abs2_mid), params, grid)


def max_rel_drift(values, ref) -> float:
    """The largest |value - ref| / |ref| of an array of values, the scale
    floored at 1e-30."""
    return float((abs(values - ref) / max(abs(ref), 1e-30)).max())


@dataclass(frozen=True)
class ContinuousInvariants:
    energy_cont: float
    mass_cont: float


def continuous_invariants(u_prev, u_cur, u_next, params: PdeParams,
                          grid: GridSpec) -> ContinuousInvariants:
    """Rectangle-rule quadrature of the continuous energy and mass
    integrands at level j on model.reconstruct_z's z, the energy's from
    model.local_densities.  Only O(tau^2 + h^2) accurate; used to
    cross-check the discrete invariants."""
    z = reconstruct_z(u_prev, u_cur, u_next, grid)
    phi, psi, v, w, f, g = z.as_tuple()
    energy = 2.0 * grid.h * np.sum(local_densities(z, params).E)
    mass = grid.h * np.sum(2.0 * (w * phi - v * psi) - params.gamma * (psi * f - phi * g)
                           - params.alpha * (phi * phi + psi * psi))
    return ContinuousInvariants(energy_cont=float(energy), mass_cont=float(mass))


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
    takes the invariant increments from its series, and fits the constant of
    the mass right-hand side.  ok needs the energy identity with its stated
    constant and the fitted mass constant at the validated beta/4 that every
    run writes; the match with the printed beta/2 is recorded for auditing.
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
    series = traj.series
    levels = np.array([u for _, u in traj.snapshots])
    triples = levels[:-2], levels[1:-1], levels[2:]

    # The mass side per unit constant; the energy side does not depend on it.
    rhs_e, base = _identity_rhs(*_half_node_means(*triples, grid), params, grid, 1.0)
    scale = np.maximum(np.maximum(np.abs(series["energy_mi"]), np.abs(rhs_e)), 1.0)
    energy_max = float(np.max(np.abs(series["energy_gap"]) / scale))
    dq = np.diff(series["mass_mi"], prepend=traj.meta["mass_ref"]) / grid.tau
    usable = np.abs(base) > 1e-10
    factors = dq[usable] / base[usable]
    if not factors.size:
        raise UsageError("identity oracle produced no usable mass increments")
    measured = float(np.mean(factors))
    spread = float(np.max(np.abs(factors - measured)))
    matches_validated = (spread < 1e-6
                         and abs(measured - VALIDATED_MASS_FACTOR) < 1e-6)
    matches_printed = (spread < 1e-6
                       and abs(measured - PRINTED_MASS_FACTOR) < 1e-6)
    ok = energy_max < 1e-10 and matches_validated
    return IdentityOracleResult(ok=ok,
                                energy_max_rel_gap=energy_max,
                                measured_mass_factor=measured,
                                mass_matches_validated=matches_validated,
                                mass_matches_printed=matches_printed)
