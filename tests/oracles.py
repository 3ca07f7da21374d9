"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately written against the displayed formulas with
explicit modular indexing and plain Python loops, sharing no code with the
vectorized production paths it is checking.

The residual and invariant oracles are generic over the number type of the
levels: they use +, -, *, division by a real, conjugate() and an imaginary
unit taken from the levels, and write |z|^2 as z conj(z).  So the same code
runs on floats, on numpy arrays (one batch of evaluations per element), and
exactly on GaussianRational levels with Fraction coefficients and mesh.
"""

from fractions import Fraction

import numpy as np


class GaussianRational:
    """An exact complex number real + i imag with Fraction parts.  Ints,
    Fractions, floats and complex numbers mix in exactly (a float is the
    dyadic rational it stores); division is by a real only."""

    __slots__ = ("real", "imag")

    def __init__(self, real, imag=0):
        self.real, self.imag = Fraction(real), Fraction(imag)

    @classmethod
    def of(cls, z):
        return z if isinstance(z, cls) else cls(z.real, z.imag)

    def conjugate(self):
        return GaussianRational(self.real, -self.imag)

    def __add__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.real + other.real, self.imag + other.imag)

    def __neg__(self):
        return GaussianRational(-self.real, -self.imag)

    def __sub__(self, other):
        return self + -GaussianRational.of(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.real * other.real - self.imag * other.imag,
                                self.real * other.imag + self.imag * other.real)

    def __truediv__(self, real):
        real = Fraction(real)
        return GaussianRational(self.real / real, self.imag / real)

    def __eq__(self, other):
        other = GaussianRational.of(other)
        return self.real == other.real and self.imag == other.imag

    __radd__, __rmul__, __hash__ = __add__, __mul__, None

    def __repr__(self):
        return f"GaussianRational({self.real}, {self.imag})"


def _unit(level):
    """The imaginary unit in the number type of a level's entries."""
    return level[0] * 0 + 1j


def _abs2(z):
    """|z|^2 as z conj(z), in z's number type (its imaginary part is 0)."""
    return z * z.conjugate()


def slow_inner_product(u, v, h):
    total = 0.0 + 0.0j
    for uk, vk in zip(u, v):
        total += uk * np.conj(vk)
    return h * total


def slow_quartic_half(u, h):
    K = len(u)
    total = 0.0
    for k in range(K):
        mid = 0.5 * (u[k] + u[(k + 1) % K])
        total += abs(mid) ** 4
    return h * total


def dense_cyclic_matrix(system):
    K = system.size
    A = np.zeros((K, K), dtype=complex)
    for k in range(K):
        A[k, (k - 1) % K] += system.lower[k]
        A[k, k] += system.diag[k]
        A[k, (k + 1) % K] += system.upper[k]
    return A


def dense_solve(system, rhs):
    return np.linalg.solve(dense_cyclic_matrix(system), np.asarray(rhs, dtype=complex))


def mi_residual_direct(u_prev, u_cur, u_next, params, grid):
    """Literal per-node evaluation of the reduced midpoint scheme: a list of
    K values in the number type of the levels."""
    K, h, tau = grid.K, grid.h, grid.tau
    a, g, th, lam, beta = (params.alpha, params.gamma, params.theta,
                           params.lam, params.beta)
    i = _unit(u_next)

    def half(arr, k):
        # value of arr at position k + 1/2
        return (arr[k % K] + arr[(k + 1) % K]) / 2

    def mean_next(k):
        return (u_cur[k % K] + u_next[k % K]) / 2

    def mean_prev(k):
        return (u_prev[k % K] + u_cur[k % K]) / 2

    def cubic(z):
        return _abs2(z) * z

    res = []
    for k in range(K):
        d2t = lambda kk: (half(u_next, kk) - 2 * half(u_cur, kk)
                          + half(u_prev, kk)) / tau ** 2
        term1 = (d2t(k) + d2t(k - 1)) / 2

        d2x_next = (mean_next(k + 1) - 2 * mean_next(k) + mean_next(k - 1)) / h ** 2
        d2x_prev = (mean_prev(k + 1) - 2 * mean_prev(k) + mean_prev(k - 1)) / h ** 2
        term2 = -(d2x_next + d2x_prev) / 2

        dct = lambda kk: (half(u_next, kk) - half(u_prev, kk)) / (2 * tau)
        term3 = -(i * a) * (dct(k) + dct(k - 1)) / 2

        term4 = -(i * th) * ((mean_next(k + 1) - mean_next(k - 1)) / (2 * h)
                             + (mean_prev(k + 1) - mean_prev(k - 1)) / (2 * h)) / 2

        term5 = ((u_next[(k + 1) % K] - u_next[(k - 1) % K])
                 - (u_prev[(k + 1) % K] - u_prev[(k - 1) % K])) * g / (4 * h * tau)

        hp = lambda kk: (mean_next(kk) + mean_next(kk + 1)) / 2
        hm = lambda kk: (mean_prev(kk) + mean_prev(kk + 1)) / 2
        term6 = (hp(k) + hp(k - 1) + hm(k) + hm(k - 1)) * lam / 4
        term7 = (cubic(hp(k)) + cubic(hp(k - 1))
                 + cubic(hm(k)) + cubic(hm(k - 1))) * beta / 4
        res.append(term1 + term2 + term3 + term4 + term5 + term6 + term7)
    return res


def wang_residual_direct(u_prev, u_cur, u_next, params, grid):
    """Literal per-node evaluation of the energy-preserving scheme: a list of
    K values in the number type of the levels."""
    K, h, tau = grid.K, grid.h, grid.tau
    i = _unit(u_next)
    res = []
    for k in range(K):
        d2t = (u_next[k] - 2 * u_cur[k] + u_prev[k]) / tau ** 2
        lap = lambda arr: (arr[(k + 1) % K] - 2 * arr[k] + arr[(k - 1) % K]) / h ** 2
        damping = -(i * params.alpha) * (u_next[k] - u_prev[k]) / (2 * tau)
        cubic = ((_abs2(u_next[k]) + _abs2(u_prev[k]))
                 * (u_next[k] + u_prev[k]) * params.beta / 4)
        res.append(d2t - (lap(u_next) + lap(u_prev)) / 2 + damping + cubic)
    return res


def mi_residual_scale(u_next, params, grid):
    """Natural magnitude of the scheme operator applied to u_next, for
    relative residual bounds."""
    h, tau = grid.h, grid.tau
    row_sum = (abs(0.5 / tau ** 2 + 0.5 / h ** 2) + 2.0 * abs(0.25 / tau ** 2)
               + 2.0 * abs(0.25 / h ** 2) + abs(params.alpha) / tau
               + abs(params.theta) / h + abs(params.gamma) / (tau * h)
               + abs(params.lam) + 3.0 * abs(params.beta)
               * max(1.0, float(np.max(np.abs(u_next)))) ** 2)
    return row_sum * max(1.0, float(np.max(np.abs(u_next))))


def mi_cubic_pair(level_mean):
    """Pair-sum y_{k+1/2} + y_{k-1/2} of |y|^2 y over the half-node means y
    of a temporal mean, from rolled copies."""
    y = 0.5 * (level_mean + np.roll(level_mean, -1))
    cubes = np.abs(y) ** 2 * y
    return cubes + np.roll(cubes, 1)


def picard_reference(window, solver, params, grid, config, scheme, trace=None):
    """The Picard step of scheme "mi" or "wang" as a plain allocating loop:
    the known terms from rolled copies and the scheme's stencil table, the
    cubic term written out (mi_cubic_pair for "mi"), the start, the stall
    rule, the budget
    and their messages as the step kernel states them, and max|u| taken on
    every sweep.  Appends (update, max|u|) of each sweep to trace if given.
    Returns (u, sweeps)."""
    from nlsw import StepFailureError, mi, wang

    _, on_cur, on_prev = (mi if scheme == "mi" else wang)._stencils(params, grid)

    def stencil(coefficients, v):
        lower, diag, upper = coefficients
        return lower * np.roll(v, 1) + diag * v + upper * np.roll(v, -1)

    u_prev = np.asarray(window.u_prev, dtype=complex)
    u_cur = np.asarray(window.u_cur, dtype=complex)
    known = stencil(on_cur, u_cur) + stencil(on_prev, u_prev)
    if params.beta == 0.0:
        return solver.solve(-known), 1
    quarter_beta = 0.25 * params.beta
    if scheme == "mi":
        lagged = mi_cubic_pair(0.5 * (u_prev + u_cur))

        def nonlinear(u):
            return quarter_beta * (lagged + mi_cubic_pair(0.5 * (u_cur + u)))
    else:
        def nonlinear(u):
            return quarter_beta * (np.abs(u) ** 2 + np.abs(u_prev) ** 2) * (u + u_prev)
    if window.u_prev2 is None:
        u = 2.0 * u_cur - u_prev
    else:
        u = 3.0 * (u_cur - u_prev) + np.asarray(window.u_prev2, dtype=complex)
    diff = smallest = np.inf
    stalled = 0
    for it in range(1, config.fp_max_iter + 1):
        u_new = solver.solve(-(known + nonlinear(u)))
        previous, diff = diff, float(np.abs(u_new - u).max())
        peak = float(np.abs(u_new).max())
        u = u_new
        if trace is not None:
            trace.append((diff, peak))
        if diff <= config.fp_tol * max(1.0, peak):
            return u, it
        if diff < smallest:
            smallest, stalled = diff, 0
            continue
        stalled += 1
        if stalled == mi.STALL_SWEEPS:
            raise StepFailureError(
                f"fixed point stalled in sweep {it}: {mi.STALL_SWEEPS} sweeps "
                f"without a smaller update (last two {previous:.3e}, "
                f"{diff:.3e})", residual=diff)
    raise StepFailureError(
        f"fixed point not converged after {config.fp_max_iter} sweeps "
        f"(last update {diff:.3e})", residual=diff)


def write_snapshots_rowwise(path, grid, snapshots):
    """The per-row snapshot writer: one csv.writer row per node, every
    field formatted on its own with f"{v:.17g}" and |u| from Python's abs,
    or inf where |u| is beyond the float max and abs raises."""
    import csv

    def fmt(value):
        return f"{float(value):.17g}"

    def modulus(z):
        try:
            return abs(z)
        except OverflowError:
            return float("inf")

    x = grid.nodes
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("t", "x", "re_u", "im_u", "abs_u"))
        for t, u in snapshots:
            for k in range(grid.K):
                writer.writerow([fmt(t), fmt(x[k]), fmt(u[k].real),
                                 fmt(u[k].imag), fmt(modulus(u[k]))])


def write_series_rowwise(path, series):
    """The per-row series writer: one csv.writer row per step of the series
    columns, every field formatted on its own, empty for an absent column,
    str(int) for integers and f"{v:.17g}" for anything else."""
    import csv

    def fmt(value):
        if value is None:
            return ""
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return f"{float(value):.17g}"

    header = ("step", "t", "energy_mi", "mass_mi", "energy_gap", "mass_gap",
              "energy_wang", "err_max", "e_infty_sq", "mod_err", "fp_iters")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(series["step"])):
            writer.writerow([fmt(series[name][i] if name in series else None)
                             for name in header])


def kinetic_gradient_pairwise(u_cur, u_next, grid):
    """The wang kinetic part of one pair, h ||dt u||^2
    + (h/2)(||dx u^{j+1}||^2 + ||dx u^j||^2), with a backward difference of
    each of the two levels of its own."""
    h = grid.h
    dt = (u_next - u_cur) / grid.tau
    dx_next = (u_next - np.roll(u_next, 1)) / h
    dx_cur = (u_cur - np.roll(u_cur, 1)) / h
    return (h * np.sum(np.abs(dt) ** 2)
            + 0.5 * h * (np.sum(np.abs(dx_next) ** 2) + np.sum(np.abs(dx_cur) ** 2)))


def half_fields_elementwise(u_cur, u_next, grid):
    """Half-node time quotient, temporal mean and its space quotient of the
    pair (u^j, u^{j+1}), node by node: three lists of K values."""
    K = grid.K
    dt = [(n - c) / grid.tau for c, n in zip(u_cur, u_next)]
    mid = [(c + n) / 2 for c, n in zip(u_cur, u_next)]
    return ([(dt[k] + dt[(k + 1) % K]) / 2 for k in range(K)],
            [(mid[k] + mid[(k + 1) % K]) / 2 for k in range(K)],
            [(mid[(k + 1) % K] - mid[k]) / grid.h for k in range(K)])


def mi_energy_elementwise(u_cur, u_next, params, grid):
    """E^{j+1/2}, its terms summed node by node; the real part."""
    dt_half, mid_half, dx_half = half_fields_elementwise(u_cur, u_next, grid)
    i = _unit(mid_half)
    total = 0
    for dt, mid, dx in zip(dt_half, mid_half, dx_half):
        abs2_mid = _abs2(mid)
        total += (_abs2(dt) + i * params.theta * mid * dx.conjugate() + _abs2(dx)
                  + abs2_mid * params.lam + abs2_mid * abs2_mid * params.beta / 2)
    return (total * grid.h).real


def mi_mass_elementwise(u_cur, u_next, params, grid):
    """Im Q^{j+1/2}, its terms summed node by node."""
    dt_half, mid_half, dx_half = half_fields_elementwise(u_cur, u_next, grid)
    i = _unit(mid_half)
    q = 0
    for dt, mid, dx in zip(dt_half, mid_half, dx_half):
        q += (dt * mid.conjugate() - mid * dt.conjugate()
              - mid * dx.conjugate() * params.gamma - i * params.alpha * _abs2(mid))
    return (q * grid.h).imag


def energy_wang_elementwise(u_cur, u_next, params, grid):
    """The energy-preserving scheme's two-level energy,
    h ||dt u||^2 + (h/2)(||dx u^{j+1}||^2 + ||dx u^j||^2)
    + (beta/4) h sum (|u^{j+1}|^4 + |u^j|^4), summed node by node."""
    K, h = grid.K, grid.h
    total = 0
    for k in range(K):
        quartic = _abs2(u_next[k]) * _abs2(u_next[k]) + _abs2(u_cur[k]) * _abs2(u_cur[k])
        total += (_abs2((u_next[k] - u_cur[k]) / grid.tau)
                  + (_abs2((u_next[k] - u_next[k - 1]) / h)
                     + _abs2((u_cur[k] - u_cur[k - 1]) / h)) / 2
                  + quartic * params.beta / 4)
    return (total * h).real


def identity_rhs_elementwise(a, b, params, grid, factor=Fraction(1, 4)):
    """(energy, Im mass) right-hand sides of the two identities from the
    half-node means a, b, their terms summed node by node; factor is the
    mass constant as a multiple of beta."""
    energy = mass = 0
    for x, y in zip(a, b):
        d = _abs2(x) - _abs2(y)
        energy += d * _abs2(x - y)
        mass += d * d - d * (x - y) * (x + y).conjugate()
    return ((energy * (-params.beta * grid.h / 2)).real,
            (mass * (factor * params.beta * grid.h)).imag)


# The allocating numpy expressions that the in-place production code of
# diagnostics.half_nodes and diagnostics._identity_rhs replaced, and the
# taylor2 bootstrap with rolled copies in place of grid's differences.  Each
# operation here has the operands and order of the production code, so the
# two must agree bit for bit, signed zeros and subnormals included; shifts
# are np.roll along the last axis.

def half_nodes_allocating(u_cur, u_next, grid):
    u_mid = 0.5 * (u_cur + u_next)
    mid_next = np.roll(u_mid, -1, axis=-1)
    du = u_next - u_cur
    return ((du + np.roll(du, -1, axis=-1)) * (0.5 / grid.tau),
            0.5 * (u_mid + mid_next),
            (mid_next - u_mid) / grid.h)


def identity_rhs_allocating(a, b, params, grid, factor=0.25):
    d = np.abs(a) ** 2 - np.abs(b) ** 2
    jump = a - b
    weighted = d * jump
    energy = -0.5 * params.beta * grid.h * np.vecdot(jump, weighted).real
    mass = -factor * params.beta * grid.h * np.vecdot(a + b, weighted).imag
    return energy, mass


def taylor2_allocating(u0, v0, params, grid):
    """u^1 of the taylor2 bootstrap from u^0 and the initial velocity v0."""
    h = grid.h

    def central(u):
        return (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * h)

    utt = ((np.roll(u0, -1) - 2.0 * u0 + np.roll(u0, 1)) / (h * h)
           - params.gamma * central(v0)
           + 1j * params.alpha * v0
           + 1j * params.theta * central(u0)
           - params.lam * u0
           - params.beta * np.abs(u0) ** 2 * u0)
    return u0 + grid.tau * v0 + 0.5 * grid.tau ** 2 * utt

