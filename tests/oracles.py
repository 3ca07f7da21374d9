"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately written against the displayed formulas with
explicit modular indexing and plain Python loops, sharing no code with the
vectorized production paths it is checking.
"""

import numpy as np


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
    """Literal per-node evaluation of the reduced midpoint scheme."""
    K, h, tau = grid.K, grid.h, grid.tau
    a, g, th, lam, beta = (params.alpha, params.gamma, params.theta,
                           params.lam, params.beta)

    def half(arr, k):
        # value of arr at position k + 1/2
        return 0.5 * (arr[k % K] + arr[(k + 1) % K])

    def mean_next(k):
        return 0.5 * (u_cur[k % K] + u_next[k % K])

    def mean_prev(k):
        return 0.5 * (u_prev[k % K] + u_cur[k % K])

    def cubic(z):
        return abs(z) ** 2 * z

    res = np.zeros(K, dtype=complex)
    for k in range(K):
        d2t = lambda kk: (half(u_next, kk) - 2.0 * half(u_cur, kk)
                          + half(u_prev, kk)) / tau ** 2
        term1 = 0.5 * (d2t(k) + d2t(k - 1))

        d2x_next = (mean_next(k + 1) - 2.0 * mean_next(k) + mean_next(k - 1)) / h ** 2
        d2x_prev = (mean_prev(k + 1) - 2.0 * mean_prev(k) + mean_prev(k - 1)) / h ** 2
        term2 = -0.5 * (d2x_next + d2x_prev)

        dct = lambda kk: (half(u_next, kk) - half(u_prev, kk)) / (2.0 * tau)
        term3 = -0.5j * a * (dct(k) + dct(k - 1))

        term4 = -0.5j * th * ((mean_next(k + 1) - mean_next(k - 1)) / (2.0 * h)
                              + (mean_prev(k + 1) - mean_prev(k - 1)) / (2.0 * h))

        term5 = g * ((u_next[(k + 1) % K] - u_next[(k - 1) % K])
                     - (u_prev[(k + 1) % K] - u_prev[(k - 1) % K])) \
            / (2.0 * h * 2.0 * tau)

        hp = lambda kk: 0.5 * (mean_next(kk) + mean_next(kk + 1))
        hm = lambda kk: 0.5 * (mean_prev(kk) + mean_prev(kk + 1))
        term6 = 0.25 * lam * (hp(k) + hp(k - 1) + hm(k) + hm(k - 1))
        term7 = 0.25 * beta * (cubic(hp(k)) + cubic(hp(k - 1))
                               + cubic(hm(k)) + cubic(hm(k - 1)))
        res[k] = term1 + term2 + term3 + term4 + term5 + term6 + term7
    return res


def wang_residual_direct(u_prev, u_cur, u_next, params, grid):
    """Literal per-node evaluation of the energy-preserving scheme."""
    K, h, tau = grid.K, grid.h, grid.tau
    res = np.zeros(K, dtype=complex)
    for k in range(K):
        d2t = (u_next[k] - 2.0 * u_cur[k] + u_prev[k]) / tau ** 2
        lap = lambda arr: (arr[(k + 1) % K] - 2.0 * arr[k] + arr[(k - 1) % K]) / h ** 2
        damping = -1j * params.alpha * (u_next[k] - u_prev[k]) / (2.0 * tau)
        cubic = (0.5 * params.beta
                 * (abs(u_next[k]) ** 2 + abs(u_prev[k]) ** 2)
                 * 0.5 * (u_next[k] + u_prev[k]))
        res[k] = d2t - 0.5 * (lap(u_next) + lap(u_prev)) + damping + cubic
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
    pair (u^j, u^{j+1}), each built from its own shifted copies."""
    u_cur = np.asarray(u_cur, dtype=complex)
    u_next = np.asarray(u_next, dtype=complex)
    dt = (u_next - u_cur) / grid.tau
    mid = 0.5 * (u_cur + u_next)
    return (0.5 * (dt + np.roll(dt, -1)), 0.5 * (mid + np.roll(mid, -1)),
            (np.roll(mid, -1) - mid) / grid.h)


def mi_energy_elementwise(u_cur, u_next, params, grid):
    """E^{j+1/2} with every sum formed elementwise and then summed."""
    dt_half, mid_half, dx_half = half_fields_elementwise(u_cur, u_next, grid)
    h = grid.h
    abs2_mid = np.abs(mid_half) ** 2
    total = (h * (np.abs(dt_half) ** 2).sum()
             + 1j * params.theta * h * (mid_half * np.conj(dx_half)).sum()
             + h * (np.abs(dx_half) ** 2).sum()
             + params.lam * h * abs2_mid.sum()
             + 0.5 * params.beta * h * (abs2_mid ** 2).sum())
    return float(total.real)


def mi_mass_elementwise(u_cur, u_next, params, grid):
    """Im Q^{j+1/2} with every sum formed elementwise and then summed."""
    dt_half, mid_half, dx_half = half_fields_elementwise(u_cur, u_next, grid)
    h = grid.h
    q = (h * (dt_half * np.conj(mid_half) - mid_half * np.conj(dt_half)).sum()
         - params.gamma * h * (mid_half * np.conj(dx_half)).sum()
         - 1j * params.alpha * h * (np.abs(mid_half) ** 2).sum())
    return float(q.imag)


def identity_rhs_elementwise(a, b, params, grid, factor=0.25):
    """(energy, Im mass) right-hand sides of the two identities from the
    half-node means a, b, every sum formed elementwise."""
    d = np.abs(a) ** 2 - np.abs(b) ** 2
    energy = -0.5 * params.beta * grid.h * (d * np.abs(a - b) ** 2).sum()
    c = factor * params.beta
    mass = (-c * grid.h * (d * (a - b) * np.conj(a + b)).sum()
            + c * grid.h * (d * d).sum())
    return float(energy), float(mass.imag)
