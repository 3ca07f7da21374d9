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


def write_snapshots_rowwise(path, grid, snapshots):
    """The per-row snapshot writer: one csv.writer row per node, every
    field formatted on its own with f"{v:.17g}" and |u| from Python's abs."""
    import csv

    def fmt(value):
        return f"{float(value):.17g}"

    x = grid.nodes
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("t", "x", "re_u", "im_u", "abs_u"))
        for t, u in snapshots:
            for k in range(grid.K):
                writer.writerow([fmt(t), fmt(x[k]), fmt(u[k].real),
                                 fmt(u[k].imag), fmt(abs(u[k]))])


def write_series_rowwise(path, rows):
    """The per-row series writer: one csv.writer row per step, every field
    formatted on its own, empty for None, str(int) for integers and
    f"{v:.17g}" for anything else."""
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
        for row in rows:
            writer.writerow([fmt(getattr(row, name)) for name in header])
