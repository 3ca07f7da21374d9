"""Benchmark problems, error metrics, and convergence-order fitting.

Five built-in problems cover the standard test battery: two plane waves
with the full coefficient set, a cubic plane wave, a sech-profile standing
wave, and a splitting Gaussian-type pulse.  Problems whose claimed exact
solution actually satisfies the PDE are flagged "verified" and gate-checked
at construction; the sech problem's claimed solution leaves an O(1) cubic
defect, so it is kept as a conservation benchmark only and flagged
"claimed_inconsistent".
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, UsageError
from .grid import GridSpec, as_level, scalar_or_rows
from .model import PdeParams, continuous_residual

EXACTNESS_LEVELS = ("verified", "claimed_inconsistent", "none")

_RESIDUAL_GATE = 1e-6
_PERIODIC_GATE = 1e-12
# The residual gate's 20 sample points, as fractions of the x range and of
# the t range: the additive R2 low-discrepancy sequence for n = 1..20.
_GATE_POINTS = tuple(((n * 0.7548776662466927) % 1.0, (n * 0.5698402909980532) % 1.0)
                     for n in range(1, 21))


@dataclass(frozen=True)
class ProblemSpec:
    """A benchmark: coefficients, domain, initial data, optional exact
    solution, and how much that exact solution can be trusted.

    exact(x, t) takes the node array x and a time t, a float or a column of
    n times, shape (n, 1).  For the column it returns shape (n, len(x)),
    whose row i equals exact(x, t_i) exactly, since a run evaluates the
    exact solution once per block of levels (see mi.integrate).  Verified
    problems are checked for this at construction.
    """

    name: str
    params: PdeParams
    x_l: float
    x_r: float
    default_T: float
    f0: Callable[[np.ndarray], np.ndarray]
    f1: Callable[[np.ndarray], np.ndarray]
    exact: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    exactness: str = "none"
    notes: tuple = ()

    def __post_init__(self):
        if self.exactness not in EXACTNESS_LEVELS:
            raise ConfigurationError(f"unknown exactness level {self.exactness!r}")
        if self.exactness == "verified" and self.exact is None:
            raise ConfigurationError("verified problems must carry an exact solution")
        self._check_periodic_compatibility()
        if self.exactness == "verified":
            self._check_exactness()
            self._check_time_column()

    def _check_periodic_compatibility(self):
        for fn, label in ((self.f0, "f0"), (self.f1, "f1")):
            lo = complex(fn(np.array([self.x_l]))[0])
            hi = complex(fn(np.array([self.x_r]))[0])
            if abs(lo - hi) > _PERIODIC_GATE:
                raise ConfigurationError(
                    f"{self.name}: {label} is not periodically compatible "
                    f"(|{label}(x_l) - {label}(x_r)| = {abs(lo - hi):.3e})")

    def _check_exactness(self):
        def pointwise(x, t):
            return complex(np.asarray(self.exact(np.array([x]), t))[0])
        t_range = min(self.default_T, 10.0)
        for a, b in _GATE_POINTS:
            x = self.x_l + (self.x_r - self.x_l) * a
            t = t_range * b
            r = continuous_residual(pointwise, self.params, (x, t))
            if abs(r) >= _RESIDUAL_GATE:
                raise ConfigurationError(
                    f"{self.name}: claimed exact solution fails the residual "
                    f"gate at ({x:.4f}, {t:.4f}): |r| = {abs(r):.3e}")

    def _check_time_column(self):
        x = np.linspace(self.x_l, self.x_r, 7, endpoint=False)
        t = min(self.default_T, 10.0) * np.array([0.0, 0.37, 1.0])
        failure = ConfigurationError(
            f"{self.name}: exact(x, t[:, None]) must return shape "
            f"({t.size}, {x.size}) with row i equal to exact(x, t[i])")
        try:
            column = np.asarray(self.exact(x, t[:, None]))
        except (TypeError, ValueError) as exc:
            raise failure from exc
        if column.shape != (t.size, x.size) or not all(
                np.array_equal(row, self.exact(x, float(ti)))
                for row, ti in zip(column, t)):
            raise failure


def _plane_wave(name, params, default_T, amp, m, omega):
    """The verified plane wave amp * e^{i(m x - omega t)} on [0, 2 pi)."""
    return ProblemSpec(
        name=name, params=params, x_l=0.0, x_r=2.0 * np.pi, default_T=default_T,
        f0=lambda x: amp * np.exp(1j * m * x),
        f1=lambda x: -1j * omega * amp * np.exp(1j * m * x),
        exact=lambda x, t: amp * np.exp(1j * (m * x - omega * t)),
        exactness="verified")


def _soliton():
    # The claimed sech-profile solution cancels the sech term through
    # nu^2 + nu + kappa^2 = 0 but leaves 2*amp*(kappa^2 + amp^2)*sech^3
    # uncancelled (0.0625 at the origin), hence claimed_inconsistent.
    amp = kappa = 0.25
    nu = -0.5 - np.sqrt(3.0) / 4.0
    return ProblemSpec(
        name="soliton",
        params=PdeParams(alpha=-1.0, gamma=0.0, theta=0.0, lam=0.0, beta=2.0),
        x_l=-50.0, x_r=50.0, default_T=500.0,
        f0=lambda x: amp / np.cosh(kappa * x) + 0j,
        f1=lambda x: 1j * nu * amp / np.cosh(kappa * x),
        exact=lambda x, t: amp / np.cosh(kappa * x) * np.exp(1j * nu * t),
        exactness="claimed_inconsistent",
        notes=("sech tails truncated periodically at x = +-50 "
               "(boundary value ~ 2e-6 * amplitude)",
               "claimed exact solution leaves an O(1/16) sech^3 defect; "
               "used as a conservation benchmark only"))


def _gauss_split():
    return ProblemSpec(
        name="gauss_split",
        params=PdeParams(alpha=-1.0, gamma=0.0, theta=0.0, lam=0.0, beta=1.0),
        x_l=-40.0, x_r=40.0, default_T=20.0,
        f0=lambda x: (1.0 + 1j) * x * np.exp(-10.0 * (1.0 - x) ** 2),
        f1=lambda x: np.zeros_like(x, dtype=np.complex128),
        exact=None,
        exactness="none",
        notes=("initial pulse decays below double-precision round-off at the "
               "domain ends; treated as periodically compatible",))


_BUILTINS = {
    "linear_plane": lambda: _plane_wave(
        "linear_plane", PdeParams(alpha=-1.0, gamma=1.0, theta=-1.0, lam=3.0, beta=0.0),
        50.0, amp=1.0, m=1.0, omega=3.0),
    "nonlinear_plane": lambda: _plane_wave(
        "nonlinear_plane", PdeParams(alpha=-1.0, gamma=1.0, theta=-1.0, lam=1.0, beta=2.0),
        200.0, amp=1.0, m=1.0, omega=-1.0),
    # omega = 7 solves omega^2 - omega - 42 = 0 for the mode-6 wave.
    "plane_beta2": lambda: _plane_wave(
        "plane_beta2", PdeParams(alpha=-1.0, gamma=0.0, theta=0.0, lam=0.0, beta=2.0),
        100.0, amp=np.sqrt(3.0), m=6.0, omega=7.0),
    "soliton": _soliton,
    "gauss_split": _gauss_split,
}

PROBLEM_NAMES = tuple(_BUILTINS)


@functools.lru_cache(maxsize=None)
def builtin_problem(name: str) -> ProblemSpec:
    """Return one of the built-in benchmark problems by name.

    Each is built, and its exact solution gate-checked, once per process:
    the spec is frozen, and a run resolves its configuration twice."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise UsageError(
            f"unknown problem {name!r}; available: {', '.join(PROBLEM_NAMES)}") from None
    return factory()


def customized(base: ProblemSpec, **param_overrides) -> ProblemSpec:
    """Copy a problem with coefficient overrides.

    Changing any coefficient invalidates the stored exact solution, so the
    result is downgraded to exactness="none" unless nothing changed.
    """
    params = dataclasses.replace(base.params, **param_overrides)
    if params == base.params:
        return base
    return dataclasses.replace(base, name=base.name + "-custom", params=params,
                               exact=None, exactness="none")


@dataclass(frozen=True)
class ErrorMetrics:
    err_max: float
    e_infty_sq: float
    mod_err: float


def error_metrics(u, exact_at_t, grid: GridSpec) -> ErrorMetrics:
    """Pointwise max error, max squared-modulus error, and max modulus error.

    Runs on every level of a run with a verified exact solution, a block of
    levels at a time: u and exact_at_t are one level, giving floats, or
    [..., K] stacks, giving float arrays of shape [...].  Both are checked
    on the last axis only (as_level); NaN input gives NaN errors.
    """
    u = as_level(u, grid)
    ref = as_level(exact_at_t, grid)
    au, aref = np.abs(u), np.abs(ref)
    return ErrorMetrics(
        err_max=scalar_or_rows(np.abs(u - ref).max(axis=-1)),
        e_infty_sq=scalar_or_rows(np.abs(au ** 2 - aref ** 2).max(axis=-1)),
        mod_err=scalar_or_rows(np.abs(au - aref).max(axis=-1)),
    )


def convergence_order(errors) -> float:
    """Least-squares slope of log(error) against log(mesh size).

    Expects at least two (mesh_size, error) pairs with strictly decreasing
    mesh sizes and positive errors.
    """
    pairs = list(errors)
    if len(pairs) < 2:
        raise UsageError("convergence fit needs at least two levels")
    sizes = np.asarray([p[0] for p in pairs], dtype=float)
    errs = np.asarray([p[1] for p in pairs], dtype=float)
    if np.any(np.diff(sizes) >= 0):
        raise UsageError("mesh sizes must be strictly decreasing")
    if np.any(errs <= 0):
        raise UsageError("errors must be positive for a log-log fit")
    return float(np.polyfit(np.log(sizes), np.log(errs), 1)[0])
