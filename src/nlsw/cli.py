"""Configuration ingestion, experiment orchestration, and CSV/JSON output.

Commands:
    nlsw run <config.json>                  single run (scheme mi, wang, or both)
    nlsw converge <config.json> --axis space|time --levels N
    nlsw compare <config.json>              forces scheme=both
    nlsw list-problems

Exit codes: 0 success, 1 internal consistency failure (a realness guard of
the discrete invariants fired), 2 configuration error (a bad config value or
an unwritable output directory), 3 solver failure, 4 identity-oracle
validation failure.  Codes 1-4 come with a one-line JSON record on stderr; a
failure inside the step loop names its step there.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import operator
import sys
import time
from pathlib import Path

import numpy as np

from . import diagnostics, problems
from .errors import (ConfigurationError, IdentityValidationError, NlswError,
                     SingularSystemError, StepFailureError, UsageError)
from .grid import GridSpec, build_grid
from .mi import SolverConfig, Trajectory, run_mi
from .problems import ProblemSpec, builtin_problem, convergence_order, customized
from .wang import run_wang

SCHEMES = ("mi", "wang", "both")

SERIES_HEADER = ("step", "t", "energy_mi", "mass_mi", "energy_gap", "mass_gap",
                 "energy_wang", "err_max", "e_infty_sq", "mod_err", "fp_iters")
SNAPSHOT_HEADER = ("t", "x", "re_u", "im_u", "abs_u")
ORDERS_HEADER = ("level", "mesh_param", "err_max", "fitted_order")

# Config key -> accepted JSON types; float stands for any JSON number and
# stores an integer as a float.  RunConfig and SolverConfig hold the defaults.
_TYPES = {"problem": (str, dict), "K": (int,), "J": (int,),
          "T": (float, type(None)), "scheme": (str,), "bootstrap_mode": (str,),
          "fp_tol": (float,), "fp_max_iter": (int,), "snapshot_stride": (int,),
          "output_dir": (str,)}
_JSON_NAMES = {int: "integer", float: "number", str: "string", dict: "object",
               type(None): "null"}
_PARAM_KEYS = {"alpha": "alpha", "gamma": "gamma", "theta": "theta",
               "lam": "lam", "lambda": "lam", "beta": "beta"}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated run description; fully deterministic (no seeds anywhere)."""

    problem: str | dict
    K: int
    J: int
    T: float | None = None
    scheme: str = "mi"
    bootstrap_mode: str = SolverConfig.bootstrap_mode
    fp_tol: float = SolverConfig.fp_tol
    fp_max_iter: int = SolverConfig.fp_max_iter
    snapshot_stride: int = 100
    output_dir: str = "out"


def _checked(key: str, value, types: tuple):
    """The JSON value of `key` if it has one of `types`, never converted
    except an integer where a number is accepted; a bool is never a number."""
    if float in types and isinstance(value, int) and not isinstance(value, bool):
        if abs(value) > sys.float_info.max:
            raise ConfigurationError(f"config key {key!r} is beyond the float range")
        return float(value)
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigurationError(
            f"config key {key!r} must be a JSON "
            f"{' or '.join(_JSON_NAMES[t] for t in types)}, got {json.dumps(value)}")
    return value


def _resolve_problem(spec) -> ProblemSpec:
    if isinstance(spec, str):
        return builtin_problem(spec)
    unknown = set(spec) - {"base", "params"}
    if unknown:
        raise ConfigurationError(f"unknown keys in inline problem: {sorted(unknown)}")
    base = builtin_problem(_checked("problem.base", spec.get("base"), (str,)))
    overrides = {}
    for key, value in _checked("problem.params", spec.get("params", {}), (dict,)).items():
        if key not in _PARAM_KEYS:
            raise ConfigurationError(f"unknown coefficient {key!r} in inline problem")
        overrides[_PARAM_KEYS[key]] = _checked(f"problem.params.{key}", value, (float,))
    return customized(base, **overrides)


def resolve(config: RunConfig) -> tuple[ProblemSpec, GridSpec, SolverConfig]:
    """Materialize the problem, grid, and solver settings, validating all
    invariants before any compute."""
    problem = _resolve_problem(config.problem)
    T = config.T if config.T is not None else problem.default_T
    grid = build_grid(problem.x_l, problem.x_r, config.K, T, config.J)
    solver_config = SolverConfig(fp_tol=config.fp_tol,
                                 fp_max_iter=config.fp_max_iter,
                                 bootstrap_mode=config.bootstrap_mode)
    if config.scheme not in SCHEMES:
        raise ConfigurationError(f"scheme must be one of {SCHEMES}, got {config.scheme!r}")
    if config.snapshot_stride < 1:
        raise ConfigurationError(
            f"snapshot_stride must be >= 1, got {config.snapshot_stride}")
    return problem, grid, solver_config


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document.

    Unknown keys and values of the wrong JSON type are rejected; defaults
    are applied for everything except problem, K, and J.  The resulting
    configuration is resolved once so that grid/solver/problem invariants
    fail here, not mid-run.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config document must be a JSON object")
    unknown = set(raw) - set(_TYPES)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    for key in ("problem", "K", "J"):
        if key not in raw:
            raise ConfigurationError(f"config is missing required key {key!r}")
    config = RunConfig(**{key: _checked(key, value, _TYPES[key])
                          for key, value in raw.items()})
    resolve(config)
    return config


def _write_csv(path: Path, header, rows):
    """Write rows of value tuples one %-template per row: an empty field for
    None, '%d' for an integer and '%.17g' for anything else, byte for byte
    what csv.writer writes for those fields.  Rows whose values have the
    same types share one template."""
    templates = {}
    lines = [",".join(header) + "\r\n"]
    for values in rows:
        kinds = tuple(map(type, values))
        if kinds not in templates:
            templates[kinds] = ",".join(
                "%.0s" if v is None else "%d" if isinstance(v, (int, np.integer))
                else "%.17g" for v in values) + "\r\n"
        lines.append(templates[kinds] % values)
    path.write_text("".join(lines), newline="")


def _write_series(path: Path, rows):
    _write_csv(path, SERIES_HEADER, map(operator.attrgetter(*SERIES_HEADER), rows))


def _write_snapshots(path: Path, grid: GridSpec, snapshots):
    """One CSV block per snapshot, byte for byte what csv.writer writes for
    rows of f"{v:.17g}" fields: '%.17g' formats a float the same way, and
    hypot gives the same |u| as Python's abs of a complex."""
    x = grid.nodes
    block = np.empty((grid.K, 5))
    block[:, 1] = x
    row = ",".join(["%.17g"] * 5) + "\r\n"
    with path.open("w", newline="") as fh:
        fh.write(",".join(SNAPSHOT_HEADER) + "\r\n")
        for t, u in snapshots:
            block[:, 0] = t
            block[:, 2] = u.real
            block[:, 3] = u.imag
            block[:, 4] = np.hypot(u.real, u.imag)
            fh.write(row * grid.K % tuple(block.ravel().tolist()))


def _problem_echo(problem: ProblemSpec) -> dict:
    return {
        "name": problem.name,
        "params": dataclasses.asdict(problem.params),
        "domain": [problem.x_l, problem.x_r],
        "default_T": problem.default_T,
        "exactness": problem.exactness,
        "notes": list(problem.notes),
    }


# Documented reading choices that downstream analysis may need to know.
CONVENTIONS = {
    "mass_alpha_norm": "the alpha term of the discrete mass uses the "
                       "half-node norm (what the telescoping derivation "
                       "produces), not the node norm",
    "mass_identity_constant": "beta/4, validated by the tiny-grid oracle; "
                              "the commonly printed beta/2 is available as "
                              "mass_rhs_printed",
    "wang_energy": "two-level quartic form (beta/4)*h*sum(|u^{j+1}|^4+|u^j|^4) "
                   "is the conserved one; the single-level variant is recorded "
                   "for auditing",
    "bootstrap": "the second starting level is a solver choice (taylor2 "
                 "PDE-consistent expansion or exact sampling); the mode used "
                 "is recorded per scheme",
    "orders_err_max": "per-level err_max in orders.csv is the maximum over "
                      "the whole run",
}


def _runners() -> dict:
    """Scheme label -> run function, read from the module at call time."""
    return {"mi": run_mi, "wang": run_wang}


def _write_meta(out: Path, config: RunConfig, problem: ProblemSpec,
                started: float, **fields) -> str:
    """Write meta.json: the config and problem echo, the run's own fields
    and the wall time since `started`."""
    meta = {"config": dataclasses.asdict(config),
            "problem": _problem_echo(problem), **fields,
            "wall_time_seconds": time.perf_counter() - started}
    path = out / "meta.json"
    with path.open("w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return str(path)


def _series_summary(traj: Trajectory) -> dict:
    """Max relative drifts of the recorded invariants, for quick auditing."""
    def drift(values, ref):
        return max((diagnostics.rel_drift(v, ref) for v in values if v is not None),
                   default=None)

    return {
        "steps": len(traj.rows),
        "total_fp_iters": traj.meta.get("total_fp_iters"),
        "max_fp_iters": max((r.fp_iters for r in traj.rows), default=None),
        "energy_mi_max_rel_drift": drift((r.energy_mi for r in traj.rows),
                                         traj.meta.get("energy_ref")),
        "mass_mi_max_rel_drift": drift((r.mass_mi for r in traj.rows),
                                       traj.meta.get("mass_ref")),
        "energy_wang_max_rel_drift": drift((r.energy_wang for r in traj.rows),
                                           traj.meta.get("energy_wang_ref")),
        "final_err_max": traj.rows[-1].err_max if traj.rows else None,
        "final_e_infty_sq": traj.rows[-1].e_infty_sq if traj.rows else None,
    }


def _output_dir(config: RunConfig, output_dir) -> Path:
    """The override, else the configured output directory, created if missing."""
    out = Path(output_dir if output_dir is not None else config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory: {exc}") from exc
    return out


def run_experiment(config: RunConfig, output_dir=None) -> dict:
    """Execute one configured run and emit series/snapshots/meta files.

    Returns a report dict with the written paths and per-scheme summaries.
    """
    started = time.perf_counter()
    problem, grid, solver_config = resolve(config)
    out = _output_dir(config, output_dir)

    oracle = diagnostics.run_identity_oracle()
    if not oracle.ok:
        raise IdentityValidationError(
            "mass-identity oracle failed: measured factor "
            f"{oracle.measured_mass_factor!r} matches neither candidate")

    labels = ("mi", "wang") if config.scheme == "both" else (config.scheme,)
    runners = _runners()
    paths, schemes_meta, summaries = {}, {}, {}
    for label in labels:
        traj = runners[label](problem, grid, solver_config,
                              snapshot_stride=config.snapshot_stride)
        suffix = f"_{label}" if config.scheme == "both" else ""
        series_path = out / f"series{suffix}.csv"
        snaps_path = out / f"snapshots{suffix}.csv"
        _write_series(series_path, traj.rows)
        _write_snapshots(snaps_path, grid, traj.snapshots)
        paths[f"series_{label}"] = str(series_path)
        paths[f"snapshots_{label}"] = str(snaps_path)
        schemes_meta[label] = traj.meta
        summaries[label] = _series_summary(traj)

    paths["meta"] = _write_meta(out, config, problem, started,
                                grid=dataclasses.asdict(grid),
                                schemes=schemes_meta, summaries=summaries,
                                identity_oracle=dataclasses.asdict(oracle),
                                conventions=CONVENTIONS)
    return {"paths": paths, "summaries": summaries, "identity_oracle": oracle}


def run_convergence(config: RunConfig, axis: str, levels: int,
                    output_dir=None) -> dict:
    """Run a mesh-refinement sweep and fit the convergence order.

    axis="space" doubles K from the configured base; axis="time" doubles J.
    The per-level error is the maximum err_max over the whole run, so the
    sweep needs a problem with a verified exact solution.
    """
    if axis not in ("space", "time"):
        raise UsageError(f"axis must be 'space' or 'time', got {axis!r}")
    if levels < 2:
        raise UsageError(f"a convergence sweep needs >= 2 levels, got {levels}")
    problem, base_grid, solver_config = resolve(config)
    if problem.exactness != "verified":
        raise ConfigurationError(
            f"problem {problem.name!r} has no verified exact solution; "
            "refusing the convergence sweep")
    if config.scheme == "both":
        raise ConfigurationError("convergence sweeps run one scheme at a time")
    runner = _runners()[config.scheme]

    started = time.perf_counter()
    out = _output_dir(config, output_dir)

    entries = []
    for level in range(levels):
        K = config.K * 2 ** level if axis == "space" else config.K
        J = config.J * 2 ** level if axis == "time" else config.J
        grid = build_grid(problem.x_l, problem.x_r, K, base_grid.T, J)
        traj = runner(problem, grid, solver_config, snapshot_stride=grid.J)
        err = max(row.err_max for row in traj.rows)
        mesh_param = grid.h if axis == "space" else grid.tau
        entries.append((level, mesh_param, err))

    fitted = convergence_order([(m, e) for _, m, e in entries])
    orders_path = out / "orders.csv"
    _write_csv(orders_path, ORDERS_HEADER, [entry + (fitted,) for entry in entries])

    meta_path = _write_meta(out, config, problem, started,
                            axis=axis, levels=levels, fitted_order=fitted,
                            entries=[{"level": l, "mesh_param": m, "err_max": e}
                                     for l, m, e in entries])
    return {"paths": {"orders": str(orders_path), "meta": meta_path},
            "fitted_order": fitted, "entries": entries}


def _error_record(exc: Exception) -> str:
    record = {"error": type(exc).__name__, "message": str(exc)}
    step = getattr(exc, "step", None)
    if step is not None:
        record["step"] = step
    return json.dumps(record)


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, IdentityValidationError):
        return 4
    if isinstance(exc, (StepFailureError, SingularSystemError)):
        return 3
    if isinstance(exc, (ConfigurationError, UsageError)):
        return 2
    return 1


def _load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlsw",
        description="Structure-preserving integrators for the nonlinear "
                    "Schrodinger equation with wave operator")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("run", "execute one configured run"),
                       ("converge", "mesh-refinement order study"),
                       ("compare", "run both schemes on one config")):
        command = sub.add_parser(name, help=text)
        command.add_argument("config")
        command.add_argument("--output", default=None, help="override output directory")
    sub.choices["converge"].add_argument("--axis", choices=("space", "time"),
                                         required=True)
    sub.choices["converge"].add_argument("--levels", type=int, required=True)
    sub.add_parser("list-problems", help="list built-in benchmark problems")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-problems":
            for name in problems.PROBLEM_NAMES:
                spec = builtin_problem(name)
                p = spec.params
                print(f"{name}: domain [{spec.x_l:g}, {spec.x_r:g}], "
                      f"T={spec.default_T:g}, exactness={spec.exactness}, "
                      f"alpha={p.alpha:g} gamma={p.gamma:g} theta={p.theta:g} "
                      f"lam={p.lam:g} beta={p.beta:g}")
            return 0
        config = _load_config(args.config)
        if args.command == "converge":
            report = run_convergence(config, axis=args.axis, levels=args.levels,
                                     output_dir=args.output)
            print(f"fitted order ({args.axis}): {report['fitted_order']:.4f}")
            return 0
        if args.command == "compare":
            config = dataclasses.replace(config, scheme="both")
        report = run_experiment(config, output_dir=args.output)
        for label, summary in report["summaries"].items():
            print(f"{label}: {summary['steps']} steps, "
                  f"total fp iters {summary['total_fp_iters']}")
        return 0
    except NlswError as exc:
        print(_error_record(exc), file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
