"""Configuration ingestion, experiment orchestration, and CSV/JSON output.

Commands:
    nlsw run <config.json>                  single run (scheme mi, wang, or both)
    nlsw converge <config.json> --axis space|time --levels N
    nlsw compare <config.json>              forces scheme=both
    nlsw list-problems

Exit codes, the exit_code of each error type: 0 success, 1 internal
consistency failure (a realness guard of the discrete invariants fired), 2
configuration error (a bad config value or an unwritable output directory),
3 solver failure, 4 identity-oracle validation failure.  Codes 1-4 come with
a one-line JSON record on stderr; a failure inside the step loop names its
step there.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import itertools
import sys
import time
from numbers import Integral
from pathlib import Path

import numpy as np
import scipy

from . import diagnostics, problems
from .errors import ConfigurationError, IdentityValidationError, NlswError, UsageError
from .grid import GridSpec, build_grid, is_number, shown
from .mi import SolverConfig, Trajectory, check_run, quiet_overflow, run_mi
from .problems import ProblemSpec, builtin_problem, convergence_order, customized
from .wang import check_coefficients, run_wang

SCHEMES = ("mi", "wang", "both")

SNAPSHOT_HEADER = ("t", "x", "re_u", "im_u", "abs_u")
ORDERS_HEADER = ("level", "mesh_param", "err_max", "fitted_order")

# The most rows that a CSV writer formats at once: series or orders rows,
# or nodes of one snapshot block.  A writer's temporaries stay bounded
# whatever J or K, at about 0.7 MB a piece of series rows and 0.3 MB of
# snapshot nodes, and a command writes only after its run has freed its
# plan and working levels (see mi.held_bytes).  On gauss_k4096_io, peak RSS
# is the same for pieces of 256 to 1024 rows, 0.1 MB higher at 2048 and
# 0.3 MB higher at 4096, one piece a block.
PIECE_ROWS = 1024

# Config key -> accepted JSON types; float stands for any JSON number and
# stores an integer as a float.  None leaves the value to mi.check_run, the
# rule the library's runs meet, so both refuse it with one message.
# RunConfig and SolverConfig hold the defaults.
_TYPES = {"problem": (str, dict), "K": (int,), "J": (int,),
          "T": (float, type(None)), "scheme": (str,), "bootstrap_mode": (str,),
          "fp_tol": (float,), "fp_max_iter": (int,), "snapshot_stride": None,
          "output_dir": (str,)}
_JSON_NAMES = {bool: "boolean", int: "integer", float: "number", str: "string",
               dict: "object", list: "array", type(None): "null"}
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
    except an integer where a number is accepted; a bool is never a number.
    types None passes the value on unchecked."""
    if types is None:
        return value
    if float in types and isinstance(value, int) and not isinstance(value, bool):
        if not is_number(value):
            raise ConfigurationError(f"config key {key!r} is beyond the float range")
        return float(value)
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigurationError(
            f"config key {key!r} must be a JSON "
            f"{' or '.join(_JSON_NAMES[t] for t in types)}, got {_json_type(value)}")
    return value


def _json_type(value) -> str:
    """The JSON type of a parsed value with its article, as in 'an array'.
    Messages name it rather than echo the value, which may be kilobytes
    long or nested too deep to format."""
    name = next((name for t, name in _JSON_NAMES.items() if isinstance(value, t)),
                type(value).__name__)
    return name if name == "null" else ("an " if name[0] in "aeiou" else "a ") + name


def _resolve_problem(spec) -> ProblemSpec:
    if isinstance(spec, str):
        return builtin_problem(spec)
    unknown = set(spec) - {"base", "params"}
    if unknown:
        raise ConfigurationError(f"unknown keys in inline problem: {sorted(unknown)}")
    base = builtin_problem(_checked("problem.base", spec.get("base"), (str,)))
    params = _checked("problem.params", spec.get("params", {}), (dict,))
    if {"lam", "lambda"} <= set(params):
        raise ConfigurationError(
            "inline problem gives coefficient 'lam' twice, as 'lam' and 'lambda'")
    overrides = {}
    for key, value in params.items():
        if key not in _PARAM_KEYS:
            raise ConfigurationError(f"unknown coefficient {key!r} in inline problem")
        overrides[_PARAM_KEYS[key]] = _checked(f"problem.params.{key}", value, (float,))
    return customized(base, **overrides)


def resolve(config: RunConfig) -> tuple[ProblemSpec, GridSpec, SolverConfig]:
    """Materialize the problem, grid, and solver settings, validating all
    invariants before any compute, in the order run_mi and run_wang check
    them: mi.check_run, then the energy-preserving scheme's coefficients."""
    problem = _resolve_problem(config.problem)
    T = config.T if config.T is not None else problem.default_T
    grid = build_grid(problem.x_l, problem.x_r, config.K, T, config.J)
    solver_config = SolverConfig(fp_tol=config.fp_tol,
                                 fp_max_iter=config.fp_max_iter,
                                 bootstrap_mode=config.bootstrap_mode)
    if config.scheme not in SCHEMES:
        raise ConfigurationError(f"scheme must be one of {SCHEMES}, got {config.scheme!r}")
    check_run(problem, grid, solver_config, config.snapshot_stride)
    if config.scheme != "mi":
        check_coefficients(problem.params)
    return problem, grid, solver_config


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; json.loads alone keeps a repeated key's last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigurationError(f"config key {key!r} is given twice")
        obj[key] = value
    return obj


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document.

    Unknown keys, keys given twice and values of the wrong JSON type are
    rejected; defaults are applied for everything except problem, K, and
    J.  The resulting configuration is resolved once so that
    grid/solver/problem invariants fail here, not mid-run.
    """
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # An integer beyond Python's int-digit limit, or nesting beyond the
        # recursion limit.
        raise ConfigurationError(f"config parse error: {exc}") from exc
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


def _write_csv(path: Path, header, columns):
    """Write columns, a dict from names of header to arrays of one length,
    with one %-template for every row: an empty field for a name without a
    column, '%d' for an integer column and '%.17g' for any other, byte for
    byte what csv.writer writes for those fields.  The rows are formatted
    and written PIECE_ROWS at a time."""
    names = [name for name in header if name in columns]
    row = ",".join(
        "" if name not in columns
        else "%d" if np.issubdtype(columns[name].dtype, np.integer) else "%.17g"
        for name in header) + "\r\n"
    rows = len(columns[names[0]])
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, rows, PIECE_ROWS):
            piece = zip(*(columns[name][start:start + PIECE_ROWS].tolist()
                          for name in names))
            fh.write(row * min(PIECE_ROWS, rows - start)
                     % tuple(itertools.chain.from_iterable(piece)))


def _write_series(path: Path, series):
    _write_csv(path, diagnostics.SERIES_COLUMNS, series)


def _write_snapshots(path: Path, grid: GridSpec, snapshots):
    """One CSV block per snapshot, byte for byte what csv.writer writes for
    rows of f"{v:.17g}" fields: '%.17g' formats a float the same way, and
    hypot gives the same |u| as Python's abs of a complex, except that a |u|
    beyond the float max is written as inf, where Python's abs raises.

    x is formatted once per file into one template per piece of PIECE_ROWS
    nodes and t once per snapshot, in place of the NUL that stands for it;
    only re_u, im_u and abs_u go through the templates' '%.17g' fields, a
    piece at a time."""
    templates = ["".join("\0,%.17g,%%.17g,%%.17g,%%.17g\r\n" % x
                         for x in grid.nodes[start:start + PIECE_ROWS].tolist())
                 for start in range(0, grid.K, PIECE_ROWS)]
    values = np.empty((min(grid.K, PIECE_ROWS), 3))
    with path.open("w", newline="") as fh, quiet_overflow():
        fh.write(",".join(SNAPSHOT_HEADER) + "\r\n")
        for t, u in snapshots:
            stamp = "%.17g" % t
            for start, template in zip(range(0, grid.K, PIECE_ROWS), templates):
                part = u[start:start + PIECE_ROWS]
                piece = values[:len(part)]
                piece[:, 0] = part.real
                piece[:, 1] = part.imag
                np.hypot(part.real, part.imag, out=piece[:, 2])
                fh.write(template.replace("\0", stamp) % tuple(piece.ravel().tolist()))


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


def _versions() -> dict:
    """The Python, numpy, scipy and nlsw versions, read from the modules a
    run has already imported: importing importlib.metadata alone takes
    about 17 ms."""
    from . import __version__
    return {"python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "nlsw": __version__}


def _write_meta(out: Path, config: RunConfig, problem: ProblemSpec,
                started: float, **fields) -> str:
    """Write meta.json: the config and problem echo, the run's own fields,
    the versions and the wall time since `started`."""
    meta = {"config": dataclasses.asdict(config),
            "problem": _problem_echo(problem), **fields,
            "versions": _versions(),
            "wall_time_seconds": time.perf_counter() - started}
    path = out / "meta.json"
    with path.open("w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return str(path)


def _series_summary(traj: Trajectory) -> dict:
    """Max relative and absolute drifts of the recorded invariants, for
    quick auditing: the relative drift floors |ref| at 1e-30, so only the
    absolute one means anything where a reference is about 0."""
    series, meta = traj.series, traj.meta

    def drift(name, ref, relative=True):
        if name not in series:
            return None
        if relative:
            return diagnostics.max_rel_drift(series[name], meta[ref])
        return float(np.max(np.abs(series[name] - meta[ref])))

    def final(name):
        return float(series[name][-1]) if name in series else None

    return {
        "steps": len(series["step"]),
        "total_fp_iters": meta.get("total_fp_iters"),
        "min_fp_iters": int(series["fp_iters"].min()),
        "mean_fp_iters": float(series["fp_iters"].mean()),
        "max_fp_iters": int(series["fp_iters"].max()),
        "energy_mi_max_rel_drift": drift("energy_mi", "energy_ref"),
        "mass_mi_max_rel_drift": drift("mass_mi", "mass_ref"),
        "energy_wang_max_rel_drift": drift("energy_wang", "energy_wang_ref"),
        "energy_mi_max_abs_drift": drift("energy_mi", "energy_ref", False),
        "mass_mi_max_abs_drift": drift("mass_mi", "mass_ref", False),
        "energy_wang_max_abs_drift": drift("energy_wang", "energy_wang_ref", False),
        "final_err_max": final("err_max"),
        "final_e_infty_sq": final("e_infty_sq"),
    }


def _output_dir(config: RunConfig, output_dir) -> Path:
    """The override, else the configured output directory, created if missing."""
    out = Path(output_dir if output_dir is not None else config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory: {exc}") from exc
    return out


def _run_scheme(runner, problem, grid, solver_config, snapshot_stride,
                series_path: Path, snaps_path: Path):
    """Run one scheme and write its series and snapshots.  Returns what the
    command keeps of the run, its meta, summary and timings; the trajectory
    itself is released on return, so a command holds one run at a time."""
    started = time.perf_counter()
    traj = runner(problem, grid, solver_config, snapshot_stride=snapshot_stride)
    ran = time.perf_counter()
    _write_series(series_path, traj.series)
    wrote_series = time.perf_counter()
    _write_snapshots(snaps_path, grid, traj.snapshots)
    timings = {"run_s": ran - started, "write_series_s": wrote_series - ran,
               "write_snapshots_s": time.perf_counter() - wrote_series}
    return traj.meta, _series_summary(traj), timings


def run_experiment(config: RunConfig, output_dir=None) -> dict:
    """Execute one configured run and emit series/snapshots/meta files.

    Returns a report dict with the written paths and per-scheme summaries.
    meta.json records, per scheme, the wall time of the run and of each of
    its two CSV writers under `timings`.
    """
    started = time.perf_counter()
    problem, grid, solver_config = resolve(config)
    out = _output_dir(config, output_dir)

    oracle = diagnostics.run_identity_oracle()
    if not oracle.ok:
        raise IdentityValidationError(
            "identity oracle failed: relative energy gap "
            f"{oracle.energy_max_rel_gap:.3e}, mass factor "
            f"{oracle.measured_mass_factor!r} against the validated beta/4")

    labels = ("mi", "wang") if config.scheme == "both" else (config.scheme,)
    runners = _runners()
    paths, schemes_meta, summaries, timings = {}, {}, {}, {}
    for label in labels:
        suffix = f"_{label}" if config.scheme == "both" else ""
        series_path = out / f"series{suffix}.csv"
        snaps_path = out / f"snapshots{suffix}.csv"
        schemes_meta[label], summaries[label], timings[label] = _run_scheme(
            runners[label], problem, grid, solver_config, config.snapshot_stride,
            series_path, snaps_path)
        paths[f"series_{label}"] = str(series_path)
        paths[f"snapshots_{label}"] = str(snaps_path)

    paths["meta"] = _write_meta(out, config, problem, started,
                                grid=dataclasses.asdict(grid),
                                schemes=schemes_meta, summaries=summaries,
                                identity_oracle=dataclasses.asdict(oracle),
                                conventions=CONVENTIONS, timings=timings)
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
    if not is_number(levels, Integral) or levels < 2:
        raise UsageError(f"convergence levels must be an integer >= 2, got {shown(levels)}")
    problem, base_grid, solver_config = resolve(config)
    if problem.exactness != "verified":
        raise ConfigurationError(
            f"problem {problem.name!r} has no verified exact solution; "
            "refusing the convergence sweep")
    if config.scheme == "both":
        raise ConfigurationError("convergence sweeps run one scheme at a time")
    runner = _runners()[config.scheme]
    # Each level doubles K or J, so the memory cap ends a long ladder here,
    # within a few dozen levels and before any of them runs.
    grids = []
    for level in range(levels):
        K = config.K * 2 ** level if axis == "space" else config.K
        J = config.J * 2 ** level if axis == "time" else config.J
        grids.append(build_grid(problem.x_l, problem.x_r, K, base_grid.T, J))
        check_run(problem, grids[-1], solver_config, J)

    started = time.perf_counter()
    out = _output_dir(config, output_dir)

    entries = []
    for level, grid in enumerate(grids):
        # Only err_max is kept of a level's trajectory, released at once.
        err = float(runner(problem, grid, solver_config,
                           snapshot_stride=grid.J).series["err_max"].max())
        mesh_param = grid.h if axis == "space" else grid.tau
        entries.append((level, mesh_param, err))

    fitted = convergence_order([(m, e) for _, m, e in entries])
    orders_path = out / "orders.csv"
    columns = map(np.array, zip(*(entry + (fitted,) for entry in entries)))
    _write_csv(orders_path, ORDERS_HEADER, dict(zip(ORDERS_HEADER, columns)))

    meta_path = _write_meta(out, config, problem, started,
                            axis=axis, levels=levels, fitted_order=fitted,
                            entries=[{"level": l, "mesh_param": m, "err_max": e}
                                     for l, m, e in entries])
    return {"paths": {"orders": str(orders_path), "meta": meta_path},
            "fitted_order": fitted, "entries": entries}


def _error_record(exc: NlswError) -> str:
    record = {"error": type(exc).__name__, "message": str(exc)}
    if exc.step is not None:
        record["step"] = exc.step
    return json.dumps(record)


def _load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
