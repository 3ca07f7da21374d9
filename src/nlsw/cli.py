"""Configuration ingestion, experiment orchestration, and CSV/JSON output.

Commands:
    nlsw run <config.json>                  single run (scheme mi, wang, or both)
    nlsw converge <config.json> --axis space|time --levels N
    nlsw compare <config.json>              forces scheme=both
    nlsw list-problems

Exit codes, the exit_code of each error type: 0 success, 1 internal
consistency failure (a realness guard of the discrete invariants fired), 2
configuration error (a bad config value, or an output directory or file that
cannot be written), 3 solver failure, 4 identity-oracle validation failure.
Codes 1-4 come with a one-line JSON record on stderr; a failure inside the
step loop names its step there, and one of the bootstrap level step 1.
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import functools
import json
import os
import sys
import time
from numbers import Integral
from pathlib import Path

import numpy as np

from . import diagnostics, g17, mi, problems, wang
from .errors import ConfigurationError, IdentityValidationError, NlswError, UsageError
from .grid import GridSpec, build_grid, is_number, shown
from .linsolve import SCIPY_VERSION
from .mi import SolverConfig, check_run, quiet_overflow, run_mi
from .problems import ProblemSpec, builtin_problem, convergence_order, customized
from .wang import run_wang

SCHEMES = ("mi", "wang", "both")

SNAPSHOT_HEADER = ("t", "x", "re_u", "im_u", "abs_u")
ORDERS_HEADER = ("level", "mesh_param", "err_max", "fitted_order")

# The most rows that a CSV writer formats at once: series or orders rows,
# or snapshot rows, which run on across blocks.  It bounds a writer's
# temporaries whatever J or K, so that writing, which starts only once a run
# has freed its plan and working levels, never sets a command's peak (see
# mi.held_bytes).
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


def _schemes(scheme: str) -> dict:
    """Scheme label -> (run function, stencil table) of each scheme that a
    configured scheme runs, in run order.  The run functions are read from
    this module's names at each call, so that rebinding them takes effect."""
    schemes = {"mi": (run_mi, mi._stencils), "wang": (run_wang, wang._stencils)}
    return schemes if scheme == "both" else {scheme: schemes[scheme]}


def resolve(config: RunConfig) -> tuple[ProblemSpec, GridSpec, SolverConfig]:
    """Materialize the problem, grid, and solver settings, and make the
    check that integrate makes before a run: mi.check_run with the table of
    each scheme the config runs, in run order.  converge resolves each level
    of its ladder here too, so every command refuses a run with the rules
    and messages of run."""
    problem = _resolve_problem(config.problem)
    T = config.T if config.T is not None else problem.default_T
    grid = build_grid(problem.x_l, problem.x_r, config.K, T, config.J)
    solver_config = SolverConfig(fp_tol=config.fp_tol,
                                 fp_max_iter=config.fp_max_iter,
                                 bootstrap_mode=config.bootstrap_mode)
    if config.scheme not in SCHEMES:
        raise ConfigurationError(f"scheme must be one of {SCHEMES}, got {config.scheme!r}")
    for _, table in _schemes(config.scheme).values():
        check_run(problem, grid, solver_config, config.snapshot_stride, table)
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


@contextlib.contextmanager
def _output_file(path: Path, mode: str = "w"):
    """path opened for writing, text or with mode "wb" bytes.  An OSError
    in opening, writing or closing it, such as a directory where the file
    goes or a full disk, is a ConfigurationError naming the path."""
    try:
        with path.open(mode) as fh:
            yield fh
    except OSError as exc:
        # A failed write names no file of its own.
        where = "" if exc.filename else f": {str(path)!r}"
        raise ConfigurationError(f"cannot write output file: {exc}{where}") from exc


def _header(names) -> bytes:
    return (",".join(names) + "\r\n").encode()


def _write_csv(path: Path, header, columns):
    """Write header and the rows of columns, {name of header: array}, all
    of one length, to path: byte for byte what csv.writer writes for an
    empty field where a name has no column and '%.17g' of every value, so
    an integer reads as '%d'.  Holds one piece of PIECE_ROWS rows at a time.
    Raises UsageError naming an integer column with a value beyond +-2**53,
    which '%.17g' cannot write exactly, before the file is opened, and
    ConfigurationError where the file cannot be written."""
    for name, column in columns.items():
        # min and max, not abs: abs of int64 min overflows.
        if np.issubdtype(column.dtype, np.integer) and not \
                -2 ** 53 <= column.min() <= column.max() <= 2 ** 53:
            raise UsageError(f"integer column {name!r} holds a value beyond "
                             f"+-2**53, which '%.17g' cannot write exactly")
    given = [(j, columns[name]) for j, name in enumerate(header) if name in columns]
    empty = [j for j, name in enumerate(header) if name not in columns]
    rows = len(given[0][1])
    piece = g17.Piece(min(rows, PIECE_ROWS), len(header))
    # A field without a column is formatted from a stand-in 1, then emptied.
    values = np.ones(piece.pids.shape)
    with _output_file(path, "wb") as fh:
        fh.write(_header(header))
        for start in range(0, rows, PIECE_ROWS):
            n = min(len(values), rows - start)
            for j, column in given:
                values[:n, j] = column[start:start + n]
            piece.cells(values[:n])
            piece.pids[:n, empty] = g17.EMPTY
            fh.write(piece.rows(n))


def _write_series(path: Path, series):
    _write_csv(path, diagnostics.SERIES_COLUMNS, series)


@functools.lru_cache(maxsize=1)
def _node_texts(grid: GridSpec):
    """(texts, lengths, width) of grid's nodes, read-only: row k of the
    (K, g17.TEXT) uint8 texts is b"%.17g," % x_k, NUL-padded, lengths[k]
    its length and width the largest.  Only the last grid's table is kept."""
    K, nodes = grid.K, grid.nodes
    texts = np.empty(K, f"S{g17.TEXT}")
    for start in range(0, K, PIECE_ROWS):
        texts[start:start + PIECE_ROWS] = [
            b"%.17g," % x for x in nodes[start:start + PIECE_ROWS].tolist()]
    texts = texts.view(np.uint8).reshape(K, g17.TEXT)
    lengths = np.count_nonzero(texts, axis=1).astype(np.uint8)
    texts.flags.writeable = lengths.flags.writeable = False
    return texts, lengths, int(lengths.max())


def _write_snapshots(path: Path, grid: GridSpec, snapshots):
    """Write snapshots, a list of (t, u) with u of grid.K complex values, to
    path: a block of K rows t,x,re_u,im_u,abs_u per snapshot, byte for byte
    what csv.writer writes for rows of f"{v:.17g}" fields, abs_u being
    Python's abs(u), or inf where that raises beyond the float max.  Holds
    one piece of PIECE_ROWS rows and keeps the last grid's node texts
    (_node_texts).  Raises ConfigurationError where the file cannot be
    written."""
    K = grid.K
    x_text, x_len, x_width = _node_texts(grid)
    t_texts = [np.frombuffer(b"%.17g," % t, np.uint8) for t, _ in snapshots]
    piece = g17.Piece(min(PIECE_ROWS, K * len(snapshots)), 3,
                      prefix=max(map(len, t_texts)) + x_width)
    values = np.empty((len(piece.lead), 3))

    def flush(n):
        piece.cells(values[:n])
        fh.write(piece.rows(n))

    with _output_file(path, "wb") as fh, quiet_overflow():
        fh.write(_header(SNAPSHOT_HEADER))
        filled = 0
        for t_text, (_, u) in zip(t_texts, snapshots):
            k, lead = 0, len(t_text)
            while k < K:
                n = min(K - k, len(values) - filled)
                rows = slice(filled, filled + n)
                piece.chars[rows, :lead] = t_text
                piece.chars[rows, lead:lead + x_width] = x_text[k:k + n, :x_width]
                np.add(x_len[k:k + n], lead, out=piece.lead[rows])
                part = u[k:k + n]
                values[rows, 0] = part.real
                values[rows, 1] = part.imag
                # hypot is Python's abs of a complex, and inf beyond the
                # float max under quiet_overflow.
                np.hypot(part.real, part.imag, out=values[rows, 2])
                filled += n
                k += n
                if filled == len(values):
                    flush(filled)
                    filled = 0
        if filled:
            flush(filled)


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


def _versions() -> dict:
    """The Python, numpy, scipy (linsolve.SCIPY_VERSION) and nlsw versions,
    read from what the package has already loaded rather than through
    importlib.metadata, whose import would add to every run's start-up."""
    from . import __version__
    return {"python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__, "scipy": SCIPY_VERSION,
            "nlsw": __version__}


def _write_meta(path: Path, config: RunConfig, problem: ProblemSpec,
                started: float, **fields):
    """Write the run's meta JSON to path: the config and problem echo, the
    run's own fields, the versions and the wall time since `started`."""
    meta = {"config": dataclasses.asdict(config),
            "problem": _problem_echo(problem), **fields,
            "versions": _versions(),
            "wall_time_seconds": time.perf_counter() - started}
    with _output_file(path) as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _series_summary(series: dict, meta: dict) -> dict:
    """The summary of a run's series against the references in its meta:
    the step count, the Picard sweeps per step, the largest relative and
    absolute drift of each invariant, None where the run has no such column
    (the relative drift floors |ref| at 1e-30, so only the absolute one
    means anything where a reference is about 0), and the final errors,
    None without a verified exact solution."""
    fp_iters = series["fp_iters"]
    summary = {"steps": len(series["step"]), "total_fp_iters": meta.get("total_fp_iters"),
               "min_fp_iters": int(fp_iters.min()), "mean_fp_iters": float(fp_iters.mean()),
               "max_fp_iters": int(fp_iters.max())}
    for name, ref in (("energy_mi", "energy_ref"), ("mass_mi", "mass_ref"),
                      ("energy_wang", "energy_wang_ref")):
        drifts = (None, None)
        if name in series:
            drifts = (diagnostics.max_rel_drift(series[name], meta[ref]),
                      float(np.max(np.abs(series[name] - meta[ref]))))
        summary[f"{name}_max_rel_drift"], summary[f"{name}_max_abs_drift"] = drifts
    for name in ("err_max", "e_infty_sq"):
        summary[f"final_{name}"] = float(series[name][-1]) if name in series else None
    return summary


def _output_paths(config: RunConfig, output_dir, names: dict) -> dict:
    """{key: path} of the files a command writes, names {key: file name},
    in the override, else the configured output directory, created if
    missing.  A path that is a directory is refused here, before anything
    runs, with the record that opening it would give; a full disk is met
    only by the write."""
    out = Path(output_dir if output_dir is not None else config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory: {exc}") from exc
    paths = {key: out / name for key, name in names.items()}
    for path in paths.values():
        if path.is_dir():
            raise ConfigurationError("cannot write output file: " + str(
                IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))))
    return paths


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
    timings = {"run_s": ran - started, **traj.timings,
               "write_series_s": wrote_series - ran,
               "write_snapshots_s": time.perf_counter() - wrote_series}
    return traj.meta, _series_summary(traj.series, traj.meta), timings


def run_experiment(config: RunConfig, output_dir=None) -> dict:
    """Execute one configured run and emit series/snapshots/meta files.

    Returns a report dict with the identity oracle, the per-scheme summaries
    and paths, the output table (see _output_paths): series_<label> and
    snapshots_<label> of each scheme in run order, then meta; a file name
    takes the suffix _<label> for scheme both only.  meta.json records, per
    scheme, the wall time of the run, of its four phases (see mi.integrate)
    and of each of its two CSV writers under `timings`.
    """
    started = time.perf_counter()
    problem, grid, solver_config = resolve(config)
    schemes = _schemes(config.scheme)
    names = {f"{kind}_{label}": f"{kind}_{label}.csv" if config.scheme == "both"
             else f"{kind}.csv" for label in schemes for kind in ("series", "snapshots")}
    paths = _output_paths(config, output_dir, {**names, "meta": "meta.json"})

    oracle = diagnostics.run_identity_oracle()
    if not oracle.ok:
        raise IdentityValidationError(
            "identity oracle failed: relative energy gap "
            f"{oracle.energy_max_rel_gap:.3e}, mass factor "
            f"{oracle.measured_mass_factor!r} against the validated beta/4")

    schemes_meta, summaries, timings = {}, {}, {}
    for label, (runner, _) in schemes.items():
        schemes_meta[label], summaries[label], timings[label] = _run_scheme(
            runner, problem, grid, solver_config, config.snapshot_stride,
            paths[f"series_{label}"], paths[f"snapshots_{label}"])

    _write_meta(paths["meta"], config, problem, started,
                grid=dataclasses.asdict(grid), schemes=schemes_meta,
                summaries=summaries, identity_oracle=dataclasses.asdict(oracle),
                conventions=CONVENTIONS, timings=timings)
    return {"paths": {key: str(path) for key, path in paths.items()},
            "summaries": summaries, "identity_oracle": oracle}


def run_convergence(config: RunConfig, axis: str, levels: int,
                    output_dir=None) -> dict:
    """Run a mesh-refinement sweep and fit the convergence order.

    axis="space" doubles K from the configured base; axis="time" doubles J.
    The per-level error is the maximum err_max over the whole run, so the
    sweep needs a problem with a verified exact solution.  Returns a report
    dict with the fitted order, the entries and paths, the output table
    (see _output_paths) of orders and meta.
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
    runner = _schemes(config.scheme)[config.scheme][0]
    # Each level doubles K or J and is resolved as a config of its own, so
    # the memory cap ends a long ladder here, within a few dozen levels and
    # before any of them runs.
    grids = []
    for level in range(levels):
        K = config.K * 2 ** level if axis == "space" else config.K
        J = config.J * 2 ** level if axis == "time" else config.J
        grids.append(resolve(dataclasses.replace(
            config, K=K, J=J, T=base_grid.T, snapshot_stride=J))[1])

    started = time.perf_counter()
    paths = _output_paths(config, output_dir,
                          {"orders": "orders.csv", "meta": "meta.json"})

    entries = []
    for level, grid in enumerate(grids):
        # Only err_max is kept of a level's trajectory, released at once.
        err = float(runner(problem, grid, solver_config,
                           snapshot_stride=grid.J).series["err_max"].max())
        mesh_param = grid.h if axis == "space" else grid.tau
        entries.append((level, mesh_param, err))

    fitted = convergence_order([(m, e) for _, m, e in entries])
    columns = map(np.array, zip(*(entry + (fitted,) for entry in entries)))
    _write_csv(paths["orders"], ORDERS_HEADER, dict(zip(ORDERS_HEADER, columns)))

    _write_meta(paths["meta"], config, problem, started,
                axis=axis, levels=levels, fitted_order=fitted,
                entries=[{"level": l, "mesh_param": m, "err_max": e}
                         for l, m, e in entries])
    return {"paths": {key: str(path) for key, path in paths.items()},
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


def build_parser():
    """The command-line parser.  argparse is imported here, since only main
    parses a command line: a run through the library API never loads it."""
    import argparse
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
