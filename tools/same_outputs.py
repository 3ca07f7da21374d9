"""Check that two source trees of nlsw write the same bytes.

    python tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each SRC is a directory that holds the nlsw package, such as a checkout's
src/.  For each tree, every case runs in a fresh interpreter with only that
SRC on PYTHONPATH, in a working directory of its own that is also its
output_dir ".", so that a record naming an output path reads the same on
both trees.  The cases are:

- `nlsw run` on the three benchmark workload configs
  (benchmarks/workloads.make_config) at seeds 3 and 7;
- `nlsw converge --levels 3` on linear_plane (the linear_k64 config) along
  each axis;
- repr(run_identity_oracle());
- two refusals, `nlsw run` with a directory where meta.json goes and
  `nlsw converge` with one where orders.csv goes;
- two beta != 0 runs off the workloads' meshes: `nlsw run` of the midpoint
  scheme on nonlinear_plane (K = 64, J = 200), whose nonzero gamma and
  theta make the operator's bands differ, so that its corner correction
  acts on an asymmetric system, and `nlsw compare` on soliton (K = 128,
  J = 200, T = 20);
- `nlsw run` on linear_plane at K = 8, J = 20,000 and snapshot_stride
  20,000, whose integer step column reaches five digits;
- three failing runs, whose process.txt holds the failure record: a
  StepFailureError at step 2 (plane_beta2, K = 64, J = 100, fp_max_iter
  1), a DivergenceError of the bootstrap at step 1 (plane_beta2 with
  beta = 1e308, K = 16, J = 10), and a SingularSystemError at step
  19,459 of linear_plane with alpha = 3.67, gamma = 1.75, theta = -1.4
  and lambda = -0.52 (K = 4, J = 20,000, T = 1,800), met with pairs of
  a 1,024-pair block pending, which are flushed before the step fails.

Each case also keeps its exit code, stdout and stderr in process.txt.

Every file is compared byte for byte, except that meta.json is compared
without wall_time_seconds, timings and config.output_dir, the fields that
differ between repeated runs or output directories.  One line is printed
per file, and under a file that differs its first differing line from each
tree, with the line's number, so that a changed sign or last digit shows
at once; the exit code is 1 on any difference and 0 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (3, 7)
CLI = "import sys; from nlsw.cli import main; sys.exit(main(sys.argv[1:]))"
ORACLE = ("from nlsw.diagnostics import run_identity_oracle; "
          "print(repr(run_identity_oracle()))")


def default_cases() -> list:
    """(name, config or None, command, *blocked) of every case: a config
    with the CLI command and its arguments, or None for the identity
    oracle, and the output files, if any, where a directory stands before
    the run."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from workloads import WORKLOADS, make_config

    cases = [(f"{name}_seed{seed}", make_config(workload, seed, Path()), ["run"])
             for name, workload in WORKLOADS.items() for seed in SEEDS]
    linear = make_config(WORKLOADS["linear_k64"], SEEDS[0], Path())
    for axis in ("space", "time"):
        cases.append((f"converge_{axis}_linear_plane", linear,
                      ["converge", "--axis", axis, "--levels", "3"]))
    cases.append(("identity_oracle", None, []))
    cases.append(("refused_run_meta", linear, ["run"], "meta.json"))
    cases.append(("refused_converge_orders", linear,
                  ["converge", "--axis", "space", "--levels", "3"], "orders.csv"))
    cases.append(("run_nonlinear_plane",
                  {"problem": "nonlinear_plane", "K": 64, "J": 200, "scheme": "mi"},
                  ["run"]))
    cases.append(("compare_soliton", {"problem": "soliton", "K": 128, "J": 200, "T": 20.0},
                  ["compare"]))
    cases.append(("run_linear_plane_long",
                  {"problem": "linear_plane", "K": 8, "J": 20_000,
                   "snapshot_stride": 20_000}, ["run"]))
    cases.append(("failed_step", {"problem": "plane_beta2", "K": 64, "J": 100,
                                  "fp_max_iter": 1}, ["run"]))
    cases.append(("failed_bootstrap",
                  {"problem": {"base": "plane_beta2", "params": {"beta": 1e308}},
                   "K": 16, "J": 10}, ["run"]))
    cases.append(("failed_solve_mid_block",
                  {"problem": {"base": "linear_plane",
                               "params": {"alpha": 3.67, "gamma": 1.75,
                                          "theta": -1.4, "lam": -0.52}},
                   "K": 4, "J": 20_000, "T": 1800.0}, ["run"]))
    return cases


def run_case(src: Path, case, out: Path, config_path: Path):
    """Run one case on the tree src in a fresh interpreter in out, its
    output directory, writing there the command's files and process.txt,
    and its config, if any, to config_path."""
    _, config, command, *blocked = case
    out.mkdir(parents=True)
    for name in blocked:
        (out / name).mkdir()
    if config is None:
        arguments = ["-c", ORACLE]
    else:
        config_path.write_text(json.dumps({**config, "output_dir": "."}))
        arguments = ["-c", CLI, command[0], str(config_path), *command[1:]]
    done = subprocess.run([sys.executable, *arguments], cwd=out, text=True,
                          capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(Path(src).resolve())})
    (out / "process.txt").write_text(f"exit {done.returncode}\n--- stdout\n"
                                     f"{done.stdout}--- stderr\n{done.stderr}")


def _comparable(path: Path) -> bytes:
    """The bytes of a file, or of meta.json without its varying fields."""
    if path.name != "meta.json":
        return path.read_bytes()
    meta = json.loads(path.read_text())
    meta.pop("wall_time_seconds", None)
    meta.pop("timings", None)
    meta.get("config", {}).pop("output_dir", None)
    return json.dumps(meta, sort_keys=True, indent=1).encode()


def first_difference(parent: bytes, change: bytes):
    """(line number from 1, parent's line, change's line) of the first line
    where two texts differ, a line that one of them lacks as None, or None
    if they are the same."""
    lines = parent.splitlines(keepends=True), change.splitlines(keepends=True)
    for number in range(max(map(len, lines))):
        left, right = (side[number] if number < len(side) else None for side in lines)
        if left != right:
            return number + 1, left, right
    return None


def compare(parent: Path, change: Path) -> list:
    """(verdict, relative path) of every file under either directory, the
    verdict one of 'same', 'differs', 'parent only' and 'change only'."""
    names = sorted({path.relative_to(root) for root in (parent, change)
                    for path in root.rglob("*") if path.is_file()})
    verdicts = []
    for name in names:
        left, right = parent / name, change / name
        if not right.exists():
            verdicts.append(("parent only", name))
        elif not left.exists():
            verdicts.append(("change only", name))
        else:
            same = _comparable(left) == _comparable(right)
            verdicts.append(("same" if same else "differs", name))
    return verdicts


def check(parent_src: Path, change_src: Path, cases, work: Path) -> int:
    """Run every case on both trees under work, print one line per file and
    return 1 if any file differs, else 0."""
    for label, src in (("parent", parent_src), ("change", change_src)):
        (work / label).mkdir(parents=True)
        for case in cases:
            run_case(src, case, work / label / "outputs" / case[0],
                     work / label / f"{case[0]}.json")
    parent, change = work / "parent" / "outputs", work / "change" / "outputs"
    verdicts = compare(parent, change)
    report(parent, change, verdicts)
    return int(any(verdict != "same" for verdict, _ in verdicts))


def report(parent: Path, change: Path, verdicts):
    """Print one line per verdict, each file that differs followed by its
    first differing line in each tree."""
    for verdict, name in verdicts:
        print(f"{verdict:<12} {name}")
        if verdict == "differs":
            number, *lines = first_difference(_comparable(parent / name),
                                              _comparable(change / name))
            for label, line in zip(("parent", "change"), lines):
                text = "(no such line)" if line is None else repr(line.decode(errors="replace"))
                print(f"    line {number} {label}: {text}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        return check(Path(argv[0]), Path(argv[1]), default_cases(), Path(work))


if __name__ == "__main__":
    sys.exit(main())
