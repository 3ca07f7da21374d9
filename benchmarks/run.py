"""Benchmark of `nlsw run` / `nlsw compare` on three workloads.

Usage:
    python3 benchmarks/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  Each sample runs worker.py in a fresh process
pinned to one BLAS thread, with nlsw imported from src/, and every sample's
output files are checked at the acceptance tolerances.  Samples repeat until
S seconds per workload have passed; with `all` the workload order alternates
between repetitions.  Each worker also times a fixed reference kernel that
runs no nlsw code (probe.py) just before and just after its run, on the
same CPU; the norm_ metrics scale each sample's times by the mean of the
two, so host speed that drifts between and within runs cancels out, and the
raw times are printed beside them.

With --trace 0 the last line of standard output is a JSON object holding the
medians of the end-to-end metrics.  With --trace 1 untraced and traced
samples alternate and that object holds the per-layer metrics of the traced
samples; the lines before it also list layer times that some workloads never
enter, which read zero there.  The exit code is 1 if any sample failed.
Every sample, with its probe time, is kept in .bench_work/<workload>/samples.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from probe import NOMINAL_MS
from spans import ORACLE, wrapped_names
from workloads import WORKLOADS, check_outputs, make_config, schemes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit); BENCHMARK.json gives each its direction and bound.  The
# norm_ metrics rescale each sample's times by the reference kernel's time
# in the same process (see probe.py), so that host speed drifting between
# runs cancels out; the raw ones are printed beside them.
END_TO_END = (
    ("norm_steps_per_s", "1/s"),
    ("norm_wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
RAW = (
    ("steps_per_s", "1/s"),
    ("wall_s", "s"),
)

# (name, unit, exact).  Exact values are counts that must repeat
# between traced samples of one seed; the others are medians.
PER_LAYER = (
    ("linsolve.solve.calls", "count", True),
    ("linsolve.solve.self_s", "s", False),
    ("linsolve.solve.us_per_call", "us", False),
    ("linsolve.factor.calls", "count", True),
    ("linsolve.factor.self_s", "s", False),
    ("mi.bootstrap.self_s", "s", False),
    ("problems.build_s", "s", False),
    ("diagnostics.oracle_s", "s", False),
    ("mi.sweeps", "count", True),
    ("mi.sweeps_per_step.mean", "1/step", True),
    ("mi.sweeps_per_step.max", "1/step", True),
    ("wang.sweeps", "count", True),
    ("wang.sweeps_per_step.mean", "1/step", True),
    ("mi.step.calls", "count", True),
    ("mi.step.self_s", "s", False),
    ("wang.step.calls", "count", True),
    ("diagnostics.energy.calls", "count", True),
    ("diagnostics.mass.calls", "count", True),
    ("diagnostics.rhs.calls", "count", True),
    ("diagnostics.self_s", "s", False),
    ("diagnostics.evals_per_step", "1/step", True),
    ("diagnostics.useful_ratio", "ratio", True),
    ("wang.energy.calls", "count", True),
    ("grid.as_field.calls", "count", True),
    ("grid.as_field.per_step", "1/step", True),
    ("grid.as_field.self_s", "s", False),
    ("problems.error_metrics.calls", "count", True),
    ("cli.write_series.self_s", "s", False),
    ("cli.write_snapshots.self_s", "s", False),
    ("cli.output_bytes", "B", True),
    ("cli.output_mb_per_s", "MB/s", False),
    ("mi.run.self_s", "s", False),
    ("cli.run.self_s", "s", False),
    ("trace.overhead_frac", "ratio", False),
    ("host.probe_ms", "ms", False),
)

# Layer times that read exactly zero on a workload that never enters the
# layer (wang on linear_k64, error metrics on gauss_k4096_io).  A time that
# reads the same on every run is no measurement, so they are printed but
# left out of the result object.
PRINTED_ONLY = (
    ("wang.step.self_s", "s"),
    ("wang.energy.self_s", "s"),
    ("wang.run.self_s", "s"),
    ("problems.error_metrics.self_s", "s"),
)

def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def environment() -> dict:
    import scipy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "worker_blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
    }


def run_sample(workload, seed: int, traced: bool, index: int) -> dict:
    """Run one sample in a fresh process and check its outputs."""
    work = WORK / workload.name
    out_dir = work / "out"
    if out_dir.exists():
        shutil.rmtree(out_dir)
    work.mkdir(parents=True, exist_ok=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(make_config(workload, seed, out_dir)))
    cmd = [sys.executable, str(HERE / "worker.py"), str(config_path)]
    if traced:
        cmd += [str(work / "spans.jsonl"), f"{workload.name}-{seed}-{index}"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        stdout = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {"traced": traced, "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if proc.returncode != 0:
        sample["failures"] = [f"worker exited with code {proc.returncode}"]
        return sample
    sample.update(json.loads(stdout.splitlines()[-1]))
    # The process's life as a CLI user waits for it, without the probes.
    sample["probe_ms"] = statistics.fmean(sample["probes_ms"])
    sample["wall_s"] = wall - sum(sample["probes_ms"]) / 1e3
    sample["steps_per_s"] = len(schemes(workload)) * (workload.J - 1) / sample["run_s"]
    try:
        sample["failures"] = check_outputs(workload, out_dir)
    except (OSError, KeyError, ValueError) as exc:
        sample["failures"] = [f"unreadable output: {exc!r}"]
    if traced and not sample["failures"]:
        sample["layer_metrics"] = layer_metrics(sample["layers"], sample["paths"],
                                                out_dir)
    return sample


def layer_metrics(layers: dict, paths: dict, out_dir: Path) -> dict:
    """Per-layer metrics of one traced sample, from its span summary, the
    sweep counts in meta.json and the sizes of the files it wrote."""
    meta = json.loads((out_dir / "meta.json").read_text())
    summaries = meta["summaries"]
    steps = sum(s["steps"] for s in summaries.values())
    mi = summaries["mi"]
    wang = summaries.get("wang", {"steps": 0, "total_fp_iters": 0})

    def calls(name):
        return layers[name]["calls"]

    def self_s(name):
        return layers[name]["self_s"]

    evals = calls("diagnostics.energy") + calls("diagnostics.mass")
    output_bytes = sum(Path(path).stat().st_size for key, path in paths.items()
                       if key.startswith(("series", "snapshots")))
    write_s = layers["cli.write_series"]["total_s"] + layers["cli.write_snapshots"]["total_s"]
    return {
        "linsolve.solve.calls": calls("linsolve.solve"),
        "linsolve.solve.self_s": self_s("linsolve.solve"),
        "linsolve.solve.us_per_call": 1e6 * self_s("linsolve.solve") / calls("linsolve.solve"),
        "linsolve.factor.calls": calls("linsolve.factor"),
        "linsolve.factor.self_s": self_s("linsolve.factor"),
        "mi.bootstrap.self_s": self_s("mi.bootstrap"),
        "problems.build_s": layers["problems.build"]["total_s"],
        "diagnostics.oracle_s": layers[ORACLE]["total_s"],
        "mi.sweeps": mi["total_fp_iters"],
        "mi.sweeps_per_step.mean": mi["total_fp_iters"] / mi["steps"],
        "mi.sweeps_per_step.max": mi["max_fp_iters"],
        "wang.sweeps": wang["total_fp_iters"],
        "wang.sweeps_per_step.mean": wang["total_fp_iters"] / max(wang["steps"], 1),
        "mi.step.calls": calls("mi.step"),
        "mi.step.self_s": self_s("mi.step"),
        "wang.step.calls": calls("wang.step"),
        "wang.step.self_s": self_s("wang.step"),
        "diagnostics.energy.calls": calls("diagnostics.energy"),
        "diagnostics.mass.calls": calls("diagnostics.mass"),
        "diagnostics.rhs.calls": calls("diagnostics.rhs"),
        "diagnostics.self_s": sum(self_s(f"diagnostics.{name}")
                                  for name in ("gaps", "energy", "mass", "rhs")),
        "diagnostics.evals_per_step": evals / steps,
        "diagnostics.useful_ratio": 2 * steps / evals,
        "wang.energy.calls": calls("wang.energy"),
        "wang.energy.self_s": self_s("wang.energy"),
        "grid.as_field.calls": calls("grid.as_field"),
        "grid.as_field.per_step": calls("grid.as_field") / steps,
        "grid.as_field.self_s": self_s("grid.as_field"),
        "problems.error_metrics.calls": calls("problems.error_metrics"),
        "problems.error_metrics.self_s": self_s("problems.error_metrics"),
        "cli.write_series.self_s": self_s("cli.write_series"),
        "cli.write_snapshots.self_s": self_s("cli.write_snapshots"),
        "cli.output_bytes": output_bytes,
        "cli.output_mb_per_s": output_bytes / 1e6 / write_s,
        "mi.run.self_s": self_s("mi.run"),
        "wang.run.self_s": self_s("wang.run"),
        "cli.run.self_s": self_s("cli.run"),
    }


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(name: str, samples: list, trace: bool) -> dict:
    """Print the metrics of one workload and return {metric: (value, unit)}."""
    ok = [s for s in samples if not s["failures"]]
    for s in ok:
        scale = s["probe_ms"] / NOMINAL_MS
        s["norm_steps_per_s"] = s["steps_per_s"] * scale
        s["norm_wall_s"] = s["wall_s"] / scale
    untraced = [s for s in ok if not s["traced"]]
    traced = [s for s in ok if s["traced"]]
    probes = [s["probe_ms"] for s in ok]
    q1, probe, q3 = quartiles(probes)
    print(f"{name} host.probe_ms {probe:.4f} ms (median of {len(probes)}; "
          f"q1 {q1:.4f}, q3 {q3:.4f})")
    print(f"{name} failed_frac {(len(samples) - len(ok)) / len(samples):.4f} "
          f"({len(samples) - len(ok)} of {len(samples)} runs)")
    e2e = {}
    for metric, unit in END_TO_END + RAW:
        values = [s[metric] for s in untraced]
        if values:
            q1, median, q3 = quartiles(values)
            print(f"{name} {metric} {median:.6g} {unit} (median of {len(values)}; "
                  f"q1 {q1:.6g}, q3 {q3:.6g})")
            if (metric, unit) in END_TO_END:
                e2e[metric] = (median, unit)
    if not trace:
        return e2e
    if not traced or not untraced:
        return {}
    first = traced[0]["layer_metrics"]
    for s in traced[1:]:
        for metric, _, exact in PER_LAYER:
            if exact and s["layer_metrics"][metric] != first[metric]:
                s["failures"].append(f"{metric} differs between traced runs: "
                                     f"{s['layer_metrics'][metric]} != {first[metric]}")
    layer = {}
    for metric, unit, exact in PER_LAYER:
        if metric == "trace.overhead_frac":
            value = (statistics.median(s["run_s"] / s["probe_ms"] for s in traced)
                     / statistics.median(s["run_s"] / s["probe_ms"] for s in untraced)
                     - 1.0)
        elif metric == "host.probe_ms":
            value = probe
        elif exact:
            value = first[metric]
        else:
            value = statistics.median(s["layer_metrics"][metric] for s in traced)
        layer[metric] = (value, unit)
    for metric, unit in PRINTED_ONLY:
        value = statistics.median(s["layer_metrics"][metric] for s in traced)
        print(f"{name} layer {metric} {value:.6g} {unit} (not in result)")
    for metric, (value, unit) in layer.items():
        print(f"{name} layer {metric} {value:.6g} {unit} "
              f"(median of {len(traced)} traced runs)")
    return layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nlsw" / "__init__.py").is_file():
        print(f"nlsw sources not found under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("env " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        print("wrapped " + " ".join(wrapped_names()))
    # Compile nlsw and fill the file cache before anything is timed.
    subprocess.run([sys.executable, "-c", "import nlsw.cli"], env=child_env(),
                   cwd=ROOT, check=True)

    samples = {name: [] for name in names}
    deadline = time.perf_counter() + args.seconds * len(names)
    rep = 0
    while rep < 3 or time.perf_counter() < deadline:
        for name in (names if rep % 2 == 0 else names[::-1]):
            traced = bool(args.trace) and rep % 2 == 1
            samples[name].append(run_sample(WORKLOADS[name], args.seed, traced, rep))
        rep += 1

    for name in names:
        (WORK / name / "samples.json").write_text(json.dumps(samples[name], indent=1))
    metrics = {}
    for name in names:
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, (value, unit) in summarize(name, samples[name],
                                               bool(args.trace)).items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    attempted = sum(len(s) for s in samples.values())
    failures = [f"{name} run {i}: {failure}" for name in names
                for i, s in enumerate(samples[name]) for failure in s["failures"]]
    failed = sum(1 for name in names for s in samples[name] if s["failures"])
    for failure in failures:
        print(failure, file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
