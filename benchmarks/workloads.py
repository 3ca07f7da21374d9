"""The benchmark's workloads and the checks every run's output must pass.

K, tau, scheme and snapshot density define a workload; J only sets how long
one run lasts.  Only gauss_k4096_io takes coefficients from the seed: the
other two problems carry a verified exact solution, and changing any
coefficient would drop it together with the checks that need it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    K: int
    J: int
    tau: float
    scheme: str
    snapshot_stride: int
    seeded: bool


WORKLOADS = {w.name: w for w in (
    # The beta = 0 acceptance mesh: one solve per step at small K, so the
    # diagnostics, as_field checks and stencils dominate.
    Workload("linear_k64", "linear_plane", K=64, J=1500, tau=0.01, scheme="mi",
             snapshot_stride=1000, seeded=False),
    # 8-9 Picard sweeps per step in both schemes, so solves and sweep kernels
    # dominate; the only workload that runs wang seriously.
    Workload("beta2_picard", "plane_beta2", K=200, J=400, tau=0.05, scheme="both",
             snapshot_stride=100, seeded=False),
    # Large K and a snapshot every 10th step, so CSV writing and
    # arithmetic-bound solves dominate.
    Workload("gauss_k4096_io", "gauss_split", K=4096, J=100, tau=0.01,
             scheme="both", snapshot_stride=10, seeded=True),
)}

# Output tolerances of the acceptance suite.
CONSERVATION_TOL = 1e-10      # relative energy/mass drift at beta = 0
ENERGY_GAP_TOL = 1e-10        # max |energy_gap| / |E|
MASS_GAP_TOL = 1e-9           # max |mass_gap| / |Q|
WANG_DRIFT_TOL = 1e-9         # relative drift of the conserved wang energy


def make_config(workload: Workload, seed: int, output_dir: Path) -> dict:
    """The run configuration for one sample; only seeded workloads use seed."""
    problem = workload.problem
    if workload.seeded:
        rng = np.random.default_rng(seed)
        beta = float(rng.uniform(0.8, 1.2))
        alpha = float(rng.uniform(-1.2, -0.8))
        problem = {"base": problem, "params": {"alpha": alpha, "beta": beta}}
    return {"problem": problem, "K": workload.K, "J": workload.J,
            "T": workload.J * workload.tau, "scheme": workload.scheme,
            "snapshot_stride": workload.snapshot_stride,
            "output_dir": str(output_dir)}


def schemes(workload: Workload) -> tuple:
    return ("mi", "wang") if workload.scheme == "both" else (workload.scheme,)


def _series(path: Path) -> list:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _column(rows, name) -> np.ndarray:
    return np.array([float(row[name]) for row in rows])


def _max_rel_drift(values, ref) -> float:
    return float(np.max(np.abs(values - ref)) / abs(ref))


def check_outputs(workload: Workload, output_dir: Path) -> list:
    """Check one run's files; returns a description of every failed check."""
    failures = []
    meta = json.loads((output_dir / "meta.json").read_text())
    if not meta["identity_oracle"]["ok"]:
        failures.append("identity oracle not ok")
    grid = meta["grid"]
    n_snapshots = 2 + (workload.J - 1) // workload.snapshot_stride
    for label in schemes(workload):
        suffix = f"_{label}" if workload.scheme == "both" else ""
        rows = _series(output_dir / f"series{suffix}.csv")
        with (output_dir / f"snapshots{suffix}.csv").open() as fh:
            snapshot_rows = sum(1 for _ in fh) - 1
        if len(rows) != workload.J - 1:
            failures.append(f"{label}: {len(rows)} series rows, expected {workload.J - 1}")
        if snapshot_rows != workload.K * n_snapshots:
            failures.append(f"{label}: {snapshot_rows} snapshot rows, "
                            f"expected {workload.K * n_snapshots}")
        if not rows:
            continue
        ref = meta["schemes"][label]
        if label == "wang":
            drift = _max_rel_drift(_column(rows, "energy_wang"), ref["energy_wang_ref"])
            if not drift <= WANG_DRIFT_TOL:
                failures.append(f"wang: energy_wang drift {drift:.3e}")
        elif workload.problem == "linear_plane":
            for name, key in (("energy_mi", "energy_ref"), ("mass_mi", "mass_ref")):
                drift = _max_rel_drift(_column(rows, name), ref[key])
                if not drift <= CONSERVATION_TOL:
                    failures.append(f"mi: {name} drift {drift:.3e}")
            err = float(np.max(_column(rows, "err_max")))
            err_bound = 10.0 * (grid["tau"] ** 2 + grid["h"] ** 2)
            if not err <= err_bound:
                failures.append(f"mi: err_max {err:.3e} > {err_bound:.3e}")
            sweeps = int(np.max(_column(rows, "fp_iters")))
            if sweeps != 1:
                failures.append(f"mi: {sweeps} sweeps in a step, expected 1")
        else:
            for gap, value, tol in (("energy_gap", "energy_mi", ENERGY_GAP_TOL),
                                    ("mass_gap", "mass_mi", MASS_GAP_TOL)):
                rel = float(np.max(np.abs(_column(rows, gap)) / np.abs(_column(rows, value))))
                if not rel <= tol:
                    failures.append(f"mi: max |{gap}|/|{value}| {rel:.3e} > {tol:g}")
    return failures
