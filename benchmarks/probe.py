"""A fixed reference kernel that runs no nlsw code, timed to gauge host speed.

The host's speed drifts by tens of percent within seconds, and differently on
each of its CPUs.  worker.py pins the sample's process to one CPU and runs
this kernel there just before and just after the timed run; run.py scales
the sample's times by the mean of the two.
"""

from __future__ import annotations

import csv
import os
import time
from pathlib import Path

import numpy as np
import scipy.linalg

# The kernel's time on the 2-vCPU Xeon the benchmark was tuned on; the
# host-normalised metrics are rescaled to a host this fast.
NOMINAL_MS = 250.0


def host_probe(scratch_csv: Path) -> float:
    """Milliseconds for the reference kernel; it overwrites scratch_csv.

    Its three parts mirror what the workloads spend their time on: small-array
    numpy stencils, banded complex solves at K=200 and K=4096, and CSV rows of
    formatted floats written to a file.
    """
    u = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False))
    bands = []
    for K in (200, 4096):
        ab = np.empty((3, K), dtype=complex)
        ab[0], ab[1], ab[2] = -1.0 + 0.1j, 4.0, -1.0 + 0.1j
        bands.append((ab, np.exp(1j * np.arange(K))))
    start = time.perf_counter()
    for _ in range(1500):
        w = 0.25 * (np.roll(u, -1) + 2.0 * u + np.roll(u, 1))
        np.max(np.abs(w - u))
    for (ab, b), repeats in zip(bands, (1500, 60)):
        for _ in range(repeats):
            scipy.linalg.solve_banded((1, 1), ab, b, check_finite=False)
    z = bands[1][1]
    with scratch_csv.open("w", newline="") as fh:
        writer = csv.writer(fh)
        for _ in range(2):
            for k in range(z.size):
                writer.writerow([repr(0.1), repr(float(k)), repr(z[k].real),
                                 repr(z[k].imag), repr(abs(z[k]))])
    return (time.perf_counter() - start) * 1e3


def pin_to_current_cpu() -> None:
    """Keep this process on the CPU it runs on now, so that the probes and
    the run they bracket are timed on the same CPU."""
    with open("/proc/self/stat") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})
