"""Spans around nlsw's layer entry points, recorded from outside the package.

Each traced name is patched where it is defined and in every nlsw module that
imported it by name, since the kernels import `as_field` and the solver class
directly.  A missing name raises an error that names it, so a refactor that
renames a layer fails the traced run instead of reporting zeros.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# span name -> the (module, qualified name) pairs it wraps.  Names with a
# leading underscore are module-private layers without a public entry point.
WRAPPED = {
    "cli.parse_config": [("nlsw.cli", "parse_config")],
    "cli.run": [("nlsw.cli", "run_experiment")],
    "cli.write_series": [("nlsw.cli", "_write_series")],
    "cli.write_snapshots": [("nlsw.cli", "_write_snapshots")],
    "problems.build": [("nlsw.problems", "builtin_problem"),
                       ("nlsw.problems", "customized")],
    "problems.error_metrics": [("nlsw.problems", "error_metrics")],
    "diagnostics.oracle": [("nlsw.diagnostics", "run_identity_oracle")],
    "diagnostics.gaps": [("nlsw.diagnostics", "theorem_identity_gaps")],
    "diagnostics.energy": [("nlsw.diagnostics", "mi_energy")],
    "diagnostics.mass": [("nlsw.diagnostics", "mi_mass")],
    "diagnostics.rhs": [("nlsw.diagnostics", "energy_rhs"),
                        ("nlsw.diagnostics", "mass_rhs")],
    "mi.run": [("nlsw.mi", "run_mi")],
    "mi.bootstrap": [("nlsw.mi", "bootstrap")],
    "mi.step": [("nlsw.mi", "step_mi")],
    "wang.run": [("nlsw.wang", "run_wang")],
    "wang.step": [("nlsw.wang", "_step_wang")],
    "wang.energy": [("nlsw.wang", "energy_wang"),
                    ("nlsw.wang", "energy_wang_printed")],
    "linsolve.factor": [("nlsw.linsolve", "PreparedCyclicSolver.__init__")],
    "linsolve.solve": [("nlsw.linsolve", "PreparedCyclicSolver.solve")],
    "grid.as_field": [("nlsw.grid", "as_field")],
}

# Work inside the identity oracle (its own steps, solves and invariants) is
# charged to the oracle span only, so layer counts describe the integration.
ORACLE = "diagnostics.oracle"


def wrapped_names() -> list:
    return [f"{module}.{qualname}" for targets in WRAPPED.values()
            for module, qualname in targets]


class Tracer:
    """Records (name, start, end, parent, run id) for every traced call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def install(self):
        for name, targets in WRAPPED.items():
            for module, qualname in targets:
                self._patch(name, module, qualname)

    def _patch(self, name, module, qualname):
        missing = LookupError(f"traced name {module}.{qualname} is missing")
        if module not in sys.modules:
            raise missing
        owner = sys.modules[module]
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            raise missing
        wrapper = self._wrap(name, original)
        if path:
            setattr(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "nlsw" or mod_name.startswith("nlsw."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, name, fn):
        spans, stack, run_id, clock = self.spans, self._stack, self.run_id, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, run_id)
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds, i.e. the
        span's duration minus that of its direct children."""
        child_s = [0.0] * len(self.spans)
        under_oracle = [False] * len(self.spans)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_s[parent] += end - start
                under_oracle[i] = under_oracle[parent] or self.spans[parent][0] == ORACLE
        totals = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if under_oracle[i]:
                continue
            entry = totals[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_s[i]
        return {name: dict(totals[name]) for name in WRAPPED}
