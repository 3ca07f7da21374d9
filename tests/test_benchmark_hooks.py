"""The benchmark's traced layers stay reachable through module attributes.

benchmarks/spans.py wraps each name in its WRAPPED table by patching module
attributes, and its per-layer ratios divide by the recorded call counts.  A
refactor that renames a layer, or that binds a kernel at import time so the
run loops no longer look it up through the module, would make those counts
read 0; these checks catch that without running the benchmark.
"""

import ast
import collections
import functools
import importlib
import math
from pathlib import Path

import pytest

from nlsw import (PreparedCyclicSolver, SolverConfig, build_grid, builtin_problem,
                  run_mi, run_wang)
from nlsw import diagnostics, mi, problems, wang
from nlsw.mi import BLOCK_VALUES

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def _wrapped_targets():
    """The (module, qualname) pairs of spans.py's WRAPPED table, read from
    the file's source so that the benchmark code is not imported."""
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "WRAPPED" for target in node.targets):
            table = ast.literal_eval(node.value)
            return [pair for targets in table.values() for pair in targets]
    raise AssertionError("benchmarks/spans.py has no WRAPPED table")


@pytest.mark.parametrize("module, qualname", _wrapped_targets())
def test_wrapped_name_resolves(module, qualname):
    owner = importlib.import_module(module)
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("runner, kernel", [
    (run_mi, ("nlsw.mi", "step_mi")),
    (run_wang, ("nlsw.wang", "_step_wang")),
])
def test_run_loop_calls_patched_module_attributes(monkeypatch, runner, kernel):
    calls = {}

    def count(module, name):
        original = getattr(importlib.import_module(module), name)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(f"{module}.{name}", counted)

    count(*kernel)
    # half_nodes is not traced; counting it checks that each block's fields
    # are built once and handed to both invariants.
    diagnostics = ("half_nodes", "mi_energy", "mi_mass")
    for name in diagnostics:
        count("nlsw.diagnostics", name)
    if runner is run_wang:
        diagnostics += ("energy_wang", "energy_wang_printed")
        for name in diagnostics[3:]:
            count("nlsw.wang", name)
    J = 6
    prob = builtin_problem("plane_beta2")
    # K = 16 runs its 5 steps as one block, K = 1024 as blocks of 4 and 1.
    for K in (16, 1024):
        calls.clear()
        block = max(1, BLOCK_VALUES // K)
        # One call for the bootstrap pair, then one per block of steps.
        per_block = 1 + math.ceil((J - 1) / block)
        grid = build_grid(prob.x_l, prob.x_r, K, J * 0.01, J)
        runner(prob, grid, SolverConfig())
        assert calls == {kernel[1]: J - 1, **dict.fromkeys(diagnostics, per_block)}


@pytest.mark.parametrize("runner", [run_mi, run_wang])
def test_every_sweep_solves_through_the_class_attribute(monkeypatch, runner):
    # spans.py traces linsolve.solve by patching PreparedCyclicSolver.solve,
    # and linsolve.solve.us_per_call divides by the calls it records: every
    # sweep of a beta != 0 run must go through that attribute.
    original = PreparedCyclicSolver.solve
    calls = []

    def counted(self, rhs):
        calls.append(rhs.shape)
        return original(self, rhs)
    monkeypatch.setattr(PreparedCyclicSolver, "solve", counted)
    prob = builtin_problem("plane_beta2")
    grid = build_grid(prob.x_l, prob.x_r, 64, 0.5, 10)
    traj = runner(prob, grid, SolverConfig())
    assert prob.params.beta != 0.0
    assert len(calls) == traj.meta["total_fp_iters"] > grid.J - 1


@pytest.mark.parametrize("runner, module", [(run_mi, mi), (run_wang, wang)])
def test_a_run_builds_its_plan_and_stencils_a_fixed_number_of_times(monkeypatch,
                                                                     runner, module):
    # integrate builds one StepPlan, and with it the one factorisation and
    # the stencil columns, per run; no step evaluates the stencil table
    # again, so the counts do not grow with J.
    counts = collections.Counter()

    def count(owner, name):
        original = getattr(owner, name)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[owner.__name__, name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(module, "_stencils")
    count(mi.StepPlan, "__init__")
    count(PreparedCyclicSolver, "__init__")
    prob = builtin_problem("plane_beta2")
    seen = []
    for J in (6, 60):
        counts.clear()
        runner(prob, build_grid(prob.x_l, prob.x_r, 32, J * 0.01, J), SolverConfig())
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert seen[0][("StepPlan", "__init__")] == seen[0][("PreparedCyclicSolver", "__init__")] == 1


@pytest.mark.parametrize("runner", [run_mi, run_wang])
def test_a_run_checks_its_levels_a_fixed_number_of_times(monkeypatch, runner):
    # A run's steps take integrate's own levels unchecked; only the
    # bootstrap and the diagnostics check theirs, once per run and once per
    # block.  At K = 32 a block holds 128 pairs, so J = 6 and J = 60 are one
    # block each and make equal counts, where a check in every step, through
    # either name, would add 54.
    calls = collections.Counter()
    for module in (mi, wang, diagnostics, problems):
        for name in ("as_field", "as_level"):
            if not hasattr(module, name):
                continue
            original = getattr(module, name)

            def counted(*args, _original=original, **kwargs):
                calls["checks"] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    prob = builtin_problem("plane_beta2")
    seen = []
    for J in (6, 60):
        calls.clear()
        runner(prob, build_grid(prob.x_l, prob.x_r, 32, J * 0.01, J), SolverConfig())
        seen.append(calls["checks"])
    assert seen[0] == seen[1] > 0
