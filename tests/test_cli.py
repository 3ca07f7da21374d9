import csv
import gc
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import nlsw
from nlsw import (ConfigurationError, ConsistencyError, GridSpec, NlswError,
                  SolverConfig, UsageError, build_grid, builtin_problem,
                  customized, mi, parse_config, run_mi, run_wang, wang)
from nlsw import cli, diagnostics, g17
from nlsw.cli import (ORDERS_HEADER, SNAPSHOT_HEADER, RunConfig, main, resolve,
                      run_convergence, run_experiment)
from nlsw.cli import _write_series, _write_snapshots
from nlsw.diagnostics import SERIES_COLUMNS
from nlsw.problems import ProblemSpec

from oracles import write_series_rowwise, write_snapshots_rowwise

FLOAT_MAX = sys.float_info.max


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# Config files that json.loads or reading as UTF-8 cannot turn into a
# document, with a part of the message naming the problem: an integer beyond
# Python's int-digit limit, nesting beyond the recursion limit, and a byte
# that is not UTF-8.
UNREADABLE_CONFIGS = {
    "int_digits": (b'{"problem": "linear_plane", "K": ' + b"1" * 5000 + b', "J": 10}',
                   "config parse error: Exceeds the limit"),
    "deep_nesting": (b'{"problem": "linear_plane", "K": 16, "J": 10, "T": '
                     + b"[" * 200_000 + b"]" * 200_000 + b"}",
                     "config parse error: maximum recursion depth"),
    "not_utf8": (b'{"problem": "linear_plane", "K": 16, "J": 10, "output_dir": "\xff"}',
                 "cannot read config file"),
}


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config('{"problem": "linear_plane", "K": 64, "J": 10000}')
        assert cfg.scheme == "mi"
        assert cfg.fp_tol == 1e-13
        assert cfg.snapshot_stride == 100
        assert cfg.bootstrap_mode == "taylor2"
        assert cfg.T is None

    def test_parse_error_carries_line_info(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config('{"problem": "linear_plane",\n "K": }')
        assert "line 2" in str(err.value)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            parse_config('{"problem": "linear_plane", "K": 64, "J": 10, "dt": 1}')
        assert "dt" in str(err.value)

    def test_missing_required_key(self):
        with pytest.raises(ConfigurationError):
            parse_config('{"problem": "linear_plane", "K": 64}')

    def test_stencil_minimum_enforced(self):
        with pytest.raises(ConfigurationError):
            parse_config('{"problem": "linear_plane", "K": 2, "J": 10}')

    def test_time_step_whose_square_overflows_rejected(self):
        # tau = 5e299: tau^2 is inf and 1/tau^2 is 0, which the stencils
        # would meet as an OverflowError mid-run.
        with pytest.raises(ConfigurationError, match="T=1e"):
            parse_config('{"problem": "plane_beta2", "K": 8, "J": 2, "T": 1e300}')

    def test_inline_gamma_two_rejected(self):
        text = json.dumps({"problem": {"base": "plane_beta2",
                                       "params": {"gamma": 2.0}},
                           "K": 64, "J": 10})
        with pytest.raises(ConfigurationError) as err:
            parse_config(text)
        assert "gamma" in str(err.value)

    def test_inline_override_accepted(self):
        text = json.dumps({"problem": {"base": "plane_beta2",
                                       "params": {"beta": 1.0, "lambda": 0.5}},
                           "K": 64, "J": 10})
        cfg = parse_config(text)
        assert cfg.problem["params"]["beta"] == 1.0

    # Rules of a scheme, refused before any output directory or run exists:
    # the energy-preserving scheme's coefficients, the exact bootstrap's
    # solution; then inline problems, the stride and the document itself;
    # last the exact bootstrap on a claimed but unverified solution.
    @pytest.mark.parametrize("payload, message", [
        ({"problem": "linear_plane", "scheme": "wang"},
         "covers gamma = theta = lam = 0 only"),
        ({"problem": "linear_plane", "scheme": "both"},
         "covers gamma = theta = lam = 0 only"),
        ({"problem": "gauss_split", "bootstrap_mode": "exact"},
         "bootstrap mode 'exact' needs the exact solution"),
        ({"problem": {"base": "plane_beta2", "bogus": 1}},
         r"unknown keys in inline problem: \['bogus'\]"),
        ({"problem": {"base": "plane_beta2", "params": {"kappa": 1.0}}},
         "unknown coefficient 'kappa'"),
        ({"problem": "plane_beta2", "snapshot_stride": 0},
         "snapshot_stride must be an integer >= 1, got 0"),
        (["problem", "K", "J"], "config document must be a JSON object"),
        ({"problem": "soliton", "bootstrap_mode": "exact"},
         "bootstrap mode 'exact' needs the exact solution, and a problem's "
         "counts only if it is verified"),
    ])
    def test_refused_at_parse(self, payload, message):
        if isinstance(payload, dict):
            payload = {"K": 16, "J": 4, **payload}
        with pytest.raises(ConfigurationError, match=message):
            parse_config(json.dumps(payload))

    def test_bad_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config('{"problem": "linear_plane", "K": 64, "J": 10, '
                         '"scheme": "rk4"}')

    # A repeated key would silently keep its last value, and lam and lambda
    # name the same coefficient.
    @pytest.mark.parametrize("text, key", [
        ('{"problem": "linear_plane", "K": 16, "J": 4, "K": 32}', "'K'"),
        ('{"problem": {"base": "plane_beta2", "params": {"beta": 1, "beta": 2}},'
         ' "K": 16, "J": 4}', "'beta'"),
        ('{"problem": {"base": "plane_beta2", "params": {"lam": 0.5, '
         '"lambda": 1.0}}, "K": 16, "J": 4}', "'lambda'"),
    ])
    def test_value_given_twice_rejected_naming_key(self, tmp_path, capsys, text, key):
        with pytest.raises(ConfigurationError) as err:
            parse_config(text)
        assert key in str(err.value)
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigurationError" and key in record["message"]

    # Values that bare int()/str()/float() would turn into another run:
    # K=64, fp_max_iter=1, a directory named "None", J=1500, beta=1.0; then
    # integers beyond the float range, which float() cannot convert.
    @pytest.mark.parametrize("key, override", [
        ("K", {"K": 64.7}),
        ("fp_max_iter", {"fp_max_iter": True}),
        ("output_dir", {"output_dir": None}),
        ("J", {"J": "1500"}),
        ("beta", {"problem": {"base": "plane_beta2", "params": {"beta": True}}}),
        ("T", {"T": 10 ** 400}),
        ("fp_tol", {"fp_tol": 10 ** 400}),
        ("K", {"K": 10 ** 400}),
        ("J", {"J": 10 ** 400}),
        ("beta", {"problem": {"base": "plane_beta2",
                              "params": {"beta": -10 ** 400}}}),
    ])
    def test_wrong_json_type_rejected_naming_key(self, key, override):
        payload = {"problem": "linear_plane", "K": 64, "J": 10, **override}
        with pytest.raises(ConfigurationError) as err:
            parse_config(json.dumps(payload))
        assert key in str(err.value)


    @pytest.mark.parametrize("value, named", [
        (None, "null"), (True, "a boolean"), (64.5, "a number"),
        ("6" * 10_000, "a string"), ([64], "an array"), ({"K": 64}, "an object"),
    ], ids=["null", "boolean", "number", "string", "array", "object"])
    def test_wrong_json_type_named_not_echoed(self, value, named):
        payload = {"problem": "linear_plane", "K": value, "J": 10}
        with pytest.raises(ConfigurationError) as err:
            parse_config(json.dumps(payload))
        assert str(err.value) == f"config key 'K' must be a JSON integer, got {named}"


def traced_peak(call):
    """(the error call raises, or None; the peak bytes traced meanwhile)."""
    tracemalloc.start()
    try:
        call()
        error = None
    except NlswError as exc:
        error = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return error, peak


class WouldRun(Exception):
    """Raised in place of assembling the operator, the first allocation of
    size K after the run's checks."""


@settings(max_examples=300, deadline=None)
@given(problem=st.sampled_from(["plane_beta2", "soliton", "gauss_split",
                                "linear_plane",
                                {"base": "plane_beta2", "params": {"beta": 1.0}}]),
       alpha=st.sampled_from([None, 1e307]),
       scheme=st.sampled_from(["mi", "wang"]),
       K=st.sampled_from([16, 2 ** 25, 2 ** 27]),
       J=st.sampled_from([4, 10, 10 ** 6, 10 ** 8]),
       mode=st.sampled_from(["taylor2", "exact", "taylor3"]),
       stride=st.sampled_from([0, 2.5, True, 1, 7, 10 ** 9]))
def test_cli_and_library_refuse_alike(problem, alpha, scheme, K, J, mode, stride):
    # parse_config and the scheme's run function, given the same problem,
    # grid, SolverConfig and stride, refuse the same runs with the same error
    # type and message, the memory cap on both sides of it and an alpha whose
    # stencils overflow, and before anything of size K or J is allocated.  A
    # run both accept stops where the scheme would assemble its operator.
    if alpha is not None:
        base, params = (problem, {}) if isinstance(problem, str) else \
            (problem["base"], problem["params"])
        problem = {"base": base, "params": {**params, "alpha": alpha}}
    payload = {"problem": problem, "K": K, "J": J, "scheme": scheme,
               "bootstrap_mode": mode, "snapshot_stride": stride}
    cli_error, cli_peak = traced_peak(lambda: parse_config(json.dumps(payload)))
    runner, table = {"mi": (run_mi, mi._stencils),
                     "wang": (run_wang, wang._stencils)}[scheme]

    def library():
        spec = builtin_problem(problem) if isinstance(problem, str) else \
            customized(builtin_problem(problem["base"]), **problem["params"])
        grid = build_grid(spec.x_l, spec.x_r, K, spec.default_T, J)
        config = SolverConfig(bootstrap_mode=mode)
        with mock.patch.object(mi, "_assemble", side_effect=WouldRun):
            try:
                runner(spec, grid, config, snapshot_stride=stride)
            except WouldRun:
                mi.check_run(spec, grid, config, stride, table)

    lib_error, lib_peak = traced_peak(library)
    assert (type(cli_error), str(cli_error)) == (type(lib_error), str(lib_error))
    assert max(cli_peak, lib_peak) < 2 ** 20


class TestRunExperiment:
    def run_small(self, tmp_path, **overrides):
        payload = {"problem": "linear_plane", "K": 64, "J": 50, "T": 0.5,
                   "snapshot_stride": 10,
                   "output_dir": str(tmp_path / "out")}
        payload.update(overrides)
        cfg = parse_config(json.dumps(payload))
        return run_experiment(cfg)

    def test_files_and_schemas(self, tmp_path):
        report = self.run_small(tmp_path)
        with open(report["paths"]["series_mi"]) as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == SERIES_COLUMNS
        assert len(rows) - 1 == 50 - 1            # J - 1 data rows
        assert rows[1][0] == "2"                  # first produced level
        # energy_wang column empty on an MI run
        assert rows[1][SERIES_COLUMNS.index("energy_wang")] == ""
        with open(report["paths"]["snapshots_mi"]) as fh:
            snap_rows = list(csv.reader(fh))
        assert tuple(snap_rows[0]) == SNAPSHOT_HEADER
        n_times = (50 - 1) // 10 + 2
        assert len(snap_rows) - 1 == n_times * 64
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["identity_oracle"]["ok"] is True
        assert meta["schemes"]["mi"]["bootstrap_mode"] == "taylor2"
        assert "wall_time_seconds" in meta

    def test_deterministic_outputs(self, tmp_path):
        r1 = self.run_small(tmp_path, output_dir=str(tmp_path / "a"))
        r2 = self.run_small(tmp_path, output_dir=str(tmp_path / "b"))
        for key in ("series_mi", "snapshots_mi"):
            b1 = Path(r1["paths"][key]).read_bytes()
            b2 = Path(r2["paths"][key]).read_bytes()
            assert b1 == b2
        m1 = json.loads((tmp_path / "a" / "meta.json").read_text())
        m2 = json.loads((tmp_path / "b" / "meta.json").read_text())
        m1["wall_time_seconds"] = m2["wall_time_seconds"] = None
        m1["timings"] = m2["timings"] = None
        m1["config"]["output_dir"] = m2["config"]["output_dir"] = None
        assert m1 == m2

    def test_meta_records_run_and_writer_timings(self, tmp_path):
        payload = {"problem": "plane_beta2", "K": 32, "J": 20, "T": 0.2,
                   "scheme": "both", "output_dir": str(tmp_path / "tm")}
        report = run_experiment(parse_config(json.dumps(payload)))
        timings = json.loads(Path(report["paths"]["meta"]).read_text())["timings"]
        assert set(timings) == {"mi", "wang"}
        for phases in timings.values():
            assert set(phases) == {"run_s", "plan_s", "bootstrap_s", "steps_s",
                                   "diagnostics_s", "write_series_s",
                                   "write_snapshots_s"}
            assert all(type(value) is float and value >= 0.0
                       for value in phases.values())

    def test_run_phases_fall_inside_run_s(self, tmp_path):
        # integrate's four phases tile its time after check_run, inside the
        # runner call that run_s brackets.
        payload = {"problem": "plane_beta2", "K": 32, "J": 20, "T": 0.2,
                   "scheme": "both", "output_dir": str(tmp_path / "ph")}
        report = run_experiment(parse_config(json.dumps(payload)))
        timings = json.loads(Path(report["paths"]["meta"]).read_text())["timings"]
        for phases in timings.values():
            inside = (phases["plan_s"] + phases["bootstrap_s"] + phases["steps_s"]
                      + phases["diagnostics_s"])
            assert 0.0 < inside <= phases["run_s"]

    @pytest.mark.parametrize("problem", ["plane_beta2", "gauss_split"])
    def test_summaries_record_absolute_drifts(self, tmp_path, problem):
        # Each summary holds exactly these keys.  The largest relative and
        # absolute drift of each invariant come from the written series and
        # the refs in meta.json, None where the run has no such column, and
        # the final errors from the last row, None without a verified exact
        # solution (gauss_split has none).
        payload = {"problem": problem, "K": 32, "J": 20, "T": 0.2,
                   "scheme": "both", "output_dir": str(tmp_path / "ad")}
        report = run_experiment(parse_config(json.dumps(payload)))
        meta = json.loads(Path(report["paths"]["meta"]).read_text())
        invariants = (("energy_mi", "energy_ref"), ("mass_mi", "mass_ref"),
                      ("energy_wang", "energy_wang_ref"))
        keys = {"steps", "total_fp_iters", "min_fp_iters", "mean_fp_iters",
                "max_fp_iters", "final_err_max", "final_e_infty_sq"} | {
            f"{name}_max_{kind}_drift" for name, _ in invariants for kind in ("rel", "abs")}
        for label in ("mi", "wang"):
            with open(report["paths"][f"series_{label}"], newline="") as fh:
                rows = list(csv.DictReader(fh))
            summary, refs = meta["summaries"][label], meta["schemes"][label]
            assert summary == report["summaries"][label]
            assert set(summary) == keys
            for name, ref in invariants:
                relative = summary[f"{name}_max_rel_drift"]
                drift = summary[f"{name}_max_abs_drift"]
                if name == "energy_wang" and label == "mi":
                    assert relative is drift is None
                    continue
                values = np.array([float(row[name]) for row in rows])
                assert relative == diagnostics.max_rel_drift(values, refs[ref])
                assert drift == max(abs(float(row[name]) - refs[ref]) for row in rows)
                assert drift > 0.0
            for name in ("err_max", "e_infty_sq"):
                final = summary[f"final_{name}"]
                if problem == "gauss_split":
                    assert final is None and rows[-1][name] == ""
                else:
                    assert final == float(rows[-1][name])

    def test_one_run_held_at_a_time(self, tmp_path, monkeypatch):
        # Each runner call first checks that every trajectory returned
        # before it has been released: compare's mi run when wang starts,
        # and each converge level when the next one starts.
        finished, released = [], []

        def tracked(runner):
            def run(*args, **kwargs):
                gc.collect()
                released.append([ref() is None for ref in finished])
                traj = runner(*args, **kwargs)
                finished.append(weakref.ref(traj))
                return traj
            return run

        monkeypatch.setattr("nlsw.cli.run_mi", tracked(run_mi))
        monkeypatch.setattr("nlsw.cli.run_wang", tracked(run_wang))
        payload = {"problem": "plane_beta2", "K": 32, "J": 20, "T": 0.2,
                   "scheme": "both", "output_dir": str(tmp_path / "cmp")}
        run_experiment(parse_config(json.dumps(payload)))
        assert released == [[], [True]]
        finished.clear(), released.clear()
        payload = {"problem": "linear_plane", "K": 16, "J": 40, "T": 0.4,
                   "output_dir": str(tmp_path / "conv")}
        run_convergence(parse_config(json.dumps(payload)), axis="space", levels=3)
        assert released == [[], [True], [True, True]]

    def test_meta_records_versions(self, tmp_path):
        import scipy
        report = self.run_small(tmp_path)
        meta = json.loads(Path(report["paths"]["meta"]).read_text())
        assert meta["versions"] == {
            "python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__,
            "scipy": scipy.__version__, "nlsw": nlsw.__version__}

    def test_builtin_problem_gates_run_once_per_process(self, monkeypatch):
        # parse_config resolves the configuration and run_experiment resolves
        # it again; the verified problem's gates run on the first build only.
        calls = []
        for gate in ("_check_exactness", "_check_time_column"):
            def counted(spec, gate=gate, original=getattr(ProblemSpec, gate)):
                calls.append(gate)
                return original(spec)
            monkeypatch.setattr(ProblemSpec, gate, counted)
        builtin_problem.cache_clear()
        config = RunConfig(problem="plane_beta2", K=16, J=4)
        assert resolve(config)[0] is resolve(config)[0]
        assert calls == ["_check_exactness", "_check_time_column"]

    def test_both_schemes_two_series_files(self, tmp_path):
        payload = {"problem": "plane_beta2", "K": 50, "J": 40, "T": 0.4,
                   "scheme": "both", "snapshot_stride": 20,
                   "output_dir": str(tmp_path / "cmp")}
        report = run_experiment(parse_config(json.dumps(payload)))
        assert (tmp_path / "cmp" / "series_mi.csv").exists()
        assert (tmp_path / "cmp" / "series_wang.csv").exists()
        with open(report["paths"]["series_wang"]) as fh:
            rows = list(csv.reader(fh))
        assert rows[1][SERIES_COLUMNS.index("energy_wang")] != ""
        assert rows[1][SERIES_COLUMNS.index("energy_gap")] == ""

    def test_summary_sweep_statistics_from_fp_iters_column(self, tmp_path):
        payload = {"problem": "plane_beta2", "K": 200, "J": 40, "T": 2.0,
                   "scheme": "both", "snapshot_stride": 20,
                   "output_dir": str(tmp_path / "sw")}
        report = run_experiment(parse_config(json.dumps(payload)))
        with open(report["paths"]["meta"]) as fh:
            summaries = json.load(fh)["summaries"]
        for label in ("mi", "wang"):
            with open(report["paths"][f"series_{label}"]) as fh:
                sweeps = np.array([int(row["fp_iters"]) for row in csv.DictReader(fh)])
            summary = summaries[label]
            assert summary["total_fp_iters"] == sweeps.sum()
            assert summary["min_fp_iters"] == sweeps.min()
            assert summary["mean_fp_iters"] == sweeps.mean()
            assert summary["max_fp_iters"] == sweeps.max()
            # The first step starts from the linear extrapolation, the
            # others from the quadratic one.
            assert sweeps[0] == sweeps.max() > sweeps.min()

    def test_energy_drift_visible_in_series(self, tmp_path):
        report = self.run_small(tmp_path)
        summary = report["summaries"]["mi"]
        assert summary["energy_mi_max_rel_drift"] <= 1e-10

    def test_meta_config_echo_parses_back(self, tmp_path):
        # No T in the config, so the echo carries "T": null.
        cfg = parse_config(json.dumps({"problem": "linear_plane", "K": 32,
                                       "J": 20, "fp_tol": 1,
                                       "output_dir": str(tmp_path / "rt")}))
        report = run_experiment(cfg)
        with open(report["paths"]["meta"]) as fh:
            echo = json.load(fh)["config"]
        assert echo["T"] is None and echo["fp_tol"] == 1.0
        assert parse_config(json.dumps(echo)) == cfg


class TestSnapshotWriter:
    def test_block_writer_matches_rowwise_oracle(self, tmp_path, rng):
        K = 64
        grid = build_grid(-3.0, 7.0, K, 1.0, 10)
        extremes = np.array([-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300,
                             5e-324, 1.0 / 3.0])
        u_extreme = np.empty(K, dtype=complex)   # every (re, im) pair once
        u_extreme.real = np.repeat(extremes, 8)
        u_extreme.imag = np.tile(extremes, 8)
        snapshots = [(0.0, u_extreme),
                     (1.0 / 3.0, rng.normal(size=K) + 1j * rng.normal(size=K)),
                     (2.5e-7, np.exp(1j * grid.nodes) * rng.uniform(0.0, 1e3, K))]
        snapshots += [(float(j), 10.0 ** rng.uniform(-300.0, 300.0, K)
                       * np.exp(2j * np.pi * rng.uniform(size=K)))
                      for j in range(50)]
        _write_snapshots(tmp_path / "block.csv", grid, snapshots)
        write_snapshots_rowwise(tmp_path / "rows.csv", grid, snapshots)
        block = (tmp_path / "block.csv").read_bytes()
        assert block == (tmp_path / "rows.csv").read_bytes()
        assert b"-0,-0,0" in block and b"1e+300" in block and b"1e-300" in block

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_block_writer_matches_rowwise_oracle_property(self, data):
        # Bounds, times and components over the whole float range, signed
        # zeros, infinities and NaN, on small grids.  Where |u| is beyond the
        # float max, the writer and the oracle both write inf.
        bounds = st.sampled_from([-1e300, -3.0, -1e-300, 0.0, 1e-300, 1.0, 1e300])
        x_l, x_r = sorted(data.draw(st.lists(bounds | st.floats(-1e3, 1e3),
                                             min_size=2, max_size=2, unique=True)))
        K = data.draw(st.integers(4, 9))
        assume((x_r - x_l) / K > 1e-150)   # 1/h^2 finite
        # Built directly: build_grid also refuses an h^2 beyond the float
        # range, and the writer must still format nodes out to +-1e300.
        h = (x_r - x_l) / K
        grid = GridSpec(x_l=x_l, x_r=x_r, K=K, J=2, T=1.0, h=h, tau=0.5)
        times = st.sampled_from([0.0, 5e-324, 1.0 / 3.0, 1e300]) | st.floats()
        component = (st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300, FLOAT_MAX,
                                      -FLOAT_MAX, np.inf, -np.inf, np.nan])
                     | st.floats())
        snapshots = []
        for _ in range(data.draw(st.integers(1, 3))):
            u = np.empty(K, dtype=complex)   # no complex arithmetic on inf/nan
            u.real = data.draw(st.lists(component, min_size=K, max_size=K))
            u.imag = data.draw(st.lists(component, min_size=K, max_size=K))
            snapshots.append((data.draw(times), u))
        with tempfile.TemporaryDirectory() as tmp:
            block, rows = Path(tmp, "block.csv"), Path(tmp, "rows.csv")
            _write_snapshots(block, grid, snapshots)
            write_snapshots_rowwise(rows, grid, snapshots)
            assert block.read_bytes() == rows.read_bytes()

    def test_peak_holds_no_text_per_snapshot(self, tmp_path):
        # Each t text is formatted when its snapshot starts, so between
        # 10,000 and 20,000 snapshots at K = 4 the traced peak grows by less
        # than 16 B a snapshot; a list of every snapshot's text grows it by
        # about 150-180 B.  A one-snapshot write fills the caches first.
        grid = build_grid(0.0, 1.0, 4, 1.0, 2)
        u = np.arange(4) * (1.0 + 1.0j) / 3.0
        peaks = []
        for count in (10_000, 20_000):
            snapshots = [(j / 3.0, u) for j in range(count)]
            _write_snapshots(tmp_path / "s.csv", grid, snapshots[:1])
            error, peak = traced_peak(
                lambda: _write_snapshots(tmp_path / "s.csv", grid, snapshots))
            assert error is None
            peaks.append(peak)
        assert peaks[1] - peaks[0] < 16 * 10_000, peaks

    def test_modulus_beyond_float_max_written_as_inf(self, tmp_path):
        # hypot overflows quietly (a warning would fail the suite) to inf,
        # where Python's abs raises.
        grid = build_grid(0.0, 1.0, 4, 1.0, 2)
        u = np.full(4, complex(1.0, 2.0))
        u.real[0] = u.imag[0] = FLOAT_MAX
        _write_snapshots(tmp_path / "s.csv", grid, [(0.0, u)])
        rows = (tmp_path / "s.csv").read_text().splitlines()
        assert rows[1] == f"0,0,{FLOAT_MAX!r},{FLOAT_MAX!r},inf"
        assert rows[2].endswith(f",{abs(complex(1.0, 2.0)):.17g}")

    def test_run_files_match_rowwise_oracle(self, tmp_path):
        # Every level of both schemes' gauss_split runs, against the oracle
        # writing the same trajectories.
        config = parse_config(json.dumps({
            "problem": "gauss_split", "K": 256, "J": 20, "T": 0.2,
            "scheme": "both", "snapshot_stride": 1,
            "output_dir": str(tmp_path / "run")}))
        report = run_experiment(config)
        problem, grid, solver_config = resolve(config)
        for label, runner in (("mi", run_mi), ("wang", run_wang)):
            traj = runner(problem, grid, solver_config, snapshot_stride=1)
            assert len(traj.snapshots) == grid.J + 1
            write_snapshots_rowwise(tmp_path / f"rows_{label}.csv", grid,
                                    traj.snapshots)
            written = Path(report["paths"][f"snapshots_{label}"]).read_bytes()
            assert written == (tmp_path / f"rows_{label}.csv").read_bytes()


class TestSeriesWriter:
    def test_block_writer_matches_rowwise_oracle(self, tmp_path, rng):
        # The columns of real runs of both schemes, then columns of extreme
        # or non-finite floats and numpy integers, with one column absent.
        prob = builtin_problem("plane_beta2")
        grid = build_grid(prob.x_l, prob.x_r, 16, 0.1, 10)
        n = 200
        extremes = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300,
                             np.inf, -np.inf, np.nan, 1e-300, 1.0 / 3.0])
        synthetic = {name: np.where(rng.uniform(size=n) < 0.3,
                                    rng.choice(extremes, n),
                                    10.0 ** rng.uniform(-300.0, 300.0, n)
                                    * rng.choice([-1.0, 1.0], n))
                     for name in SERIES_COLUMNS[1:-1] if name != "energy_wang"}
        synthetic["t"][:len(extremes)] = extremes
        synthetic["step"] = np.arange(n, dtype=np.int64) - 7
        synthetic["step"][-1] = 2 ** 53  # beyond it, not every integer is a float
        synthetic["fp_iters"] = rng.integers(1, 100, n).astype(np.int32)
        synthetic["fp_iters"][:2] = np.iinfo(np.int32).max, np.iinfo(np.int32).min
        for i, series in enumerate((run_mi(prob, grid, SolverConfig()).series,
                                    run_wang(prob, grid, SolverConfig()).series,
                                    synthetic)):
            _write_series(tmp_path / f"block{i}.csv", series)
            write_series_rowwise(tmp_path / f"rows{i}.csv", series)
            block = (tmp_path / f"block{i}.csv").read_bytes()
            assert block == (tmp_path / f"rows{i}.csv").read_bytes()
        for token in (b",,", b"nan", b"-0,", b"inf", b"-inf", b"4.9406564584124654e-324",
                      b"1e+300",
                      b"-2147483648", b"9007199254740992"):
            assert token in block


class TestWritersInPieces:
    """Both writers format PIECE_ROWS rows at a time: the bytes are those of
    the row-wise oracles at every piece size, and a file far longer than a
    piece needs a bounded peak of traced memory."""

    @pytest.mark.parametrize("piece_rows", [1, 3, 7, 64])
    def test_pieces_keep_every_byte(self, tmp_path, rng, monkeypatch, piece_rows):
        monkeypatch.setattr("nlsw.cli.PIECE_ROWS", piece_rows)
        K, n = 20, 45
        grid = build_grid(-3.0, 7.0, K, 1.0, 10)
        snapshots = [(j / 3.0, rng.normal(size=K) + 1j * rng.normal(size=K))
                     for j in range(3)]
        _write_snapshots(tmp_path / "block.csv", grid, snapshots)
        write_snapshots_rowwise(tmp_path / "rows.csv", grid, snapshots)
        assert ((tmp_path / "block.csv").read_bytes()
                == (tmp_path / "rows.csv").read_bytes())
        series = {name: rng.normal(size=n) for name in SERIES_COLUMNS
                  if name != "energy_wang"}
        series["step"] = np.arange(2, n + 2)
        series["fp_iters"] = rng.integers(1, 10, n)
        _write_series(tmp_path / "block.csv", series)
        write_series_rowwise(tmp_path / "rows.csv", series)
        assert ((tmp_path / "block.csv").read_bytes()
                == (tmp_path / "rows.csv").read_bytes())

    # The memory tests write files of 4 and of 16 pieces of PIECE rows.
    PIECE = 64

    def test_long_series_written_in_bounded_memory(self, tmp_path, rng, monkeypatch):
        # The longer file's traced peak is no higher, give or take the step
        # numbers above Python's small-int cache: under 10 B a row more,
        # where one piece for the whole file costs about 1,500 B a row.
        monkeypatch.setattr("nlsw.cli.PIECE_ROWS", self.PIECE)
        peaks = []
        for n in (4 * self.PIECE, 16 * self.PIECE):
            series = {name: rng.normal(size=n) for name in SERIES_COLUMNS}
            series["step"] = np.arange(2, n + 2)
            series["fp_iters"] = rng.integers(1, 10, n)
            error, peak = traced_peak(lambda: _write_series(tmp_path / "s.csv", series))
            assert error is None
            assert (tmp_path / "s.csv").read_bytes().count(b"\r\n") == n + 1
            peaks.append(peak)
        assert peaks[1] - peaks[0] < 10 * 12 * self.PIECE

    def test_large_snapshot_file_written_in_bounded_memory(self, tmp_path, rng,
                                                           monkeypatch):
        # A block of 16 pieces of nodes peaks above one of 4 only by its x
        # texts, formatted once for the file (about 30 B a node): under
        # 100 B a node more, where one piece for the whole block costs about
        # 600 B a node.
        monkeypatch.setattr("nlsw.cli.PIECE_ROWS", self.PIECE)
        peaks = []
        for K in (4 * self.PIECE, 16 * self.PIECE):
            grid = build_grid(-20.0, 20.0, K, 1.0, 10)
            snapshots = [(t, rng.normal(size=K) + 1j * rng.normal(size=K))
                         for t in (0.1, 0.2)]
            error, peak = traced_peak(
                lambda: _write_snapshots(tmp_path / "n.csv", grid, snapshots))
            assert error is None
            assert (tmp_path / "n.csv").read_bytes().count(b"\r\n") == 2 * K + 1
            peaks.append(peak)
        assert peaks[1] - peaks[0] < 100 * 12 * self.PIECE

    def test_a_piece_costs_a_bounded_number_of_bytes_a_row(self, tmp_path, rng,
                                                            monkeypatch):
        # The traced peak of a file of one piece, against the piece's rows:
        # about 1,500 B a series row of eleven fields, and 600 B a snapshot
        # row of its t,x text and three cells (x formatted once, for 4096
        # nodes, at either size).
        def slope(write, rows):
            peaks = []
            for n in rows:
                monkeypatch.setattr("nlsw.cli.PIECE_ROWS", n)
                write(n)
                peaks.append(traced_peak(lambda: write(n))[1])
            return (peaks[1] - peaks[0]) / (rows[1] - rows[0])

        def series(n):
            columns = {name: rng.normal(size=n) for name in SERIES_COLUMNS}
            columns["step"] = np.arange(2, n + 2)
            columns["fp_iters"] = rng.integers(1, 10, n)
            _write_series(tmp_path / "s.csv", columns)

        grid = build_grid(-20.0, 20.0, 4096, 1.0, 10)
        u = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        assert slope(series, (256, 1024)) < 1600
        assert slope(lambda n: _write_snapshots(tmp_path / "n.csv", grid, [(0.1, u)]),
                     (256, 1024)) < 700


@pytest.mark.parametrize("piece_rows", [5, 13, 64, 1024])
def test_snapshot_pieces_cross_blocks_and_keep_every_byte(tmp_path, rng, monkeypatch,
                                                          piece_rows):
    # A piece runs on across snapshot blocks: K = 11 nodes, which none of
    # the piece sizes divides, in 7 blocks, so pieces start and end inside
    # blocks and the last one is short.  The values mix extremes and
    # non-finite entries, t includes -0 and a subnormal, and x spans both
    # '%.17g' layouts.
    monkeypatch.setattr("nlsw.cli.PIECE_ROWS", piece_rows)
    K = 11
    grid = build_grid(-1e-5, 3e17, K, 1.0, 10)
    extremes = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, FLOAT_MAX,
                         -FLOAT_MAX, np.inf, -np.inf, np.nan, 0.1, 1e16, 1e17,
                         (2.0 ** 53 - 1) / 4])
    snapshots = []
    for t in (0.0, -0.0, 5e-324, 1e-5, 0.1, 1e16, 1e300):
        u = np.empty(K, complex)
        u.real, u.imag = rng.choice(extremes, K), rng.choice(extremes, K)
        snapshots.append((t, u))
    _write_snapshots(tmp_path / "block.csv", grid, snapshots)
    write_snapshots_rowwise(tmp_path / "rows.csv", grid, snapshots)
    written = (tmp_path / "block.csv").read_bytes()
    assert written == (tmp_path / "rows.csv").read_bytes()
    assert written.count(b"\r\n") == 7 * K + 1


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_snapshot_writer_matches_rowwise_oracle_around_a_zero_node(data):
    # Nodes x_k = x_l + k*h with an exact zero at node k0, and h placed so
    # that the nodes cross the edge of '%.17g''s fixed form (1e-4 or 1e17):
    # both layouts, of both signs, and zero.  Times include -0 and
    # subnormals, and the piece size goes from one row to the default.
    K = data.draw(st.integers(4, 300))
    k0 = data.draw(st.integers(0, K - 1))
    far = max(k0, K - 1 - k0)
    edge = data.draw(st.sampled_from([1e-4, 1e17]))
    h = data.draw(st.floats(edge / far * (1 + 1e-9), edge / 1.5))
    x_l = -(h * k0)
    grid = GridSpec(x_l=x_l, x_r=x_l + K * h, K=K, J=2, T=1.0, h=h, tau=0.5)
    nodes = grid.nodes
    assert nodes[k0] == 0.0
    assert {b"e" in b"%.17g" % x for x in nodes[nodes != 0].tolist()} == {True, False}
    times = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310]) | st.floats()
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    extremes = np.array([0.0, -0.0, 5e-324, 1e-300, 1e300, np.inf, -np.inf, np.nan])
    snapshots = []
    for _ in range(data.draw(st.integers(1, 4))):
        u = np.empty(K, complex)
        u.real = np.where(rng.uniform(size=K) < 0.2, rng.choice(extremes, K),
                          rng.normal(size=K))
        u.imag = rng.normal(size=K) * 10.0 ** rng.uniform(-300.0, 300.0, K)
        snapshots.append((data.draw(times), u))
    piece_rows = data.draw(st.sampled_from([1, 5, 64, 1024]))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "PIECE_ROWS", piece_rows):
        block, rows = Path(tmp, "block.csv"), Path(tmp, "rows.csv")
        _write_snapshots(block, grid, snapshots)
        write_snapshots_rowwise(rows, grid, snapshots)
        assert block.read_bytes() == rows.read_bytes()


@pytest.mark.parametrize("K, blocks", [(64, 3), (4096, 2)])
def test_snapshot_file_formats_only_its_values_in_one_piece(tmp_path, rng, monkeypatch,
                                                            K, blocks):
    # The t and x texts come from Python's %, so a file builds one
    # g17.Piece, and its cells calls, one per PIECE_ROWS rows, each format
    # the three value fields re_u, im_u and abs_u.
    pieces, calls = [], []

    class Spy(g17.Piece):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pieces.append(self)

        def cells(self, values):
            calls.append(np.shape(values))
            super().cells(values)

    monkeypatch.setattr(g17, "Piece", Spy)
    grid = build_grid(-20.0, 20.0, K, 1.0, 10)
    snapshots = [(j / 3.0, rng.normal(size=K) + 1j * rng.normal(size=K))
                 for j in range(blocks)]
    _write_snapshots(tmp_path / "block.csv", grid, snapshots)
    rows = K * blocks
    assert len(pieces) == 1
    assert len(calls) == -(-rows // cli.PIECE_ROWS)
    assert [fields for _, fields in calls] == [3] * len(calls)
    assert sum(n for n, _ in calls) == rows
    write_snapshots_rowwise(tmp_path / "rows.csv", grid, snapshots)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_compare_formats_the_node_texts_once(tmp_path, monkeypatch):
    # Both snapshot files of a compare are on one grid, whose node texts the
    # writer formats, reading grid.nodes, for the first file only; the
    # second reuses the table, which is kept read-only for the last grid.
    cli._node_texts.cache_clear()
    nodes, writing, reads = GridSpec.nodes, [], []

    def counted(grid):
        reads.extend(writing)
        return nodes.fget(grid)

    def spy(path, grid, snapshots, write=cli._write_snapshots):
        writing.append(path.name)
        write(path, grid, snapshots)
        writing.pop()

    monkeypatch.setattr(GridSpec, "nodes", property(counted))
    monkeypatch.setattr(cli, "_write_snapshots", spy)
    payload = {"problem": "plane_beta2", "K": 64, "J": 20, "T": 0.2,
               "snapshot_stride": 5}
    config = write_config(tmp_path, payload)
    assert main(["compare", config, "--output", str(tmp_path / "out")]) == 0
    assert reads == ["snapshots_mi.csv"]
    texts, lengths, _ = cli._node_texts(resolve(parse_config(json.dumps(payload)))[1])
    assert cli._node_texts.cache_info()[:2] == (2, 1)
    assert not texts.flags.writeable and not lengths.flags.writeable


def test_series_integer_columns_beyond_2_53_are_refused(tmp_path, rng):
    # An integer column is written through '%.17g', which is '%d' only up to
    # 2**53: one holding int64 min, whose magnitude no int64 holds, int64 max
    # or 2**53 + 1 is refused by name, before the file is opened.
    n = 6
    series = {name: rng.normal(size=n) for name in SERIES_COLUMNS
              if name != "energy_wang"}
    series["step"] = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                               0, -1, 10 ** 18, -10 ** 18], np.int64)
    series["fp_iters"] = np.array([np.iinfo(np.int64).max] * n, np.int64)
    series["err_max"] = np.full(n, np.nan)
    path = tmp_path / "block.csv"
    with pytest.raises(UsageError, match="integer column 'step'"):
        _write_series(path, series)
    series["step"] = np.arange(n, dtype=np.int64)
    series["step"][0] = np.iinfo(np.int64).min
    with pytest.raises(UsageError, match="integer column 'step'"):
        _write_series(path, series)
    series["step"][0] = 0
    with pytest.raises(UsageError, match="integer column 'fp_iters'"):
        _write_series(path, series)
    series["fp_iters"][:] = 2 ** 53 + 1
    with pytest.raises(UsageError, match="integer column 'fp_iters'"):
        _write_series(path, series)
    assert not path.exists()


@pytest.mark.parametrize("runner, columns", [
    (run_mi, {"energy_gap", "mass_gap"}),
    (run_wang, {"energy_wang"}),
])
@pytest.mark.parametrize("name, K, T, errors", [
    ("plane_beta2", 16, 0.1, {"err_max", "e_infty_sq", "mod_err"}),
    ("gauss_split", 64, 0.1, set()),
])
def test_series_holds_exactly_the_columns_that_apply(tmp_path, runner, columns,
                                                     name, K, T, errors):
    # The midpoint invariants always, the scheme's own columns, and the error
    # metrics only with a verified exact solution; series.csv leaves exactly
    # the absent columns empty.
    prob = builtin_problem(name)
    grid = build_grid(prob.x_l, prob.x_r, K, T, 10)
    series = runner(prob, grid, SolverConfig()).series
    assert set(series) == {"step", "t", "energy_mi", "mass_mi", "fp_iters",
                           *columns, *errors}
    assert all(len(values) == grid.J - 1 for values in series.values())
    _write_series(tmp_path / "series.csv", series)
    with open(tmp_path / "series.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == grid.J
    absent = [name not in series for name in SERIES_COLUMNS]
    assert all([field == "" for field in row] == absent for row in rows[1:])


class TestRunConvergence:
    def base_config(self, tmp_path, **overrides):
        payload = {"problem": "linear_plane", "K": 16, "J": 400, "T": 0.25,
                   "output_dir": str(tmp_path / "conv")}
        payload.update(overrides)
        return parse_config(json.dumps(payload))

    def test_space_sweep(self, tmp_path):
        cfg = self.base_config(tmp_path)
        report = run_convergence(cfg, axis="space", levels=3)
        assert 1.5 <= report["fitted_order"] <= 2.5
        with open(report["paths"]["orders"]) as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == ORDERS_HEADER
        assert len(rows) - 1 == 3
        params = [float(r[1]) for r in rows[1:]]
        assert params[0] > params[1] > params[2]

    def test_refuses_problem_without_exact(self, tmp_path):
        cfg = self.base_config(tmp_path, problem="gauss_split", K=64, J=50,
                               T=0.5)
        with pytest.raises(ConfigurationError):
            run_convergence(cfg, axis="space", levels=2)

    def test_single_level_usage_error(self, tmp_path):
        # One level, then counts that are not integers.
        cfg = self.base_config(tmp_path)
        for levels in (1, 2.5, 3.0, True, "3"):
            with pytest.raises(UsageError, match="an integer >= 2"):
                run_convergence(cfg, axis="space", levels=levels)

    def test_both_schemes_refused(self, tmp_path):
        cfg = self.base_config(tmp_path, problem="plane_beta2", scheme="both")
        with pytest.raises(ConfigurationError, match="one scheme at a time"):
            run_convergence(cfg, axis="space", levels=2)
        assert not (tmp_path / "conv").exists()

    def test_bad_axis(self, tmp_path):
        cfg = self.base_config(tmp_path)
        with pytest.raises(UsageError):
            run_convergence(cfg, axis="spacetime", levels=2)

    @pytest.mark.parametrize("levels", [25, 10 ** 6])
    def test_ladder_over_memory_cap_refused_before_any_run(self, tmp_path,
                                                           monkeypatch, levels):
        # Level 18 of the space ladder, K = 64 * 2**18, is the first over
        # the cap (477 bytes a node: four levels, the step plan and the
        # working bytes).  The levels are built and checked one at a time,
        # so a million of them never forms 2**999999.
        monkeypatch.setattr("nlsw.cli.run_mi",
                            lambda *args, **kwargs: pytest.fail("a level ran"))
        cfg = self.base_config(tmp_path, K=64, J=10)
        with pytest.raises(ConfigurationError, match="K=16777216, J=10 .* would hold"):
            run_convergence(cfg, axis="space", levels=levels)
        assert not (tmp_path / "conv").exists()


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from([("linear_plane", "mi"), ("plane_beta2", "mi"),
                             ("plane_beta2", "wang")]),
       K=st.integers(4, 2048), J=st.integers(2, 2048),
       T=st.sampled_from([None, 0.5, 3.0]), stride=st.integers(1, 50),
       axis=st.sampled_from(["space", "time"]), levels=st.integers(30, 40))
def test_converge_refuses_what_run_refuses(case, K, J, T, stride, axis, levels):
    # A level of the ladder is the base config with K or J doubled, T fixed
    # and snapshot_stride = J.  Thirty levels reach the memory cap from any
    # base drawn here, and run_convergence refuses the first level over it
    # with the error that parse_config, the check of `nlsw run`, gives for
    # that level's config, before any level runs or its directory exists.
    problem, scheme = case
    payload = {"problem": problem, "K": K, "J": J, "T": T, "scheme": scheme,
               "snapshot_stride": stride}
    with tempfile.TemporaryDirectory() as tmp:
        payload["output_dir"] = str(Path(tmp) / "conv")
        config = parse_config(json.dumps(payload))
        payload["T"] = T if T is not None else builtin_problem(problem).default_T
        for level in range(levels):
            scale = 2 ** level
            K_level, J_level = (K * scale, J) if axis == "space" else (K, J * scale)
            try:
                parse_config(json.dumps(dict(payload, K=K_level, J=J_level,
                                             snapshot_stride=J_level)))
            except NlswError as exc:
                expected = exc
                break
        else:
            pytest.fail("the ladder stays below the memory cap")
        ran = mock.Mock(side_effect=AssertionError("a level ran"))
        with mock.patch("nlsw.cli.run_mi", ran), mock.patch("nlsw.cli.run_wang", ran):
            with pytest.raises(NlswError) as refused:
                run_convergence(config, axis=axis, levels=levels)
        assert (type(refused.value), str(refused.value)) == \
            (type(expected), str(expected))
        assert "would hold" in str(expected)
        assert not (Path(tmp) / "conv").exists()


CONVERGE = ["converge", "--axis", "time", "--levels", "2"]

# Key -> file name of every file that each command writes, in report order.
OUTPUT_TABLES = {
    "run": {"series_mi": "series.csv", "snapshots_mi": "snapshots.csv",
            "meta": "meta.json"},
    "compare": {"series_mi": "series_mi.csv", "snapshots_mi": "snapshots_mi.csv",
                "series_wang": "series_wang.csv",
                "snapshots_wang": "snapshots_wang.csv", "meta": "meta.json"},
    "converge": {"orders": "orders.csv", "meta": "meta.json"},
}


@pytest.mark.parametrize("command", OUTPUT_TABLES)
def test_report_paths_are_the_files_written(tmp_path, command):
    # A command's report names every file it writes, and only those, under
    # the output directory, in the order of its table.
    out = tmp_path / "out"
    config = RunConfig(problem="plane_beta2", K=16, J=20, T=0.2,
                       scheme="both" if command == "compare" else "mi",
                       output_dir=str(out))
    report = (run_convergence(config, axis="time", levels=2)
              if command == "converge" else run_experiment(config))
    table = {key: out / name for key, name in OUTPUT_TABLES[command].items()}
    assert list(report["paths"].items()) == [(key, str(path))
                                             for key, path in table.items()]
    assert sorted(out.iterdir()) == sorted(table.values())
    assert all(path.is_file() for path in table.values())


class TestMainExitCodes:
    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        assert "{run,converge,compare,list-problems}" in capsys.readouterr().out

    def test_list_problems(self, capsys):
        assert main(["list-problems"]) == 0
        out = capsys.readouterr().out
        assert "linear_plane" in out and "gauss_split" in out

    def test_run_success(self, tmp_path, capsys):
        path = write_config(tmp_path, {"problem": "linear_plane", "K": 64,
                                       "J": 20, "T": 0.2})
        assert main(["run", path, "--output", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "series.csv").exists()
        assert (tmp_path / "o" / "snapshots.csv").exists()

    def test_nyquist_wave_with_gamma_runs(self, tmp_path, capsys):
        # At K = 12 the wave e^{6ix} is the Nyquist mode, whose time quotient
        # and temporal mean vanish at the half nodes: every term of the mass
        # is round-off, and its gamma term must be judged against its own
        # scale, not against the vanishing rest.
        path = write_config(tmp_path, {"problem": {"base": "plane_beta2",
                                                   "params": {"gamma": 1.0}},
                                       "K": 12, "J": 100, "T": 1.0,
                                       "output_dir": str(tmp_path / "n")})
        assert main(["run", path]) == 0
        assert capsys.readouterr().err == ""

    def test_config_error_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"problem": "linear_plane", "K": 2,
                                       "J": 20})
        assert main(["run", path]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigurationError"

    def test_module_entry_point_writes_one_record(self, tmp_path):
        # `python -m nlsw.cli` under -W error: the package must not import
        # nlsw.cli ahead of runpy, whose warning would precede the record.
        path = write_config(tmp_path, {"problem": "linear_plane", "K": 16,
                                       "J": 10, "bogus": 1})
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(nlsw.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-W", "error", "-m", "nlsw.cli",
                               "run", path], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 2
        lines = done.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "ConfigurationError"

    def test_missing_file_exit_2(self, capsys):
        assert main(["run", "/nonexistent/config.json"]) == 2

    @pytest.mark.parametrize("name", UNREADABLE_CONFIGS)
    def test_unreadable_config_exit_2(self, tmp_path, capsys, name):
        text, message = UNREADABLE_CONFIGS[name]
        path = tmp_path / "config.json"
        path.write_bytes(text)
        assert main(["run", str(path)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ConfigurationError"
        assert message in record["message"]

    # A value of the wrong type is named by its JSON type, never echoed, so
    # an array nested just below the depth json.loads accepts is refused like
    # any other.  The depths run on to past sys.getrecursionlimit(), so they
    # cross json.loads's limit wherever the stack stands when main parses.
    @pytest.mark.parametrize("key", ["T", "output_dir", "snapshot_stride"])
    def test_deeply_nested_value_exit_2(self, tmp_path, capsys, monkeypatch, key):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "config.json"
        limit = sys.getrecursionlimit()
        messages = set()
        for depth in range(limit - 250, limit + 10):
            path.write_text('{"problem": "linear_plane", "K": 16, "J": 10, '
                            f'"{key}": ' + "[" * depth + "]" * depth + "}")
            assert main(["run", str(path)]) == 2
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            record = json.loads(lines[0])
            assert record["error"] == "ConfigurationError"
            assert len(record["message"]) < 200
            messages.add(record["message"].split(": ")[0])
        assert "config parse error" in messages and len(messages) == 2
        assert os.listdir(tmp_path) == ["config.json"]

    def test_solver_failure_exit_3(self, tmp_path, capsys):
        path = write_config(tmp_path, {"problem": "plane_beta2", "K": 50,
                                       "J": 20, "T": 0.2, "fp_max_iter": 1,
                                       "output_dir": str(tmp_path / "f")})
        assert main(["run", path]) == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "StepFailureError"
        assert record["step"] == 2

    def test_identity_oracle_failure_exit_4(self, tmp_path, capsys, monkeypatch):
        from nlsw import diagnostics as diag_module
        from nlsw import cli as cli_module
        broken = diag_module.IdentityOracleResult(
            ok=False, energy_max_rel_gap=1.0, measured_mass_factor=0.4,
            mass_matches_validated=False, mass_matches_printed=False)
        monkeypatch.setattr(cli_module.diagnostics, "run_identity_oracle",
                            lambda: broken)
        path = write_config(tmp_path, {"problem": "linear_plane", "K": 64,
                                       "J": 20, "T": 0.2,
                                       "output_dir": str(tmp_path / "g")})
        assert main(["run", path]) == 4
        message = json.loads(capsys.readouterr().err)["message"]
        assert "0.4" in message and "beta/4" in message

    def test_failure_inside_loop_names_step_exit_1(self, tmp_path, capsys,
                                                   monkeypatch):
        # The run's own grid has K=50 (the identity oracle uses K=8): the
        # reference evaluation before the loop passes, the first in-loop
        # evaluation (step 2) raises.
        from nlsw import diagnostics as diag_module
        original = diag_module.mi_energy
        calls = []

        def guarded(u_cur, u_next, params, grid, half=None):
            if grid.K == 50:
                calls.append(grid.K)
                if len(calls) > 1:
                    raise ConsistencyError("discrete energy has spurious imaginary part")
            return original(u_cur, u_next, params, grid, half=half)

        monkeypatch.setattr(diag_module, "mi_energy", guarded)
        path = write_config(tmp_path, {"problem": "plane_beta2", "K": 50,
                                       "J": 20, "T": 0.2,
                                       "output_dir": str(tmp_path / "h")})
        assert main(["run", path]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConsistencyError"
        assert record["step"] == 2

    def test_failure_on_bootstrap_pair_names_step_1(self, tmp_path, capsys,
                                                    monkeypatch):
        # The run's own grid has K=64 (the identity oracle uses K=8): noise
        # in the temporal mean of its first pair, (u^0, u^1), evaluated
        # before the loop, trips the energy's realness guard (theta != 0),
        # which ends the run.
        from nlsw import diagnostics as diag_module
        original = diag_module.half_nodes

        def noisy(u_cur, u_next, grid):
            half = original(u_cur, u_next, grid)
            if grid.K == 64:
                rng = np.random.default_rng(0)
                half[1][0] = rng.normal(size=grid.K) + 1j * rng.normal(size=grid.K)
            return half

        monkeypatch.setattr(diag_module, "half_nodes", noisy)
        path = write_config(tmp_path, {"problem": "linear_plane", "K": 64,
                                       "J": 20, "T": 0.2,
                                       "output_dir": str(tmp_path / "b")})
        assert main(["run", path]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert (record["error"], record["step"]) == ("ConsistencyError", 1)

    @pytest.mark.parametrize("command", [["run"], ["compare"],
                                         ["converge", "--axis", "time",
                                          "--levels", "2"]])
    def test_unwritable_output_dir_exit_2(self, tmp_path, capsys, command):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        path = write_config(tmp_path, {"problem": "plane_beta2", "K": 16,
                                       "J": 20, "T": 0.2,
                                       "output_dir": str(blocker / "out")})
        assert main([command[0], path, *command[1:]]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigurationError"
        assert str(blocker / "out") in record["message"]

    @pytest.mark.parametrize("blocker", ["directory", "full disk"])
    @pytest.mark.parametrize("command, name", [
        (["run"], "series.csv"), (["run"], "meta.json"),
        (CONVERGE, "orders.csv"), (["compare"], "snapshots_wang.csv"),
        (["run"], "snapshots.csv"), (["compare"], "series_mi.csv"),
        (["compare"], "snapshots_mi.csv"), (["compare"], "series_wang.csv"),
        (["compare"], "meta.json"), (CONVERGE, "meta.json")])
    def test_unwritable_output_file_exit_2(self, tmp_path, capsys, monkeypatch,
                                           command, name, blocker):
        # A directory where the file goes is refused before any run, a full
        # disk fails the write: either is one ConfigurationError record
        # naming the file.
        out = tmp_path / "out"
        out.mkdir()
        if blocker == "directory":
            (out / name).mkdir()

            def ran(*args, **kwargs):
                raise AssertionError("a scheme ran before the blocked file was refused")
            monkeypatch.setattr("nlsw.cli.run_mi", ran)
            monkeypatch.setattr("nlsw.cli.run_wang", ran)
        elif Path("/dev/full").exists():
            (out / name).symlink_to("/dev/full")
        else:
            pytest.skip("no /dev/full")
        path = write_config(tmp_path, {"problem": "plane_beta2", "K": 16,
                                       "J": 20, "T": 0.2, "output_dir": str(out)})
        assert main([command[0], path, *command[1:]]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ConfigurationError"
        assert record["message"].startswith("cannot write output file: ")
        assert repr(str(out / name)) in record["message"]
        if blocker == "directory":
            assert list(out.iterdir()) == [out / name]

    def test_compare_outside_energy_scheme_exit_2_before_output(self, tmp_path,
                                                                capsys):
        # compare forces scheme both, whose energy-preserving half covers
        # gamma = theta = lam = 0 only: refused before the output directory
        # or the midpoint run exist.
        path = write_config(tmp_path, {"problem": "linear_plane", "K": 16,
                                       "J": 20, "T": 0.2,
                                       "output_dir": str(tmp_path / "cmp")})
        assert main(["compare", path]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ConfigurationError"
        assert "gamma = theta = lam = 0" in record["message"]
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_overflowing_stencils_exit_2_before_output(self, tmp_path, capsys,
                                                       command):
        # alpha / tau overflows the diagonal: refused at parse time as a
        # configuration error naming the coefficients and the mesh, not as
        # the operator's band with an inf entry once the run has begun.
        path = write_config(tmp_path, {
            "problem": {"base": "plane_beta2", "params": {"alpha": 1e307}},
            "K": 16, "J": 100, "T": 1.0, "output_dir": str(tmp_path / "out")})
        assert main([command, path]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "ConfigurationError"
        assert record["message"] == (
            "the scheme's stencils overflow for alpha=1e+307, gamma=0.0, "
            f"theta=0.0, lambda=0.0 with tau=0.01 and h={2.0 * np.pi / 16}")
        assert not (tmp_path / "out").exists()

    def test_overflowing_integer_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"problem": "linear_plane", "K": 64,
                                       "J": 20, "T": 10 ** 400})
        assert main(["run", path]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigurationError"
        assert "'T'" in record["message"]

    def test_compare_forces_both(self, tmp_path, capsys):
        path = write_config(tmp_path, {"problem": "plane_beta2", "K": 50,
                                       "J": 20, "T": 0.2})
        assert main(["compare", path, "--output", str(tmp_path / "c")]) == 0
        assert (tmp_path / "c" / "series_mi.csv").exists()
        assert (tmp_path / "c" / "series_wang.csv").exists()

    def test_converge_command(self, tmp_path, capsys):
        path = write_config(tmp_path, {"problem": "linear_plane", "K": 16,
                                       "J": 200, "T": 0.25})
        code = main(["converge", path, "--axis", "space", "--levels", "3",
                     "--output", str(tmp_path / "k")])
        assert code == 0
        assert "fitted order" in capsys.readouterr().out
        assert (tmp_path / "k" / "orders.csv").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_diverging_picard_exit_3_names_step(self, tmp_path, capsys, command):
        # beta = 1e6 drives the first step's iterate to overflow; the sweep
        # must report that itself, without arithmetic warnings on stderr.
        path = write_config(tmp_path, {
            "problem": {"base": "plane_beta2", "params": {"beta": 1e6}},
            "K": 32, "J": 4, "T": 2, "fp_max_iter": 500,
            "output_dir": str(tmp_path / "d")})
        assert main([command, path]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        record = json.loads(err)
        assert record["error"] == "DivergenceError"
        assert record["step"] == 2

    @pytest.mark.parametrize("K, J, stride", [(10 ** 9, 10, 100),
                                              (64, 10 ** 9, 1),
                                              (64, 10 ** 9, 10 ** 9)])
    def test_run_beyond_memory_cap_exit_2(self, tmp_path, capsys, monkeypatch,
                                          K, J, stride):
        # Refused at parse time: before anything of size K or J is
        # allocated, the output directory is made or the oracle runs.
        monkeypatch.setattr("nlsw.cli.diagnostics.run_identity_oracle",
                            lambda: pytest.fail("the identity oracle ran"))
        payload = {"problem": "plane_beta2", "K": K, "J": J, "T": 1.0,
                   "scheme": "both", "snapshot_stride": stride,
                   "output_dir": str(tmp_path / "big")}
        assert main(["run", write_config(tmp_path, payload)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigurationError"
        prob = builtin_problem("plane_beta2")
        held = mi.held_bytes(build_grid(prob.x_l, prob.x_r, K, 1.0, J), stride)
        assert held > mi.MEMORY_CAP_BYTES
        assert f"would hold {held} bytes" in record["message"]
        assert not (tmp_path / "big").exists()

    @pytest.mark.parametrize("key, value", [("T", 1e-320), ("T", 1e-160),
                                            ("T", 1e300), ("K", 10 ** 20)])
    def test_degenerate_mesh_exit_2(self, tmp_path, capsys, key, value):
        payload = {"problem": "linear_plane", "K": 64, "J": 10, "T": 1.0,
                   "output_dir": str(tmp_path / "m")}
        payload[key] = value
        assert main(["run", write_config(tmp_path, payload)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigurationError"
        assert f"{key}=" in record["message"]


# One config for each parse-time refusal that the README's CLI section lists.
REFUSED_CONFIGS = {
    "stride": {"problem": "linear_plane", "K": 16, "J": 10, "snapshot_stride": 0},
    "memory_cap": {"problem": "plane_beta2", "K": 10 ** 9, "J": 10},
    "bootstrap_mode": {"problem": "plane_beta2", "K": 16, "J": 10,
                       "bootstrap_mode": "taylor3"},
    "exact_unverified": {"problem": "soliton", "K": 16, "J": 10,
                         "bootstrap_mode": "exact"},
    "coefficients": {"problem": "linear_plane", "K": 16, "J": 10, "scheme": "wang"},
    "mesh_range": {"problem": "plane_beta2", "K": 8, "J": 2, "T": 1e300},
    "stencils": {"problem": {"base": "plane_beta2", "params": {"alpha": 1e307}},
                 "K": 16, "J": 100, "T": 1.0},
}


def run_module(tmp_path, text: bytes):
    """`python -m nlsw.cli run config.json` on text in a fresh process in
    tmp_path, with the package under test first on the path."""
    (tmp_path / "config.json").write_bytes(text)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(nlsw.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "nlsw.cli", "run", "config.json"],
                          cwd=tmp_path, capture_output=True, text=True, env=env,
                          timeout=120)


@pytest.mark.parametrize("name", [*REFUSED_CONFIGS, *UNREADABLE_CONFIGS])
def test_cli_refusal_end_to_end(tmp_path, name):
    # `python -m nlsw.cli run` in a fresh process: exit 2, one JSON record
    # and no traceback on stderr, and no output directory.
    text = UNREADABLE_CONFIGS[name][0] if name in UNREADABLE_CONFIGS \
        else json.dumps(REFUSED_CONFIGS[name]).encode()
    done = run_module(tmp_path, text)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ConfigurationError"
    assert not (tmp_path / "out").exists()


# Runs that overflow in the factorisation, or in the bootstrap pair's
# invariants and then the first step, with the error each one ends in.
OVERFLOWING_CONFIGS = {
    "alpha": ({"problem": {"base": "plane_beta2", "params": {"alpha": 1e300}},
               "K": 16, "J": 4, "T": 0.04}, "SingularSystemError", None),
    "tiny_tau": ({"problem": "linear_plane", "K": 8, "J": 3, "T": 1e-150},
                 "SingularSystemError", None),
    "beta": ({"problem": {"base": "plane_beta2", "params": {"beta": 1e300}},
              "K": 16, "J": 4, "T": 0.04}, "DivergenceError", 2),
    "beta_bootstrap": ({"problem": {"base": "plane_beta2", "params": {"beta": 1e308}},
                        "K": 16, "J": 10}, "DivergenceError", 1),
}


@pytest.mark.parametrize("name", OVERFLOWING_CONFIGS)
def test_overflowing_run_writes_only_its_record(tmp_path, name):
    # The run's floating-point policy covers the factorisation, the
    # bootstrap, the steps and the diagnostics: the inf or NaN is reported
    # by the error it causes, and no RuntimeWarning precedes the record.
    payload, error, step = OVERFLOWING_CONFIGS[name]
    done = run_module(tmp_path, json.dumps(payload).encode())
    assert done.returncode == 3
    lines = done.stderr.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert (record["error"], record.get("step")) == (error, step)
