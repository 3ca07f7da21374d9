import csv
import json
from pathlib import Path

import numpy as np
import pytest

from nlsw import (ConfigurationError, ConsistencyError, SolverConfig, UsageError,
                  build_grid, builtin_problem, parse_config, run_mi, run_wang)
from nlsw.cli import (ORDERS_HEADER, SERIES_HEADER, SNAPSHOT_HEADER, main,
                      run_convergence, run_experiment)
from nlsw.cli import _write_series, _write_snapshots
from nlsw.diagnostics import DiagnosticsRow

from oracles import write_series_rowwise, write_snapshots_rowwise


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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

    def test_bad_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config('{"problem": "linear_plane", "K": 64, "J": 10, '
                         '"scheme": "rk4"}')

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
        assert tuple(rows[0]) == SERIES_HEADER
        assert len(rows) - 1 == 50 - 1            # J - 1 data rows
        assert rows[1][0] == "2"                  # first produced level
        # energy_wang column empty on an MI run
        assert rows[1][SERIES_HEADER.index("energy_wang")] == ""
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
        m1["config"]["output_dir"] = m2["config"]["output_dir"] = None
        assert m1 == m2

    def test_both_schemes_two_series_files(self, tmp_path):
        payload = {"problem": "plane_beta2", "K": 50, "J": 40, "T": 0.4,
                   "scheme": "both", "snapshot_stride": 20,
                   "output_dir": str(tmp_path / "cmp")}
        report = run_experiment(parse_config(json.dumps(payload)))
        assert (tmp_path / "cmp" / "series_mi.csv").exists()
        assert (tmp_path / "cmp" / "series_wang.csv").exists()
        with open(report["paths"]["series_wang"]) as fh:
            rows = list(csv.reader(fh))
        assert rows[1][SERIES_HEADER.index("energy_wang")] != ""
        assert rows[1][SERIES_HEADER.index("energy_gap")] == ""

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


class TestSeriesWriter:
    def test_block_writer_matches_rowwise_oracle(self, tmp_path, rng):
        # Real rows of both schemes, then rows whose field types vary from
        # row to row: None, Python and numpy integers and floats, an integer
        # in a float column, and extreme or non-finite floats.
        prob = builtin_problem("plane_beta2")
        grid = build_grid(prob.x_l, prob.x_r, 16, 0.1, 10)
        rows = (run_mi(prob, grid, SolverConfig()).rows
                + run_wang(prob, grid, SolverConfig()).rows)
        extremes = [-0.0, 0.0, 1e-300, -1e300, 5e-324, 1.0 / 3.0, np.inf,
                    -np.inf, np.nan, 0, -7, np.float64(2.5), np.int64(9), None]
        for j in range(200):
            values = [rng.choice(extremes) if rng.uniform() < 0.3
                      else float(10.0 ** rng.uniform(-300.0, 300.0)
                                 * rng.choice([-1.0, 1.0]))
                      for _ in SERIES_HEADER[2:-1]]
            step = np.int64(j) if j % 2 else j
            fp_iters = None if j % 5 == 0 else int(rng.integers(1, 100))
            rows.append(DiagnosticsRow(step, float(rng.uniform()), *values,
                                       fp_iters=fp_iters))
        _write_series(tmp_path / "block.csv", rows)
        write_series_rowwise(tmp_path / "rows.csv", rows)
        block = (tmp_path / "block.csv").read_bytes()
        assert block == (tmp_path / "rows.csv").read_bytes()
        assert b",," in block and b"nan" in block and b"-0," in block


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
        cfg = self.base_config(tmp_path)
        with pytest.raises(UsageError):
            run_convergence(cfg, axis="space", levels=1)

    def test_bad_axis(self, tmp_path):
        cfg = self.base_config(tmp_path)
        with pytest.raises(UsageError):
            run_convergence(cfg, axis="spacetime", levels=2)


class TestMainExitCodes:
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

    def test_config_error_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"problem": "linear_plane", "K": 2,
                                       "J": 20})
        assert main(["run", path]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigurationError"

    def test_missing_file_exit_2(self, capsys):
        assert main(["run", "/nonexistent/config.json"]) == 2

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

    def test_failure_inside_loop_names_step_exit_1(self, tmp_path, capsys,
                                                   monkeypatch):
        # The run's own grid has K=50 (the identity oracle uses K=8): the
        # reference evaluation before the loop passes, the first in-loop
        # evaluation (step 2) raises.
        from nlsw import diagnostics as diag_module
        original = diag_module.mi_energy
        calls = []

        def guarded(u_cur, u_next, params, grid):
            if grid.K == 50:
                calls.append(grid.K)
                if len(calls) > 1:
                    raise ConsistencyError("discrete energy has spurious imaginary part")
            return original(u_cur, u_next, params, grid)

        monkeypatch.setattr(diag_module, "mi_energy", guarded)
        path = write_config(tmp_path, {"problem": "plane_beta2", "K": 50,
                                       "J": 20, "T": 0.2,
                                       "output_dir": str(tmp_path / "h")})
        assert main(["run", path]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConsistencyError"
        assert record["step"] == 2

    @pytest.mark.parametrize("command", [["run"], ["compare"],
                                         ["converge", "--axis", "time",
                                          "--levels", "2"]])
    def test_unwritable_output_dir_exit_2(self, tmp_path, capsys, command):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        path = write_config(tmp_path, {"problem": "linear_plane", "K": 16,
                                       "J": 20, "T": 0.2,
                                       "output_dir": str(blocker / "out")})
        assert main([command[0], path, *command[1:]]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigurationError"
        assert str(blocker / "out") in record["message"]

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
