"""CLI harness: commands, artifact schemas, config handling, exit codes."""

import numpy as np
import pytest

from cir_particles import classify_regime, ModelParams
from cir_particles.cli import main


def run_cli(args):
    return main(args)


class TestRegimeCommand:
    def test_table_row_output(self, capsys):
        rc = run_cli(["regime", "--alpha", "2.6", "--beta", "0.5", "--gamma", "0", "--n", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "kappa=2.1" in out
        assert "global_solution=global" in out
        assert "pair_collisions=almost_sure" in out
        assert "zero_hit_lambda1=never" in out

    def test_writes_report_file(self, tmp_path, capsys):
        rc = run_cli(
            ["regime", "--alpha", "0.4", "--beta", "0.5", "--gamma", "0", "--n", "2",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        text = (tmp_path / "regime.txt").read_text()
        assert "global_solution=none" in text


class TestSimulateCommand:
    def test_artifacts_and_determinism(self, tmp_path, capsys):
        args = ["simulate", "--alpha", "2", "--beta", "0.5", "--gamma", "1",
                "--n", "2", "--paths", "2", "--dt", "1e-3", "--horizon", "0.2",
                "--seed", "5", "--record-stride", "20"]
        rc1 = run_cli(args + ["--out", str(tmp_path / "a")])
        rc2 = run_cli(args + ["--out", str(tmp_path / "b")])
        assert rc1 == 0 and rc2 == 0
        for name in ("trajectories.csv", "events.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b
        lines = (tmp_path / "a" / "trajectories.csv").read_text().splitlines()
        assert lines[0].startswith("# cir-particles version=")
        assert lines[1] == "path_id,t,lambda_1,lambda_2"
        assert lines[2].startswith("0,0.0,")

    def test_config_file_with_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 2.0\nbeta=0.5\ngamma=1.0\nn=2\npaths=1\n"
                       "dt=1e-3\nhorizon=0.1\nseed=3\n# a comment\n")
        rc = run_cli(["simulate", "--config", str(cfg), "--paths", "2",
                      "--out", str(tmp_path / "out")])
        assert rc == 0
        text = (tmp_path / "out" / "trajectories.csv").read_text()
        assert "paths=2" in text.splitlines()[0]  # override wins over file


class TestPhaseDiagram:
    def test_analytic_column_matches_classifier(self, tmp_path, capsys):
        rc = run_cli(
            ["phase-diagram", "--sweep", "alpha=0.4,0.7,1.2,2.6;beta=0.5;gamma=0",
             "--n", "2", "--paths", "0", "--out", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 4
        for row in rows:
            alpha = float(row[0])
            report = classify_regime(ModelParams(alpha=alpha, beta=0.5, gamma=0.0, n=2))
            assert row[5] == report.global_solution.value
            assert row[6] == report.pair_collisions.value
            assert row[7] == report.zero_hit_lambda1.value

    def test_bad_sweep_axis_is_config_error(self, tmp_path, capsys):
        rc = run_cli(["phase-diagram", "--sweep", "delta=1,2", "--out", str(tmp_path)])
        assert rc == 1

    def test_empirical_columns_present_with_paths(self, tmp_path, capsys):
        rc = run_cli(
            ["phase-diagram", "--sweep", "alpha=2.6;beta=0.5;gamma=1",
             "--n", "2", "--paths", "32", "--dt", "2e-3", "--horizon", "1.0",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        row = lines[2].split(",")
        frac = float(row[8])
        assert 0.0 <= frac <= 1.0


class TestLaplaceCheck:
    def test_report_schema_and_agreement(self, tmp_path, capsys):
        rc = run_cli(
            ["laplace-check", "--alpha", "2", "--beta", "0.5", "--gamma", "1",
             "--n", "2", "--paths", "4000", "--dt", "5e-3", "--seed", "2",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "laplace.csv").read_text().splitlines()
        assert lines[1] == "mu,t,closed_form,mc_estimate,mc_stderr,z_score"
        zs = [abs(float(line.split(",")[-1])) for line in lines[2:]]
        assert len(zs) == 6
        assert max(zs) <= 5.0


class TestCollisionScan:
    def test_ladder_output(self, tmp_path, capsys):
        rc = run_cli(
            ["collision-scan", "--alpha", "1", "--beta", "0.4", "--gamma", "0.5",
             "--n", "3", "--k", "2", "--paths", "64", "--dt", "2e-3",
             "--horizon", "20", "--scheme", "exact_cir_splitting",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "first_passage.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        assert [float(r[1]) for r in rows] == [1e-2, 1e-3, 1e-4]
        fracs = [float(r[2]) for r in rows]
        assert fracs[0] >= fracs[1] >= fracs[2]


class TestErrors:
    def test_bad_model_parameter_exit_code(self, capsys):
        rc = run_cli(["regime", "--alpha", "-1", "--beta", "0.5", "--n", "2"])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

    def test_nan_parameter_is_config_error(self, capsys):
        rc = run_cli(["regime", "--alpha", "nan", "--beta", "0.5", "--gamma", "1", "--n", "2"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("config error: ") and captured.out == ""

    def test_nan_dt_is_config_error(self, tmp_path, capsys):
        rc = run_cli(["simulate", "--dt", "nan", "--paths", "1", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "trajectories.csv").exists()

    def test_bad_x0_length(self, tmp_path, capsys):
        rc = run_cli(["simulate", "--n", "3", "--x0", "1,2", "--out", str(tmp_path)])
        assert rc == 1

    def test_stationary_compare_not_evaluable_exit_code(self, tmp_path, capsys):
        rc = run_cli(["stationary-compare", "--alpha", "2", "--beta", "0.5",
                      "--gamma", "0", "--n", "2", "--paths", "4", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("not evaluable: ") and err.count("\n") == 1

    def test_collision_scan_bad_k_exit_code(self, tmp_path, capsys):
        rc = run_cli(["collision-scan", "--k", "5", "--n", "2", "--paths", "4",
                      "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("bad k: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "dt, t", [("0.3", "1.0"), ("0", "1.0"), ("0.25", "0"), ("inf", "1.0")],
        ids=["off_grid", "zero_dt", "zero_t", "inf_dt"],
    )
    def test_laplace_probe_off_dt_grid_is_config_error(self, dt, t, tmp_path, capsys):
        rc = run_cli(["laplace-check", "--alpha", "2", "--beta", "0.5", "--gamma", "1",
                      "--n", "2", "--paths", "10", "--dt", dt, "--t", t,
                      "--out", str(tmp_path)])
        assert rc == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "laplace.csv").exists()

    def test_unknown_scheme_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            run_cli(["simulate", "--scheme", "milstein"])


class TestVerifyCommand:
    def test_exit_codes_follow_results(self, monkeypatch, capsys):
        from cir_particles import acceptance as acc
        from cir_particles.acceptance import CriterionResult

        def fake_run(only=None, quiet=False):
            return [CriterionResult(8, "gradient_and_sum_identity", True, ["ok"])]

        monkeypatch.setattr(acc, "run_acceptance", fake_run)
        assert run_cli(["verify", "--only", "8"]) == 0

        def fake_run_fail(only=None, quiet=False):
            return [CriterionResult(8, "gradient_and_sum_identity", False, ["bad"])]

        monkeypatch.setattr(acc, "run_acceptance", fake_run_fail)
        assert run_cli(["verify", "--only", "8"]) == 2

    def test_report_file(self, monkeypatch, tmp_path, capsys):
        from cir_particles import acceptance as acc
        from cir_particles.acceptance import CriterionResult

        monkeypatch.setattr(
            acc, "run_acceptance",
            lambda only=None, quiet=False: [CriterionResult(9, "coupled_cir_ordering", True, ["ok"])],
        )
        assert run_cli(["verify", "--only", "9", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "acceptance.csv").read_text().splitlines()
        assert lines[1] == "criterion,name,passed,details"
        assert lines[2].startswith("9,coupled_cir_ordering,1,")


class TestX0:
    def test_initial_state_respected(self, tmp_path, capsys):
        rc = run_cli(
            ["simulate", "--alpha", "2", "--beta", "0.5", "--gamma", "1", "--n", "2",
             "--paths", "1", "--dt", "1e-3", "--horizon", "0.05",
             "--x0", "0.25,9.0", "--out", str(tmp_path)]
        )
        assert rc == 0
        first_row = (tmp_path / "trajectories.csv").read_text().splitlines()[2]
        cols = first_row.split(",")
        assert float(cols[2]) == 0.25 and float(cols[3]) == 9.0
