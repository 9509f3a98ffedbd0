"""CLI harness: commands, artifact schemas, config handling, exit codes."""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from cir_particles import ModelParams, Scheme, SimConfig, classify_regime, simulate_path
from cir_particles.cli import _build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


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

    def test_out_from_config_file_writes_the_report(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"alpha=0.4\nbeta=0.5\ngamma=0\nn=2\nout={tmp_path / 'report'}\n")
        assert run_cli(["regime", "--config", str(cfg)]) == 0
        assert "global_solution=none" in (tmp_path / "report" / "regime.txt").read_text()

    def test_header_lists_only_what_regime_reads(self, tmp_path, capsys):
        # classify_regime reads the model alone: no scheme, step, seed or start.
        from cir_particles import __version__

        argv = ["regime", "--alpha", "0.4", "--beta", "0.5", "--gamma", "0", "--n", "2",
                "--scheme", "exact_cir_splitting", "--dt", "0.01", "--seed", "5",
                "--paths", "7", "--record-stride", "3", "--x0", "0.5,0.5",
                "--out", str(tmp_path)]
        assert run_cli(argv) == 0
        header = (tmp_path / "regime.txt").read_text().splitlines()[0]
        assert header == (f"# cir-particles version={__version__} command=regime "
                          "alpha=0.4 beta=0.5 gamma=0 n=2 kappa=-0.1")
        assert capsys.readouterr().out.splitlines()[0] == header


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


# scheme -> ((alpha, beta, gamma, n), x0, horizon, epsilon, paths); the record
# stride 7 divides none of the step counts.
SIMULATE_CASES = {
    "truncated_euler": ((1.0, 0.5, 0.5, 3), "0.05,0.06,1", 0.5, None, 3),
    # switches both ways, and three of the four paths stop at zeta_eps
    "regularized_switching": ((0.8, 0.5, 1.0, 2), "0.1,1", 2.0, 0.05, 4),
    "root_coordinates": ((2.0, 0.5, 0.5, 3), "0.05,0.5,1", 0.5, None, 3),
    # kappa < 0: some paths stop at S_eps, the others reach the horizon
    "c_epsilon": ((0.3, 0.5, 1.0, 2), "0.3,1", 0.2, 0.02, 4),
}


def _simulate_argv(scheme, model, x0, horizon, epsilon, paths, seed=9):
    alpha, beta, gamma, n = model
    argv = ["simulate", "--scheme", scheme, "--alpha", str(alpha), "--beta", str(beta),
            "--gamma", str(gamma), "--n", str(n), "--x0", x0, "--paths", str(paths),
            "--dt", "1e-3", "--horizon", str(horizon), "--seed", str(seed),
            "--record-stride", "7"]
    if epsilon is not None:
        argv += ["--epsilon", str(epsilon)]
    return argv


class TestSimulateArtifacts:
    @pytest.mark.parametrize("scheme", sorted(SIMULATE_CASES))
    def test_rows_equal_per_path_simulation(self, scheme, tmp_path, capsys):
        model, x0, horizon, epsilon, paths = SIMULATE_CASES[scheme]
        argv = _simulate_argv(scheme, model, x0, horizon, epsilon, paths)
        assert run_cli(argv + ["--out", str(tmp_path)]) == 0

        params = ModelParams(*model)
        config = SimConfig(scheme=Scheme(scheme), dt=1e-3, horizon=horizon,
                           epsilon=epsilon, seed=9, paths=paths, record_stride=7)
        initial = np.array([float(v) for v in x0.split(",")])
        traj = ["path_id,t," + ",".join(f"lambda_{i + 1}" for i in range(params.n))]
        events = ["path_id,kind,index,time,level"]
        stopped = switched = 0
        for i in range(paths):
            rec, log = simulate_path(params, config, i, initial)
            stopped += rec.terminated.value.startswith("stopped")
            switched += bool(rec.switches)
            for t, row in zip(rec.times, rec.lambdas):
                traj.append(f"{i},{float(t)!r}," + ",".join(repr(float(v)) for v in row))
            for ev in log.events:
                idx = "" if ev.index is None else ev.index
                events.append(f"{i},{ev.kind.value},{idx},"
                              f"{float(ev.time)!r},{float(ev.level)!r}")
        if scheme in ("c_epsilon", "regularized_switching"):
            assert 0 < stopped < paths
        if scheme == "regularized_switching":
            assert switched == paths

        for name, lines in (("trajectories.csv", traj), ("events.csv", events)):
            text = (tmp_path / name).read_text()
            header = text.split("\n", 1)[0]
            assert header.startswith("# cir-particles ") and "command=simulate" in header
            assert text == "\n".join([header, *lines]) + "\n"

    def test_exact_splitting_reruns_identically(self, tmp_path, capsys):
        argv = _simulate_argv("exact_cir_splitting", (1.0, 0.5, 0.5, 3), "0.05,0.5,1",
                              0.3, None, 4)
        assert run_cli(argv + ["--out", str(tmp_path / "a")]) == 0
        assert run_cli(argv + ["--out", str(tmp_path / "b")]) == 0
        for name in ("trajectories.csv", "events.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        rows = [line.split(",") for line in
                (tmp_path / "a" / "trajectories.csv").read_text().splitlines()[2:]]
        ids = [int(r[0]) for r in rows]
        assert ids == sorted(ids) and sorted(set(ids)) == list(range(4))
        for path_id in range(4):
            block = np.array([[float(v) for v in r[1:]] for r in rows if int(r[0]) == path_id])
            assert block[0, 0] == 0.0 and block[-1, 0] == pytest.approx(0.3)
            assert np.all(np.diff(block[:, 0]) > 0.0)
            assert np.all(block[:, 1:] >= 0.0)
            assert np.all(np.diff(block[:, 1:], axis=1) >= 0.0)


def _readme_cli_commands() -> list[list[str]]:
    text = README.read_text()
    block = re.search(r"## CLI\n.*?```bash\n(.*?)```", text, re.S).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "cir-particles", line
            commands.append(words[1:])
    return commands


class TestReadme:
    def test_cli_block_parses(self):
        commands = _readme_cli_commands()
        assert {c[0] for c in commands} == {
            "simulate", "phase-diagram", "regime", "laplace-check",
            "stationary-compare", "collision-scan",
        }
        parser = _build_parser()
        for argv in commands:
            parser.parse_args(argv)


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

    def test_header_lists_only_what_phase_diagram_reads(self, tmp_path, capsys):
        # A sweep records no trajectory, so record_stride is not a field.
        rc = run_cli(["phase-diagram", "--sweep", "alpha=2.6;beta=0.5;gamma=1",
                      "--paths", "0", "--record-stride", "7", "--out", str(tmp_path)])
        assert rc == 0
        header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
        keys = [item.split("=")[0] for item in header.split()[2:]]
        assert keys == ["version", "command", "alpha", "beta", "gamma", "n", "kappa",
                        "scheme", "dt", "horizon", "epsilon", "collision_tol",
                        "kick_cap", "seed", "paths", "x0"]

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


    def test_header_lists_only_what_laplace_check_reads(self, tmp_path, capsys):
        from cir_particles import __version__

        argv = ["laplace-check", "--alpha", "2", "--beta", "0.5", "--gamma", "1", "--n", "2",
                "--paths", "200", "--dt", "5e-3", "--t", "0.5", "--seed", "3"]
        assert run_cli(argv + ["--out", str(tmp_path / "a")]) == 0
        unused = ["--scheme", "root_coordinates", "--horizon", "3", "--epsilon", "0.1",
                  "--collision-tol", "0.01", "--kick-cap", "2", "--record-stride", "5"]
        assert run_cli(argv + unused + ["--out", str(tmp_path / "b")]) == 0
        text = (tmp_path / "a" / "laplace.csv").read_text()
        assert text == (tmp_path / "b" / "laplace.csv").read_text()
        assert text.splitlines()[0] == (
            f"# cir-particles version={__version__} command=laplace-check alpha=2 beta=0.5 "
            "gamma=1 n=2 kappa=1.5 dt=0.005 seed=3 paths=200 x0=1.0,2.0"
        )


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

    @pytest.mark.parametrize("scheme", ["truncated_euler", "exact_cir_splitting"])
    def test_blow_up_exits_3(self, scheme, tmp_path, capsys):
        rc = run_cli(["simulate", "--scheme", scheme, "--gamma", "-5", "--dt", "0.9",
                      "--horizon", "405", "--paths", "1", "--out", str(tmp_path)])
        assert rc == 3
        assert (tmp_path / "trajectories.csv").exists()

    def test_nan_dt_is_config_error(self, tmp_path, capsys):
        rc = run_cli(["simulate", "--dt", "nan", "--paths", "1", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "trajectories.csv").exists()

    def test_horizon_off_the_dt_grid_is_config_error(self, tmp_path, capsys):
        rc = run_cli(["simulate", "--dt", "1e-3", "--horizon", "0.0015", "--paths", "1",
                      "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "trajectories.csv").exists()

    def test_bad_x0_length(self, tmp_path, capsys):
        rc = run_cli(["simulate", "--n", "3", "--x0", "1,2", "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("x0", ["a,b", "-1,2", "2,1", "nan,1"])
    def test_bad_x0_values_are_config_errors(self, x0, tmp_path, capsys):
        rc = run_cli(["laplace-check", "--n", "2", "--paths", "10", f"--x0={x0}",
                      "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error: x0 ")
        assert not (tmp_path / "laplace.csv").exists()

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


class TestExitCodeContract:
    """Bad input exits 1 with a one-line message on stderr, never a traceback."""

    @pytest.mark.parametrize(
        "argv, artifact, prefix",
        [
            (["simulate", "--config", "{cfg}"], "trajectories.csv", "config error: paths "),
            (["verify", "--only", "abc"], "acceptance.csv", "config error: only "),
            (["verify", "--only", "99"], "acceptance.csv", "config error: only "),
            (["phase-diagram", "--sweep", "alpha=abc"], "sweep.csv", "config error: sweep "),
            (["laplace-check", "--paths", "0"], "laplace.csv", "config error: paths "),
            (["laplace-check", "--paths", "-1"], "laplace.csv", "config error: paths "),
            (["laplace-check", "--paths", "1"], "laplace.csv", "config error: paths "),
            (["laplace-check", "--paths", "10", "--mu", "-1"], "laplace.csv",
             "config error: mu "),
            (["stationary-compare", "--paths", "5", "--horizon", "0.01"], "stationary.csv",
             "too few samples: "),
        ],
        ids=["config_paths_1e3", "verify_only_abc", "verify_only_99", "sweep_abc",
             "laplace_paths_0", "laplace_paths_negative", "laplace_paths_1",
             "laplace_mu_negative", "stationary_too_few_samples"],
    )
    def test_bad_input_exits_1_with_one_line(self, argv, artifact, prefix, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("paths=1e3\n")
        argv = [arg.format(cfg=cfg) for arg in argv] + ["--out", str(tmp_path / "out")]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out" / artifact).exists()


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

    def test_out_from_config_file_writes_the_report(self, monkeypatch, tmp_path, capsys):
        from cir_particles import acceptance as acc
        from cir_particles.acceptance import CriterionResult

        monkeypatch.setattr(
            acc, "run_acceptance",
            lambda only=None, quiet=False: [CriterionResult(8, "gradient_and_sum_identity", True, ["ok"])],
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out={tmp_path / 'report'}\n")
        assert run_cli(["verify", "--only", "8", "--config", str(cfg)]) == 0
        lines = (tmp_path / "report" / "acceptance.csv").read_text().splitlines()
        assert lines[2].startswith("8,gradient_and_sum_identity,1,")

    def test_header_lists_only_what_verify_reads(self, monkeypatch, tmp_path, capsys):
        # The criteria run at pinned parameters and seeds; the model, scheme,
        # seed and paths flags do not reach them, so the header omits them.
        from cir_particles import __version__
        from cir_particles import acceptance as acc
        from cir_particles.acceptance import CriterionResult

        monkeypatch.setattr(
            acc, "run_acceptance",
            lambda only=None, quiet=False: [CriterionResult(8, "gradient_and_sum_identity", True, ["ok"])],
        )
        argv = ["verify", "--only", "8,9", "--seed", "5", "--paths", "7", "--alpha", "3",
                "--out", str(tmp_path)]
        assert run_cli(argv) == 0
        header = (tmp_path / "acceptance.csv").read_text().splitlines()[0]
        assert header == f"# cir-particles version={__version__} command=verify only=8,9"


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

    @pytest.mark.parametrize("argv, artifact, default, other", [
        (["laplace-check", "--alpha", "2", "--beta", "0.5", "--gamma", "1", "--n", "2",
          "--paths", "200", "--dt", "5e-3", "--t", "0.5"], "laplace.csv", "1,2", "0.5,0.5"),
        (["stationary-compare", "--alpha", "2", "--beta", "0.5", "--gamma", "1",
          "--n", "2", "--paths", "40", "--dt", "1e-2", "--horizon", "0.5"],
         "stationary.csv", "1,2", "3,4"),
        (["collision-scan", "--alpha", "2", "--beta", "0.5", "--gamma", "1", "--n", "2",
          "--k", "1", "--paths", "20", "--dt", "1e-2", "--horizon", "0.5"],
         "first_passage.csv", "1,2", "0.005,1"),
        (["phase-diagram", "--sweep", "alpha=2.6;beta=0.5;gamma=1", "--n", "2",
          "--paths", "16", "--dt", "1e-2", "--horizon", "0.2"],
         "sweep.csv", "1,2", "0.0005,0.001"),
    ], ids=["laplace-check", "stationary-compare", "collision-scan", "phase-diagram"])
    def test_x0_sets_the_start(self, argv, artifact, default, other, tmp_path, capsys):
        def run(name, extra):
            assert run_cli(argv + extra + ["--seed", "4", "--out", str(tmp_path / name)]) == 0
            return (tmp_path / name / artifact).read_bytes()

        plain = run("plain", [])
        assert run("default", ["--x0", default]) == plain
        assert run("other", ["--x0", other]) != plain

    @pytest.mark.parametrize("argv, artifact", [
        (["simulate", "--n", "2", "--paths", "2", "--dt", "1e-2", "--horizon", "0.1"],
         "trajectories.csv"),
        (["laplace-check", "--n", "2", "--paths", "200", "--dt", "5e-3", "--t", "0.5"],
         "laplace.csv"),
    ], ids=["simulate", "laplace-check"])
    def test_header_records_the_start(self, argv, artifact, tmp_path, capsys):
        def first_line(name, extra):
            assert run_cli(argv + extra + ["--out", str(tmp_path / name)]) == 0
            return (tmp_path / name / artifact).read_text().splitlines()[0]

        plain = first_line("plain", [])
        assert plain.endswith(" x0=1.0,2.0")
        assert first_line("default", ["--x0", "1,2"]) == plain
        other = first_line("other", ["--x0", "0.5,0.5"])
        assert other != plain and other.endswith(" x0=0.5,0.5")
