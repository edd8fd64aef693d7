import contextlib
import csv
import errno
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lqmfg import TimeGrid, solve_equilibrium
from lqmfg.cli import EXIT_CHECK, EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from lqmfg.config import config_to_dict, default_config

from conftest import cli_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_tiny_config(path, lambda_values=(1.0,), **learner_overrides):
    data = config_to_dict(default_config())
    data["learner"].update(
        {"n_outer": 2, "n_inner": 5, "n_perturbations": 6, **learner_overrides}
    )
    data["lambda_se_values"] = list(lambda_values)
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


# overrides that cut a learner run to one round of one step on tiny batches
TINY_LEARN = (
    "--set", "learner.n_outer=1", "--set", "learner.n_inner=1",
    "--set", "learner.n_perturbations=2",
)


def out_dir_flag(argv, path):
    """``--out-dir path`` for the subcommands that write a report directory."""
    return ("--out-dir", str(path)) if argv[0] in ("learn", "reproduce") else ()


def numeric_block(out: str) -> str:
    # everything after the header line (the header names the game variant)
    return out.split("\n", 1)[1]


class TestSolve:
    def test_reference_gain_is_printed(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--game", "se")
        assert code == EXIT_OK
        assert "policy_gain 0.75" in out

    def test_enhanced_without_cross_temperature_matches_shannon(self, capsys):
        _, out_se, _ = run_cli(capsys, "solve", "--game", "se")
        _, out_ee, _ = run_cli(capsys, "solve", "--game", "ee", "--lambda-ce", "0")
        assert numeric_block(out_se) == numeric_block(out_ee)

    def test_enhanced_gain(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--game", "ee", "--lambda-se", "1", "--lambda-ce", "1"
        )
        assert code == EXIT_OK
        assert "policy_gain 1.5" in out

    def test_grid_past_the_horizon_names_the_time(self, capsys):
        # 11 * (0.1 / 11) ends one ulp above T
        code, out, err = run_cli(capsys, "solve", "--set", "grid.n_steps=11")
        assert code == EXIT_CONFIG and out == ""
        assert err == "error: time 0.10000000000000002 outside the horizon [0, 0.1]\n"

    def test_fine_grid_spans_the_horizon(self, capsys):
        # 20826 * (0.1 / 20826) lands an ulp above T's step count, not a step
        code, out, err = run_cli(capsys, "solve", "--set", "grid.n_steps=20826")
        assert code == EXIT_OK, err
        assert len(out.splitlines()) == 5 + 20827

    def test_invalid_parameter_is_a_config_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--set", "game.A=-1")
        assert code == EXIT_CONFIG
        assert "A" in err
        for override, named in (
            ("game.xi_mean=NaN", "game: xi_mean must be finite"),
            ("game.T=Infinity", "game: T must be finite"),
            ("learner=5", "section learner must be an object"),
            ("game=5", "section game must be an object"),
        ):
            code, out, err = run_cli(capsys, "solve", "--set", override)
            assert code == EXIT_CONFIG, override
            assert named in err and out == "", override

    def test_flags_and_overrides_apply_in_command_line_order(self, capsys):
        # --lambda-se is --set game.lambda_se=V, so the later setting wins
        _, out2, _ = run_cli(capsys, "solve", "--lambda-se", "2")
        _, out3, _ = run_cli(capsys, "solve", "--lambda-se", "3")
        assert out2 != out3
        code, out, _ = run_cli(capsys, "solve", "--set", "game.lambda_se=2", "--lambda-se", "3")
        assert code == EXIT_OK and out == out3
        code, out, _ = run_cli(capsys, "solve", "--lambda-se", "3", "--set", "game.lambda_se=2")
        assert code == EXIT_OK and out == out2
        # a flag's value is parsed as JSON and checked as the key's
        code, out, err = run_cli(capsys, "solve", "--lambda-se", "fast")
        assert code == EXIT_CONFIG and out == ""
        assert "field game.lambda_se must be a number, got 'fast'" in err

    def test_a_config_file_is_validated_after_the_overrides(self, capsys, tmp_path):
        data = config_to_dict(default_config())
        data["game"]["A"] = "fast"
        path = tmp_path / "bad_a.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "solve", "--config", str(path))
        assert code == EXIT_CONFIG and "field game.A must be a number" in err
        code, out, _ = run_cli(capsys, "solve", "--config", str(path), "--set", "game.A=2")
        assert code == EXIT_OK
        assert out == run_cli(capsys, "solve")[1]

    def test_csv_dump(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, _, _ = run_cli(capsys, "solve", "--csv", str(target))
        assert code == EXIT_OK
        with open(target) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert float(rows[-1]["riccati"]) == 2.0

    def test_csv_dump_has_csv_writers_bytes(self, capsys, tmp_path):
        # the table's own row template writes what csv.writer writes for
        # the same cells: header, then each cell as %.17g, CRLF-terminated
        target = tmp_path / "table.csv"
        code, _, _ = run_cli(capsys, "solve", "--set", "grid.n_steps=10", "--csv", str(target))
        assert code == EXIT_OK
        solution = solve_equilibrium(default_config().game, "se", TimeGrid.from_horizon(0.1, 10))
        columns = ("times", "riccati", "value_offset", "policy_variance", "state_variance")
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["t", "riccati", "value_offset", "policy_variance", "state_variance"])
        writer.writerows(
            [f"{float(v):.17g}" for v in row]
            for row in zip(*(getattr(solution, name) for name in columns))
        )
        assert target.read_bytes() == expected.getvalue().encode()


class TestSimulate:
    def test_equilibrium_payoff_matches_solve(self, capsys):
        _, out_solve, _ = run_cli(capsys, "solve", "--game", "se")
        value = float(
            [l for l in out_solve.splitlines() if l.startswith("game_value")][0].split()[1]
        )
        code, out, _ = run_cli(capsys, "simulate", "--policy", "se", "--n-paths", "100000")
        assert code == EXIT_OK
        lines = dict(l.split() for l in out.splitlines())
        mean, stderr = float(lines["mean"]), float(lines["stderr"])
        # 3 sigma plus the first-order time-step budget at dt = 0.02
        assert abs(mean - value) <= 3 * stderr + 0.6 * 0.02

    def test_fixed_seed_is_reproducible(self, capsys):
        _, out1, _ = run_cli(capsys, "simulate", "--n-paths", "2", "--seed", "5")
        _, out2, _ = run_cli(capsys, "simulate", "--n-paths", "2", "--seed", "5")
        assert out1 == out2

    def test_path_count_validated(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--n-paths", "1")
        assert code == EXIT_CONFIG
        assert "n-paths" in err

    def test_explicit_policy_file(self, capsys, tmp_path):
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"m_hat": 0.5, "sigma2": [0.3] * 5}))
        code, out, _ = run_cli(
            capsys, "simulate", "--policy", str(policy), "--n-paths", "1000"
        )
        assert code == EXIT_OK
        assert "mean " in out

    def test_nonpositive_variance_rejected_with_message(self, capsys, tmp_path):
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"m_hat": 0.5, "sigma2": [0.3, -0.1, 0.3, 0.3, 0.3]}))
        code, _, err = run_cli(
            capsys, "simulate", "--policy", str(policy), "--n-paths", "1000"
        )
        assert code == EXIT_CONFIG
        assert "positive" in err

    def test_malformed_policy_fields_are_named(self, capsys, tmp_path):
        policy = tmp_path / "policy.json"
        for fields, named in (
            ({"m_hat": "abc", "sigma2": [0.3] * 5}, "field m_hat must be a number"),
            ({"m_hat": 0.5, "sigma2": "x"}, "field sigma2 must be a list of numbers"),
            ({"m_hat": 0.5, "sigma2": [0.3, "x", 0.3, 0.3, 0.3]}, "field sigma2[1] must be"),
        ):
            policy.write_text(json.dumps(fields))
            code, _, err = run_cli(
                capsys, "simulate", "--policy", str(policy), "--n-paths", "1000"
            )
            assert code == EXIT_CONFIG, fields
            assert named in err, fields

    def test_per_path_dump(self, capsys, tmp_path):
        target = tmp_path / "paths.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--n-paths", "50", "--dump-paths", str(target)
        )
        assert code == EXIT_OK
        with open(target) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50

    @pytest.mark.parametrize("existing", [None, b"path,reward\r\n0,1\r\n"], ids=["new", "existing"])
    def test_a_failed_run_leaves_the_dump_target_as_it_was(self, capsys, tmp_path, existing):
        target = tmp_path / "paths.csv"
        if existing is not None:
            target.write_bytes(existing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "simulate", "--n-paths", "2", "--set", "game.A=1e150",
                "--dump-paths", str(target),
            )
        assert code == EXIT_CONFIG
        assert "the sampled rewards are not finite" in err and out == ""
        # no partial file beside the target, and the target as it was
        assert os.listdir(tmp_path) == ([] if existing is None else ["paths.csv"])
        if existing is not None:
            assert target.read_bytes() == existing

    def test_an_unwritable_dump_is_a_runtime_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "paths.csv"
        code, out, err = run_cli(
            capsys, "simulate", "--n-paths", "50", "--dump-paths", str(target)
        )
        assert code == EXIT_RUNTIME
        assert str(target) in err
        assert out == ""  # the dump is opened before the results are printed
        assert os.listdir(tmp_path) == []


class TestLearn:
    def test_minimal_trace_has_one_row(self, capsys, tmp_path):
        cfg = write_tiny_config(tmp_path / "c.json", n_outer=1, n_inner=0)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "learn", "--config", cfg, "--out-dir", str(out_dir)
        )
        assert code == EXIT_OK
        assert "learned_m_hat" in out
        with open(out_dir / "learning_curve.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1

    def test_temperature_flag_selects_the_run(self, capsys, tmp_path):
        cfg = write_tiny_config(tmp_path / "c.json")
        code, out, _ = run_cli(
            capsys, "learn", "--config", cfg, "--lambda-se", "3.0",
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == EXIT_OK
        assert out.startswith("lambda_se 3")


class TestReproduce:
    def test_runs_and_writes_tables(self, capsys, tmp_path):
        cfg = write_tiny_config(tmp_path / "c.json", lambda_values=(0.0, 1.0))
        out_dir = tmp_path / "report"
        code, out, _ = run_cli(
            capsys, "reproduce", "--config", cfg, "--out-dir", str(out_dir)
        )
        assert code == EXIT_OK
        assert (out_dir / "manifest.json").exists()
        assert out.count("lambda_se") == 2

    def test_seed_changes_curves_only(self, capsys, tmp_path):
        cfg = write_tiny_config(tmp_path / "c.json")
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        run_cli(capsys, "reproduce", "--config", cfg, "--seed", "1", "--out-dir", str(d1))
        run_cli(capsys, "reproduce", "--config", cfg, "--seed", "2", "--out-dir", str(d2))
        c1 = (d1 / "learning_curve.csv").read_bytes()
        c2 = (d2 / "learning_curve.csv").read_bytes()
        assert c1 != c2

    def test_check_mode_fails_loudly_on_unconverged_runs(self, capsys, tmp_path):
        cfg = write_tiny_config(tmp_path / "c.json", n_outer=1, n_inner=0)
        code, _, err = run_cli(
            capsys, "reproduce", "--config", cfg, "--check",
            "--out-dir", str(tmp_path / "out"), "--seed", "4",
        )
        assert code == EXIT_CHECK
        assert "CHECK FAILED" in err

    def test_out_dir_environment_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("LQMFG_OUT_DIR", str(tmp_path / "envout"))
        cfg = write_tiny_config(tmp_path / "c.json", n_outer=1, n_inner=1)
        code, _, _ = run_cli(capsys, "reproduce", "--config", cfg)
        assert code == EXIT_OK
        assert (tmp_path / "envout" / "manifest.json").exists()


class TestHelp:
    def test_help_lists_every_subcommand(self):
        result = subprocess.run(
            [sys.executable, "-m", "lqmfg.cli", "--help"],
            capture_output=True, text=True, env=cli_env(),
        )
        assert result.returncode == 0
        for name in ("solve", "simulate", "learn", "reproduce"):
            assert name in result.stdout

    def test_subcommand_help_lists_flags(self):
        for command, flags in (
            ("solve", ("--lambda-se", "--lambda-ce", "--game", "--csv")),
            ("simulate", ("--lambda-se", "--lambda-ce", "--policy", "--n-paths", "--dump-paths")),
            ("learn", ("--lambda-se", "--lambda-ce", "--out-dir")),
            ("reproduce", ("--out-dir", "--check")),
        ):
            result = subprocess.run(
                [sys.executable, "-m", "lqmfg.cli", command, "--help"],
                capture_output=True, text=True, env=cli_env(),
            )
            assert result.returncode == 0, command
            for flag in ("--config", "--set", "--seed", *flags):
                assert flag in result.stdout, (command, flag)
            # only the subcommands that write a report directory take one
            assert ("--out-dir" in result.stdout) == (command in ("learn", "reproduce")), command


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ("simulate", "--seed", "-1", "--n-paths", "2"),
        ("reproduce", "--seed", "-1"),
    ], ids=["simulate", "reproduce"])
    def test_negative_seed_is_a_config_error(self, capsys, tmp_path, argv):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, *argv, *out_dir_flag(argv, out_dir))
        assert code == EXIT_CONFIG
        assert "field seed must be nonnegative" in err and out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("override, named", [
        ("learner.step_size=Infinity", "learner: step_size must be finite"),
        ("learner.radius=Infinity", "learner: radius must be finite"),
        ("learner.sigma_floor=Infinity", "learner: sigma_floor must be finite"),
    ])
    def test_nonfinite_learner_setting_is_named(self, capsys, tmp_path, override, named):
        # a tiny run, so that a setting which slips through fails fast
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "learn", "--lambda-se", "1", "--set", override, *TINY_LEARN,
            "--out-dir", str(out_dir),
        )
        assert code == EXIT_CONFIG
        assert named in err and out == ""
        assert not (out_dir / "FAILED").exists()

    @pytest.mark.parametrize("argv, named", [
        (("solve", "--set", "game.B=1e200"), "game: B must be finite"),
        (("simulate", "--n-paths", "2", "--set", "game.D=1e308"), "game: D must be finite"),
        (("solve", "--set", "game.xi_mean=1e200", "--set", "game.xi_second_moment=1e300"),
         "game: xi_mean must be finite"),
        (("learn", "--lambda-se", "1", "--set", "learner.radius=1e308", *TINY_LEARN),
         "learner: radius must be finite"),
        (("solve", "--set", "game.D=1e-200"), "game: D and a positive lambda_se must be at least"),
        (("solve", "--set", "game.B=1e150", "--set", "game.D=1e-10"),
         "game: B/D times the temperature ratio"),
    ], ids=["decay_rate", "equilibrium_policy", "initial_moments", "sphere_average",
            "square_underflow", "state_rates"])
    def test_a_value_whose_square_overflows_is_named(self, capsys, tmp_path, argv, named):
        # each would overflow squaring a Python float in the closed forms or
        # the gradient estimator, or divide by a square that underflows to 0
        code, out, err = run_cli(capsys, *argv, *out_dir_flag(argv, tmp_path / "out"))
        assert code == EXIT_CONFIG
        assert named in err and out == ""

    def test_a_degenerate_reference_is_a_config_error(self, capsys, tmp_path):
        # a horizon and terminal weight this small leave a reference payoff of 0
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "learn", *TINY_LEARN, "--set", "game.Q_bar=1e-150",
            "--set", "game.T=1e-150", "--out-dir", str(out_dir),
        )
        assert code == EXIT_CONFIG
        assert "reference payoff is numerically zero for GameParams(" in err
        assert "Q_bar=1e-150" in err and out == ""
        assert not (out_dir / "FAILED").exists()

    @pytest.mark.parametrize("value, named", [
        ("1e308", "field lambda_se_values[0] must be finite"),
        ("1e-200", "field D and a positive lambda_se_values[0] must be at least"),
    ], ids=["huge", "tiny"])
    def test_a_temperature_the_game_rejects_is_named(self, capsys, tmp_path, value, named):
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "reproduce", "--set", f"lambda_se_values=[{value}]",
            "--out-dir", str(out_dir),
        )
        assert code == EXIT_CONFIG
        assert named in err and out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv, named", [
        (("simulate", "--n-paths", "2", "--set", "game.A=1e150"),
         "game: the sampled rewards are not finite; game.A, game.B,"),
        (("solve", "--set", "game.D=1e-150"), "the se equilibrium's value_offset is not finite"),
        (("learn", *TINY_LEARN, "--set", "game.A=1e150"),
         "reference payoff is not finite for GameParams(A=1e+150"),
    ], ids=["simulate", "solve", "learn"])
    def test_a_non_finite_result_is_a_config_error(self, capsys, tmp_path, argv, named):
        # simulate and solve printed NaN columns and exited 0, and learn's
        # reference payoff overflowed on to a learner divergence (exit 3);
        # the error comes without numpy warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv, *out_dir_flag(argv, tmp_path / "out"))
        assert code == EXIT_CONFIG
        assert named in err and out == ""

    def test_a_policy_file_too_large_for_the_simulation_is_named(self, capsys, tmp_path):
        # the error named neither a key nor the file's fields
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"m_hat": 1e150, "sigma2": [0.5] * 5}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "simulate", "--n-paths", "2", "--policy", str(policy))
        assert code == EXIT_CONFIG
        assert "the policy file's m_hat and sigma2" in err and out == ""

    @pytest.mark.parametrize("command", [("simulate", "--n-paths", "2"), ("learn", *TINY_LEARN)],
                             ids=["simulate", "learn"])
    def test_an_equilibrium_schedule_out_of_range_is_named(self, capsys, tmp_path, command):
        # lambda_se / (D^2 * riccati) divides by a product that underflows to
        # 0; this exited 2 with a message naming no key, after a numpy warning
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, *command, "--set", "game.D=1e-150", *out_dir_flag(command, out_dir)
            )
        assert code == EXIT_CONFIG
        assert "game.D, game.lambda_se and their product" in err and out == ""
        assert not out_dir.exists()

    def test_a_config_setting_n_eval_paths_is_rejected(self, capsys, tmp_path):
        # the evaluation path count left the schema when scoring became exact
        path = tmp_path / "old.json"
        data = config_to_dict(default_config())
        data["n_eval_paths"] = 4096
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "reproduce", "--config", str(path),
                                 "--out-dir", str(tmp_path / "out"))
        assert code == EXIT_CONFIG
        assert "unknown field n_eval_paths" in err and out == ""
        code, _, err = run_cli(capsys, "learn", *TINY_LEARN, "--set", "n_eval_paths=2")
        assert code == EXIT_CONFIG
        assert "unknown field n_eval_paths" in err

    def test_a_config_setting_output_dir_is_rejected(self, capsys, tmp_path):
        # the output directory is --out-dir's alone: a config that names it
        # is rejected, not silently overridden
        path = tmp_path / "old.json"
        write_tiny_config(path)
        data = json.loads(path.read_text())
        stale = tmp_path / "X"
        data["output_dir"] = str(stale)
        path.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "reproduce", "--config", str(path),
                                 "--out-dir", str(out_dir))
        assert code == EXIT_CONFIG
        assert "unknown field output_dir" in err and out == ""
        code, out, err = run_cli(capsys, "learn", *TINY_LEARN, "--set", f"output_dir={stale}",
                                 "--out-dir", str(out_dir))
        assert code == EXIT_CONFIG
        assert "unknown field output_dir" in err and out == ""
        assert not stale.exists() and not out_dir.exists()

    @pytest.mark.parametrize("key, value", [
        ("shared_rollout_noise", True), ("baseline", "loo"), ("warm_start", True),
    ])
    def test_a_config_setting_a_removed_learner_switch_is_rejected(
        self, capsys, tmp_path, key, value
    ):
        # the raw estimator's and the cold start's switches left the schema
        # with the code they selected; a config saved before still names them
        path = tmp_path / "old.json"
        data = config_to_dict(default_config())
        data["learner"][key] = value
        path.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "reproduce", "--config", str(path),
                                 "--out-dir", str(out_dir))
        assert code == EXIT_CONFIG
        assert f"unknown field learner.{key}" in err and out == ""
        code, out, err = run_cli(capsys, "learn", *TINY_LEARN, "--set",
                                 f"learner.{key}={json.dumps(value)}", "--out-dir", str(out_dir))
        assert code == EXIT_CONFIG
        assert f"unknown field learner.{key}" in err and out == ""
        assert not out_dir.exists()

    def test_runtime_error_exit_code(self, capsys, tmp_path):
        cfg = write_tiny_config(tmp_path / "c.json", n_outer=1, n_inner=1)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where a directory must go")
        code, _, err = run_cli(
            capsys, "reproduce", "--config", cfg,
            "--out-dir", str(blocker / "nested"),
        )
        assert code == EXIT_RUNTIME
        assert "error" in err

    def test_learner_divergence_exit_code_and_marker(self, capsys, tmp_path):
        import warnings

        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text("{}")  # left by an earlier run
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warnings
            code, _, err = run_cli(
                capsys, "learn", "--lambda-se", "1", "--set", "learner.step_size=50",
                "--set", "learner.n_outer=1", "--set", "learner.n_inner=200",
                "--out-dir", str(out),
            )
        assert code == EXIT_RUNTIME
        assert "learner diverged at outer round k=0, inner step i=" in err
        marker = (out / "FAILED").read_text()
        assert marker.startswith("lambda_se=1: learner diverged at outer round k=0")
        assert "last finite policy: m_hat=" in marker
        assert not (out / "manifest.json").exists()

    def test_mean_field_blow_up_exit_code_and_marker(self, capsys, tmp_path):
        # a finite but huge gain after round 0 overflows the mean-field update
        import warnings

        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warnings
            code, _, err = run_cli(
                capsys, "learn", "--lambda-se", "0", "--set", "learner.step_size=10",
                "--set", "learner.n_outer=3", "--set", "learner.n_inner=30",
                "--seed", "0", "--out-dir", str(out),
            )
        assert code == EXIT_RUNTIME
        assert "learner diverged at outer round k=0: the mean-field update" in err
        marker = (out / "FAILED").read_text()
        assert marker.startswith("lambda_se=0: learner diverged at outer round k=0: ")
        assert "last finite policy: m_hat=" in marker
        assert not (out / "manifest.json").exists()

    # sizes of 10^14 elements and more: numpy refuses them at once
    @pytest.mark.parametrize("argv", [
        ("simulate", "--n-paths", "100000000000000"),
        ("solve", "--set", "grid.n_steps=100000000000000"),
        ("learn", "--lambda-se", "1", "--set", "learner.n_inner=100000000000000"),
    ], ids=["simulate", "solve", "learn"])
    def test_an_allocation_too_large_for_memory_is_named(self, capsys, tmp_path, argv):
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, *argv, *out_dir_flag(argv, out))
        assert code == EXIT_RUNTIME
        assert err.startswith("error: out of memory: Unable to allocate"), err
        assert not out.exists()


def _schema_keys(section, prefix=""):
    for key, value in section.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _schema_keys(value, f"{prefix}{key}.")


SCHEMA_KEYS = list(_schema_keys(config_to_dict(default_config())))
# "100000000000000" asks for arrays numpy refuses at once (10^14 elements and
# more are beyond any address space), never for one near the machine's memory
BAD_VALUES = [
    "NaN", "Infinity", "-Infinity", "-1", "0", "1e-200", "1e308", "100000000000000", "x", "[]",
    "{}",
]


def _main_quietly(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(SCHEMA_KEYS), st.sampled_from(BAD_VALUES)),
                min_size=1, max_size=3))
# a simulation that overflows exited 2 naming no key
@example([("game.B", "100000000000000")])
@example([("game.A", "1e150")])
def test_exit_code_contract(overrides):
    """Any overrides of schema keys with bad values end in a documented exit
    code, never an uncaught exception: a configuration error names one of
    the overridden fields, a learner divergence leaves its marker, and an
    allocation too large for memory is named as such."""
    sets = [arg for key, value in overrides for arg in ("--set", f"{key}={value}")]
    names = {key.rsplit(".", 1)[-1] for key, _ in overrides}
    with tempfile.TemporaryDirectory() as tmp:
        out_dir, blocker = os.path.join(tmp, "out"), os.path.join(tmp, "file")
        with open(blocker, "w") as fh:
            fh.write("a file where a directory must go")
        runs = [
            ("solve", *sets),
            ("simulate", "--n-paths", "2", *sets),
            ("learn", *TINY_LEARN, *sets, "--out-dir", out_dir),
        ]
        for argv in runs:
            code, err = _main_quietly(*argv)
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME, EXIT_CHECK), argv
            if code == EXIT_CONFIG:
                assert any(name in err for name in names), (argv, err)
            if code == EXIT_RUNTIME and "error: out of memory: " not in err:
                assert "learner diverged" in err, (argv, err)
                assert os.path.exists(os.path.join(out_dir, "FAILED")), argv
        code, err = _main_quietly("learn", *TINY_LEARN, *sets, "--out-dir", blocker)
        assert code in (EXIT_CONFIG, EXIT_RUNTIME), err


# Fault injection: the k-th open for writing, or the k-th write to a file so
# opened, fails with an errno, in process; reads pass through.
REPORT_FILES = ["learning_curve.csv", "variance_schedule.csv", "mean_field.csv", "summary.json"]
FAULT_COMMANDS = {
    # command: (argv in a scratch directory d, the files it writes there)
    "reproduce": (lambda d: ["reproduce", "--config", write_tiny_config(
        os.path.join(d, "tiny.json"), (0.0, 1.0), n_outer=1, n_inner=2, n_perturbations=2,
    ), "--out-dir", os.path.join(d, "out")], REPORT_FILES),
    "learn": (lambda d: ["learn", *TINY_LEARN, "--out-dir", os.path.join(d, "out")],
              REPORT_FILES),
    "solve --csv": (lambda d: ["solve", "--csv", os.path.join(d, "out", "table.csv")],
                    ["table.csv"]),
    "simulate --dump-paths": (lambda d: [
        "simulate", "--n-paths", "5", "--dump-paths", os.path.join(d, "out", "rewards.csv"),
    ], ["rewards.csv"]),
}


@contextlib.contextmanager
def failing_io(op, k, code):
    """Patch ``open`` so that the k-th ``op`` ("open" or "write") of a file
    opened for writing raises OSError(code); yields the counts of both
    operations and, once it has failed, the name of the file it failed on."""
    real_open = open
    seen = {"open": 0, "write": 0, "failed": None}

    def tick(kind, name):
        seen[kind] += 1
        if kind == op and seen[kind] == k:
            seen["failed"] = os.fspath(name)
            raise OSError(code, os.strerror(code), *([name] if kind == "open" else []))

    def faulty_open(file, mode="r", *args, **kwargs):
        if not set(mode) & set("wax+"):
            return real_open(file, mode, *args, **kwargs)
        tick("open", file)
        fh = real_open(file, mode, *args, **kwargs)
        write = fh.write

        def faulty_write(data):
            tick("write", file)
            return write(data)

        fh.write = faulty_write
        return fh

    with mock.patch("builtins.open", faulty_open):
        yield seen


def _normalized(name, data):
    # a report's runtimes differ from run to run
    if name == "summary.json" and data.startswith(b"{"):
        summary = json.loads(data)
        for arm in summary["arms"]:
            arm["runtime_seconds"] = None
        return json.dumps(summary).encode()
    return data


@functools.cache
def _fault_free(command):
    """The normalized bytes of every file the command writes, and how many
    opens and writes it makes, from one run without faults."""
    argv, names = FAULT_COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        os.mkdir(os.path.join(tmp, "out"))
        args = argv(tmp)
        with failing_io("open", 0, errno.EIO) as seen:
            code, err = _main_quietly(*args)
        assert code == EXIT_OK, err
        new = {}
        for name in names:
            with open(os.path.join(tmp, "out", name), "rb") as fh:
                new[name] = _normalized(name, fh.read())
    return new, {"open": seen["open"], "write": seen["write"]}


OLD_BYTES = b"the bytes of an earlier run\n"


# k is taken modulo the count of its operation; small k reach the tables'
# writes, which the JSON files' many small writes outnumber
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(FAULT_COMMANDS)), st.sampled_from(["open", "write"]),
       st.integers(1, 12) | st.integers(1, 1000),
       st.sampled_from([errno.ENOSPC, errno.EACCES, errno.EIO]))
# a write after solve's CSV header left the file holding only the header
@example("solve --csv", "write", 2, errno.ENOSPC)
# a failed open of the manifest left four tables, no manifest and no marker
@example("reproduce", "open", 5, errno.EIO)
def test_every_output_is_all_or_nothing(command, op, k, code):
    """Whichever open or write fails, the command exits 3 naming the file;
    every file it writes holds its old bytes or its whole new bytes, no
    staging file is left, and a report directory holds a manifest only when
    every table is new, and a FAILED marker otherwise."""
    new, counts = _fault_free(command)
    k = (k - 1) % counts[op] + 1
    argv, names = FAULT_COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        os.mkdir(out)
        for name in names + ["manifest.json"] * (names == REPORT_FILES):
            with open(os.path.join(out, name), "wb") as fh:
                fh.write(OLD_BYTES)
        args = argv(tmp)
        with failing_io(op, k, code) as seen:
            status, err = _main_quietly(*args)
        assert status == EXIT_RUNTIME, err
        left = os.listdir(out)
        assert not [name for name in left if name.endswith((".partial", ".tmp"))], left
        complete = True
        for name in names:
            with open(os.path.join(out, name), "rb") as fh:
                data = fh.read()
            assert data == OLD_BYTES or _normalized(name, data) == new[name], name
            complete &= data != OLD_BYTES
        if names == REPORT_FILES:
            if "manifest.json" in left:
                assert complete, left
            else:
                assert "FAILED" in left, left
    target = seen["failed"].removesuffix(".partial").removesuffix(".tmp")
    assert target in err, (target, err)
