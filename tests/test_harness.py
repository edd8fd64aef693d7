import csv
import dataclasses
import json
import multiprocessing
import os

import numpy as np
import pytest

from lqmfg import (
    ParameterError,
    PayoffEvaluator,
    equilibrium_policy,
    discretize_policy,
    reference_policy,
    reproduce,
)
from lqmfg.config import config_from_dict, config_to_dict, default_config
from lqmfg import harness
from lqmfg.harness import (
    DegenerateReferenceError,
    check_thresholds,
    run_arm,
    run_arms,
    write_report,
)
from lqmfg.learner import LearnerDivergence
from lqmfg.simulate import SIGMA_FLOOR

from conftest import make_params


def tiny_config(**top_overrides):
    """A seconds-scale configuration exercising every code path."""
    data = config_to_dict(default_config())
    data["learner"].update({"n_outer": 2, "n_inner": 5, "n_perturbations": 6})
    data["lambda_se_values"] = [0.0, 1.0]
    data.update(top_overrides)
    return config_from_dict(data)


class TestReferencePolicy:
    def test_positive_temperature_matches_closed_form(self, params, grid):
        ref = reference_policy(params, grid)
        expected = discretize_policy(equilibrium_policy(params, "se"), grid)
        assert ref.m_hat == expected.m_hat == 0.75
        np.testing.assert_array_equal(ref.sigma2, expected.sigma2)

    def test_zero_temperature_uses_the_floor(self, grid):
        p = make_params(lambda_se=0.0)
        ref = reference_policy(p, grid)
        assert ref.m_hat == 0.75
        np.testing.assert_array_equal(ref.sigma2, np.full(5, SIGMA_FLOOR))


class TestPayoffEvaluator:
    def test_self_error_is_zero(self, params, grid):
        ev = PayoffEvaluator(params, grid)
        assert ev.rel_error(ev.reference.m_hat, ev.reference.sigma2, ev.reference_path) == 0.0

    def test_bitwise_repeatability(self, params, grid):
        sigma2, path = np.full(5, 0.3), np.full(6, 0.05)
        a = PayoffEvaluator(params, grid).rel_error(0.5, sigma2, path)
        b = PayoffEvaluator(params, grid).rel_error(0.5, sigma2, path)
        assert a.tobytes() == b.tobytes()

    def test_inflated_exploration_increases_the_error(self, params, grid):
        ev = PayoffEvaluator(params, grid)
        ref, path = ev.reference, ev.reference_path
        scaled = ev.rel_error(ref.m_hat, 10.0 * ref.sigma2, path)
        assert scaled > ev.rel_error(ref.m_hat, ref.sigma2, path)

    def test_degenerate_reference_guard(self, params, grid, monkeypatch):
        monkeypatch.setattr(harness, "discrete_moments", lambda *args: (None, None, 0.0))
        with pytest.raises(DegenerateReferenceError):
            PayoffEvaluator(params, grid)


def _analytic_column(report, tmp_path) -> dict:
    """lambda_se -> the analytic_sigma2 column of the report's schedule table."""
    write_report(report, str(tmp_path))
    with open(tmp_path / "variance_schedule.csv") as fh:
        rows = list(csv.DictReader(fh))
    return {
        arm.lambda_se: np.array(
            [float(r["analytic_sigma2"]) for r in rows if float(r["lambda_se"]) == arm.lambda_se]
        )
        for arm in report.arms
    }


class TestAnalyticSchedule:
    """The variance_schedule.csv reference column is the evaluator's
    reference policy: the schedule every error is measured against."""

    def test_matches_policy_discretization(self, tmp_path):
        config = tiny_config(lambda_se_values=[1.0, 3.0])
        column = _analytic_column(reproduce(config), tmp_path)
        for lam in (1.0, 3.0):
            params = dataclasses.replace(config.game, lambda_se=lam)
            expected = discretize_policy(equilibrium_policy(params, "se"), config.grid).sigma2
            np.testing.assert_array_equal(column[lam], expected)

    def test_zero_temperature_floor(self, tmp_path):
        column = _analytic_column(reproduce(tiny_config(lambda_se_values=[0.0])), tmp_path)
        np.testing.assert_array_equal(column[0.0], np.full(5, SIGMA_FLOOR))

    def test_zero_temperature_column_uses_the_configured_floor(self, tmp_path):
        data = config_to_dict(tiny_config(lambda_se_values=[0.0]))
        data["learner"]["sigma_floor"] = 1e-3
        report = reproduce(config_from_dict(data))
        column = _analytic_column(report, tmp_path)
        np.testing.assert_array_equal(column[0.0], np.full(5, 1e-3))
        np.testing.assert_array_equal(column[0.0], report.arms[0].evaluator.reference.sigma2)


class TestReproduce:
    def test_report_shape_and_tables(self, tmp_path):
        config = tiny_config()
        report = reproduce(config, str(tmp_path / "out"))
        n_outer, n_rows = config.learner.n_outer, config.learner.n_inner + 1
        for arm in report.arms:
            records = arm.result.trace.records
            assert len(records) == n_outer * n_rows
            assert np.isfinite(records[-1].rel_error)
            # rows in (k, i) order, each round's first the policy it starts from
            np.testing.assert_array_equal(records.outer, np.repeat(np.arange(n_outer), n_rows))
            np.testing.assert_array_equal(records.inner, np.tile(np.arange(n_rows), n_outer))
            assert records.sigma2.shape == (n_outer * n_rows, config.grid.n_steps)

        out = tmp_path / "out"
        names = sorted(os.listdir(out))
        assert names == [
            "learning_curve.csv", "manifest.json", "mean_field.csv",
            "summary.json", "variance_schedule.csv",
        ]
        with open(out / "learning_curve.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == n_outer * n_rows * len(config.lambda_se_values)
        lambdas = {row["lambda_se"] for row in rows}
        assert len(lambdas) == len(config.lambda_se_values)
        # total iteration index is k * (I + 1) + i
        first = rows[0]
        assert first["k"] == "0" and first["i"] == "0" and first["total_iter"] == "0"

        with open(out / "variance_schedule.csv") as fh:
            var_rows = list(csv.DictReader(fh))
        assert len(var_rows) == config.grid.n_steps * len(config.lambda_se_values)

        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["true_m_hat"] == 0.75
        assert len(summary["arms"]) == len(config.lambda_se_values)

        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["seed"] == config.seed
        assert manifest["config"]["game"]["A"] == 2.0
        assert "version" in manifest

    def test_zero_temperature_arm_runs(self):
        config = tiny_config(lambda_se_values=[0.0])
        report = reproduce(config)
        assert np.isfinite(report.arms[0].result.trace.records[-1].rel_error)

    def test_failure_leaves_marker_and_no_manifest(self, tmp_path, monkeypatch):
        config = tiny_config()
        report = reproduce(config)

        import lqmfg.harness as hmod

        def boom(*args, **kwargs):
            raise ValueError("disk on fire")

        monkeypatch.setattr(hmod, "write_table", boom)
        out = tmp_path / "broken"
        with pytest.raises(OSError, match=str(out)):
            write_report(report, str(out))
        assert (out / "FAILED").exists()
        assert not (out / "manifest.json").exists()

    def test_rerun_clears_stale_markers(self, tmp_path, monkeypatch):
        # a failed run's marker (or an old manifest) must not survive a
        # successful rerun into the same directory, and vice versa
        config = tiny_config()
        report = reproduce(config)
        out = tmp_path / "out"

        import lqmfg.harness as hmod

        real_writer = hmod.write_table
        monkeypatch.setattr(hmod, "write_table", lambda *a, **k: (_ for _ in ()).throw(ValueError("boom")))
        with pytest.raises(OSError):
            write_report(report, str(out))
        assert (out / "FAILED").exists()

        monkeypatch.setattr(hmod, "write_table", real_writer)
        write_report(report, str(out))
        assert (out / "manifest.json").exists()
        assert not (out / "FAILED").exists()

        monkeypatch.setattr(hmod, "write_table", lambda *a, **k: (_ for _ in ()).throw(ValueError("boom")))
        with pytest.raises(OSError):
            write_report(report, str(out))
        assert (out / "FAILED").exists()
        assert not (out / "manifest.json").exists()

    def test_seed_changes_the_curves(self, tmp_path):
        r1 = reproduce(tiny_config(seed=1, lambda_se_values=[1.0]))
        r2 = reproduce(tiny_config(seed=2, lambda_se_values=[1.0]))
        e1 = r1.arms[0].result.trace.records.rel_error
        e2 = r2.arms[0].result.trace.records.rel_error
        assert not np.array_equal(e1, e2)


class TestCheckThresholds:
    def test_unconverged_run_fails(self):
        # a single evaluation of the random initializer rarely sits below 5%
        config = tiny_config(lambda_se_values=[1.0], seed=4)
        data = config_to_dict(config)
        data["learner"].update({"n_outer": 1, "n_inner": 0})
        report = reproduce(config_from_dict(data))
        failures = check_thresholds(report)
        assert len(failures) == 1
        assert "lambda_se=1.0" in failures[0]

    def test_zero_temperature_arm_not_checked(self):
        report = reproduce(tiny_config(lambda_se_values=[0.0]))
        assert check_thresholds(report) == []


def _same_arm(a, b):
    """Bit-for-bit equal outputs: every trace row (indices, rel_error and the
    step's policy) and the mean paths of every round."""
    ta, tb = a.result.trace, b.result.trace
    assert a.lambda_se == b.lambda_se
    assert ta.records.tobytes() == tb.records.tobytes()
    assert ta.mean_paths.tobytes() == tb.mean_paths.tobytes()


class TestRunArms:
    def test_lockstep_equals_one_arm_at_a_time(self):
        # arms share seed 4 or 5, or have seed 6 alone; lambda 0 included
        config = tiny_config()
        arms = [(lam, seed) for seed in (4, 5) for lam in (0.0, 1.0, 3.0)] + [(2.0, 6)]
        together = run_arms(config, arms)
        assert len(together) == len(arms)
        for (lam, seed), arm in zip(arms, together):
            _same_arm(arm, run_arm(dataclasses.replace(config, seed=seed), lam))

    def test_reproduce_runs_its_sweep_in_lockstep(self):
        config = tiny_config(lambda_se_values=[1.0, 0.0, 3.0])
        report = reproduce(config)
        for lam, arm in zip(config.lambda_se_values, report.arms, strict=True):
            _same_arm(arm, run_arm(config, lam))
        assert len({arm.runtime_seconds for arm in report.arms}) == 1

    def test_temperature_outside_the_sweep_is_named(self):
        # a temperature the game rejects is named by the game; any other
        # runs as the same arm of a sweep that holds it
        config = tiny_config()
        with pytest.raises(ParameterError, match="lambda_se"):
            run_arm(config, -1.0)
        swept = reproduce(tiny_config(lambda_se_values=[0.0, 2.0])).arms[1]
        _same_arm(run_arm(config, 2.0), swept)

    def test_divergence_marker_names_the_first_arm_in_sweep_order(self, tmp_path):
        # at seed 1 and step 3, lambda 0 diverges at k=0, i=18 and lambda 1
        # at k=0, i=12: the sweep stops at i=12 and fails as lambda 1 would
        # run alone
        data = config_to_dict(tiny_config(seed=1, lambda_se_values=[0.0, 1.0]))
        data["learner"].update(n_perturbations=50, n_inner=20, step_size=3.0)
        config = config_from_dict(data)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(LearnerDivergence) as info:
                reproduce(config, str(tmp_path))
            with pytest.raises(LearnerDivergence) as alone:
                run_arm(config, 1.0)
        assert (info.value.arm, info.value.outer, info.value.inner) == (1, 0, 12)
        assert str(info.value) == str(alone.value)
        marker = (tmp_path / "FAILED").read_text()
        assert marker.startswith(f"lambda_se=1: {alone.value}\n")
        assert not (tmp_path / "manifest.json").exists()

    def test_trace_scores_equal_row_by_row_scores(self):
        # one batched call per arm gives every row the bits of its own call
        config = tiny_config()
        for arm in run_arms(config, [(0.0, config.seed), (1.0, config.seed)]):
            records, paths = arm.result.trace.records, arm.result.trace.mean_paths
            alone = [arm.evaluator.rel_error(r.m_hat, r.sigma2, paths[r.outer]) for r in records]
            assert np.array(alone).tobytes() == records.rel_error.tobytes()

    def test_a_divergence_in_a_later_round_leaves_no_process(self):
        # at seed 1 and step 3, run alone, lambda 0 diverges at k=1, i=3 and
        # lambda 1 at k=1, i=2, after round 0 was played; the stack stops at
        # lambda 1's step, and nothing is left running behind the error
        data = config_to_dict(tiny_config(seed=1))
        data["learner"].update(n_outer=3, n_inner=8, n_perturbations=50, step_size=3.0)
        config = config_from_dict(data)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(LearnerDivergence) as info:
                run_arms(config, [(0.0, 1), (1.0, 1)])
        assert (info.value.arm, info.value.outer, info.value.inner) == (1, 1, 2)
        assert multiprocessing.active_children() == []
