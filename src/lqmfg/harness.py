"""Experiment orchestration: relative error, the reference sweep, and reports.

The convergence metric is |J(candidate) - J(reference)| / |J(reference)|,
with both payoffs estimated by the same Monte Carlo estimator on a common
frozen set of draws (same paths, same count). Estimating both sides the same
way removes the time-discretization bias from the ratio and lets the error
vanish exactly when the candidate equals the reference.

The reference is the discretized closed-form equilibrium policy of the
Shannon game: gain B/D^2 and per-step variances lambda_se/(D^2 * eta(s*dt)).
At lambda_se = 0 (entropy bonus off) the limiting reference is the
quadratic-cost-only equilibrium: same gain, variances at the floor.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, rng
from .analytic import equilibrium_policy, game_value, riccati_coefficient
from .config import ExperimentConfig, config_to_dict
from .learner import LearnerDivergence, RunResult
from .learner import run as learner_run
from .params import GameParams, ParameterError, TimeGrid
from .simulate import (
    SIGMA_FLOOR,
    PolicyParams,
    check_path,
    discretize_policy,
    draw_noise,
    mean_and_stderr,
    rollout,
)


def reference_policy(
    params: GameParams, grid: TimeGrid, sigma_floor: float = SIGMA_FLOOR
) -> PolicyParams:
    """Discretized equilibrium policy used as the error reference."""
    if params.lambda_se > 0.0:
        return discretize_policy(equilibrium_policy(params, "se"), grid)
    gain = params.B / params.D**2
    return PolicyParams(m_hat=gain, sigma2=np.full(grid.n_steps, sigma_floor))


class DegenerateReferenceError(ParameterError):
    """Reference payoff too close to zero for a relative error."""


class PayoffEvaluator:
    """Common-random-number payoff estimator with a cached reference value.

    All evaluations reuse one frozen set of initial states and Brownian
    increments, so repeated calls are bit-identical and differences between
    nearby policies are estimated with far less noise than independent runs.
    A policy is scored by its gain, (N,) variances and (N + 1,) mean path;
    the reference plays against the constant path ``reference_path``.
    """

    def __init__(
        self,
        params: GameParams,
        grid: TimeGrid,
        n_paths: int,
        seed: int,
        sigma_floor: float = SIGMA_FLOOR,
    ):
        if n_paths < 2:
            raise ParameterError("n_paths must be >= 2")
        self.params = params
        self.grid = grid
        self.n_paths = n_paths
        stream = rng.substream(seed, rng.EVALUATION)
        self._x0, self._dW = draw_noise(stream, params, grid.dt, n_paths, grid.n_steps)
        self.reference = reference_policy(params, grid, sigma_floor)
        self.reference_path = np.full(grid.n_steps + 1, params.xi_mean)
        self.reference_payoff, self.reference_stderr = self.payoff(
            self.reference.m_hat, self.reference.sigma2, self.reference_path
        )
        if abs(self.reference_payoff) < 1e-12:
            raise DegenerateReferenceError(
                f"reference payoff is numerically zero for {params}; relative error undefined"
            )

    def _rewards(self, m_hat: float, sigma2: np.ndarray, path: np.ndarray) -> np.ndarray:
        if np.shape(sigma2) != (self.grid.n_steps,):
            raise ParameterError(f"sigma2 of shape {np.shape(sigma2)} does not fit the grid")
        return rollout(
            self.params, self.grid.dt, check_path(path, self.grid), m_hat, sigma2,
            self._x0, self._dW,
        )

    def payoff(self, m_hat: float, sigma2: np.ndarray, path: np.ndarray) -> tuple[float, float]:
        return mean_and_stderr(self._rewards(m_hat, sigma2, path))

    def rel_error(self, m_hat: float, sigma2: np.ndarray, path: np.ndarray) -> float:
        value = float(np.add.reduce(self._rewards(m_hat, sigma2, path)) / self.n_paths)
        return abs(value - self.reference_payoff) / abs(self.reference_payoff)


@dataclass
class ArmResult:
    """Outcome of one temperature setting in the sweep."""

    lambda_se: float
    result: RunResult
    evaluator: PayoffEvaluator
    runtime_seconds: float


@dataclass
class ExperimentReport:
    """All tables backing the reference experiment's figures."""

    config: ExperimentConfig
    arms: list = field(default_factory=list)


def _arm_params(config: ExperimentConfig, lambda_se: float) -> GameParams:
    return dataclasses.replace(config.game, lambda_se=lambda_se)


# Path-steps of scoring (rows x evaluation paths x steps) below which the
# rows are scored in-process: 2**24 path-steps take about 0.17 s at about
# 10 ns each, against 10-13 ms to start, use and stop a two-worker pool.
_POOL_MIN_PATH_STEPS = 2**24


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _score_round(job) -> list:
    """Relative errors of rows of one round against the round's mean path."""
    evaluator, path, m_hats, sigma2s = job
    # a worker started by spawn or forkserver does not inherit the caller's
    # floating-point error state
    with np.errstate(over="ignore", invalid="ignore"):
        return [
            evaluator.rel_error(m_hat, sigma2, path)
            for m_hat, sigma2 in zip(m_hats.tolist(), sigma2s)
        ]


def run_arms(arms) -> list:
    """Run (config, lambda_se) arms in lockstep and score their traces.

    Configurations may differ only in ``seed`` and ``lambda_se_values``,
    which must hold the arm's temperature (its position picks the
    evaluation draws). Each result is bit-identical to the arm's run alone;
    ``runtime_seconds`` is the shared run's time, scoring included.

    Rows are independent given the evaluators' frozen draws, and a round's
    rows are final once the round ends, so each round is scored while the
    learner plays the next: every arm's round is cut into one contiguous
    slice of rows per worker, each slice a job. With one CPU, or below
    ``_POOL_MIN_PATH_STEPS`` path-steps in all, the same jobs run
    in-process as the rounds end. Every row goes through the same kernel
    with the same inputs either way, so the column is bit-identical.
    """
    params, evaluators = [], []
    grid, learner = arms[0][0].grid, arms[0][0].learner
    for config, lambda_se in arms:
        if lambda_se not in config.lambda_se_values:
            raise ParameterError(
                f"lambda_se={lambda_se!r} is not one of the configured "
                f"lambda_se_values {config.lambda_se_values}"
            )
        if config.grid != grid:
            raise ParameterError("arms run in lockstep must share the time grid")
        if config.learner != learner:
            raise ParameterError("arms run in lockstep must share the learner configuration")
        params.append(_arm_params(config, lambda_se))
        index = config.lambda_se_values.index(lambda_se)
        eval_seed = rng.derive_seed(config.seed, rng.EVALUATION, index)
        evaluators.append(PayoffEvaluator(
            params[-1], grid, config.n_eval_paths, eval_seed, config.learner.sigma_floor
        ))
    n_rows = learner.n_inner + 1
    workers = min(_cpus(), n_rows)
    path_steps = sum(ev.n_paths for ev in evaluators) * learner.n_outer * n_rows * grid.n_steps
    edges = [n_rows * w // workers for w in range(workers + 1)]
    slices = []  # (arm, first row, last row + 1, future or errors)

    start = time.perf_counter()
    if workers < 2 or path_steps < _POOL_MIN_PATH_STEPS:
        pool, score = None, _score_round
    else:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers)
        score = functools.partial(pool.submit, _score_round)

    def on_round(k, block, paths):
        # the learner never writes block or paths again, so a pending job's
        # views stay valid until the pool pickles them
        for j, (rows, path) in enumerate(zip(block, paths)):
            for lo, hi in zip(edges, edges[1:]):
                job = (evaluators[j], path, rows[lo:hi, 0], rows[lo:hi, 1:])
                slices.append((j, k * n_rows + lo, k * n_rows + hi, score(job)))

    try:
        # a diverging policy overflows the kernel before the step that makes
        # it non-finite raises LearnerDivergence; that error names it, not
        # warnings
        with np.errstate(over="ignore", invalid="ignore"):
            results = learner_run(
                params, grid, learner, [config.seed for config, _ in arms], on_round
            )
        for j, lo, hi, errors in slices:
            results[j].trace.records.rel_error[lo:hi] = errors.result() if pool else errors
    finally:
        if pool is not None:
            # after a divergence, drop the jobs no worker has started
            pool.shutdown(cancel_futures=True)
    runtime = time.perf_counter() - start
    return [
        ArmResult(lambda_se=lam, result=result, evaluator=evaluator, runtime_seconds=runtime)
        for (_, lam), result, evaluator in zip(arms, results, evaluators)
    ]


def run_arm(config: ExperimentConfig, lambda_se: float) -> ArmResult:
    """Run the learner for one temperature and score its whole trace."""
    return run_arms([(config, lambda_se)])[0]


def reproduce(config: ExperimentConfig) -> ExperimentReport:
    """Sweep the configured temperatures in lockstep and assemble the report.

    If the configuration names an output directory the tables are written
    there before returning. If an arm diverges, the directory instead gets a
    FAILED marker naming the first diverging arm in sweep order, the step
    and the last finite policy, and the LearnerDivergence propagates.
    """
    try:
        arms = run_arms([(config, lam) for lam in config.lambda_se_values])
    except LearnerDivergence as exc:
        if config.output_dir:
            os.makedirs(config.output_dir, exist_ok=True)
            _clear_markers(config.output_dir)
            policy = exc.last_policy
            _write_failed(config.output_dir, (
                f"lambda_se={_fmt(config.lambda_se_values[exc.arm])}: {exc}\n"
                f"last finite policy: m_hat={_fmt(policy.m_hat)} "
                f"sigma2={' '.join(_fmt(v) for v in policy.sigma2)}\n"
            ))
        raise
    report = ExperimentReport(config=config, arms=arms)
    if config.output_dir:
        write_report(report, config.output_dir)
    return report


def _continuous_game_value(config: ExperimentConfig, lambda_se: float) -> float:
    """Closed-form value reported alongside the sampled reference payoff.

    In the zero-temperature limit the offset vanishes and only the quadratic
    term survives.
    """
    params = _arm_params(config, lambda_se)
    if lambda_se > 0.0:
        return game_value(params, "se", 0.0, config.grid)
    return -0.5 * float(riccati_coefficient(params, 0.0, "se")) * params.xi_var


def check_thresholds(report: ExperimentReport, threshold: float = 0.05) -> list:
    """Convergence checks for --check mode: final error below the threshold
    for every positive-temperature arm. Returns a list of failure messages."""
    failures = []
    for arm in report.arms:
        if arm.lambda_se <= 0.0:
            continue
        final = arm.result.trace.records[-1].rel_error
        if not final < threshold:
            failures.append(
                f"lambda_se={arm.lambda_se}: final relative error {final:.4f} "
                f">= {threshold}"
            )
    return failures


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _clear_markers(out_dir: str) -> None:
    # a manifest must always describe the tables next to it: clear leftovers
    # from any previous run before writing anything new
    for stale in ("manifest.json", "FAILED"):
        path = os.path.join(out_dir, stale)
        if os.path.exists(path):
            os.remove(path)


def _write_failed(out_dir: str, text: str) -> None:
    with open(os.path.join(out_dir, "FAILED"), "w") as fh:
        fh.write(text)


def write_report(report: ExperimentReport, out_dir: str) -> list:
    """Write the report tables; the manifest is written last and atomically.

    A failure mid-write leaves the partial tables plus a FAILED marker and
    never a manifest. Returns the list of written paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    _clear_markers(out_dir)
    written = []
    try:
        path = os.path.join(out_dir, "learning_curve.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["lambda_se", "k", "i", "total_iter", "rel_error"])
            for arm in report.arms:
                rows = arm.result.trace.records[["outer", "inner", "rel_error"]].tolist()
                # rows are in (k, i) order, so a row's index is k * (I + 1) + i
                for total, (k, i, err) in enumerate(rows):
                    w.writerow([_fmt(arm.lambda_se), k, i, total, _fmt(err)])
        written.append(path)

        path = os.path.join(out_dir, "variance_schedule.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["lambda_se", "s", "learned_sigma2", "analytic_sigma2"])
            for arm in report.arms:
                # the schedule the arm's errors are measured against
                analytic = arm.evaluator.reference.sigma2
                learned = arm.result.policy.sigma2
                for s in range(report.config.grid.n_steps):
                    w.writerow(
                        [_fmt(arm.lambda_se), s, _fmt(learned[s]), _fmt(analytic[s])]
                    )
        written.append(path)

        path = os.path.join(out_dir, "mean_field.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["lambda_se", "k", "s", "m"])
            for arm in report.arms:
                for k, values in enumerate(arm.result.trace.mean_paths):
                    for s, m in enumerate(values):
                        w.writerow([_fmt(arm.lambda_se), k, s, _fmt(m)])
        written.append(path)

        path = os.path.join(out_dir, "summary.json")
        summary = {
            "true_m_hat": report.config.game.B / report.config.game.D**2,
            "seeds": {
                "master_seed": report.config.seed,
                "n_eval_paths": report.config.n_eval_paths,
            },
            "arms": [
                {
                    "lambda_se": arm.lambda_se,
                    "learned_m_hat": arm.result.policy.m_hat,
                    "final_rel_error": arm.result.trace.records[-1].rel_error,
                    "reference_payoff": arm.evaluator.reference_payoff,
                    "reference_game_value": _continuous_game_value(
                        report.config, arm.lambda_se
                    ),
                    "runtime_seconds": arm.runtime_seconds,
                }
                for arm in report.arms
            ],
        }
        with open(path, "w") as fh:
            json.dump(summary, fh, indent=2)
        written.append(path)
    except Exception as exc:
        _write_failed(out_dir, f"report writing failed: {exc}\n")
        raise OSError(f"failed writing report under {out_dir}: {exc}") from exc

    manifest = {
        "config": config_to_dict(report.config),
        "seed": report.config.seed,
        "version": __version__,
        "tables": [os.path.basename(p) for p in written],
    }
    tmp = os.path.join(out_dir, "manifest.json.tmp")
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2)
    final = os.path.join(out_dir, "manifest.json")
    os.replace(tmp, final)
    written.append(final)
    return written
