"""Experiment orchestration: relative error, the reference sweep, and reports.

The convergence metric is |J(candidate) - J(reference)| / |J(reference)|,
both the expected reward ``simulate.discrete_moments`` gives in the same
discrete game.

The reference is the discretized closed-form equilibrium policy of the
Shannon game: gain B/D^2 and per-step variances lambda_se/(D^2 * eta(s*dt)).
At lambda_se = 0 (entropy bonus off) the limiting reference is the
quadratic-cost-only equilibrium: same gain, variances at the floor.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .analytic import equilibrium_policy, game_value, riccati_coefficient
from .config import ExperimentConfig, config_to_dict
from .learner import LearnerDivergence
from .learner import run as learner_run
from .params import GameParams, ParameterError, TimeGrid
from .simulate import SIGMA_FLOOR, PolicyParams, discrete_moments, discretize_policy


def reference_policy(
    params: GameParams, grid: TimeGrid, sigma_floor: float = SIGMA_FLOOR
) -> PolicyParams:
    """Discretized equilibrium policy used as the error reference."""
    if params.lambda_se > 0.0:
        return discretize_policy(equilibrium_policy(params, "se"), grid)
    gain = params.B / params.D**2
    return PolicyParams(m_hat=gain, sigma2=np.full(grid.n_steps, sigma_floor))


class DegenerateReferenceError(ParameterError):
    """Reference payoff too close to zero, or not finite, for a relative error."""


class PayoffEvaluator:
    """Exact relative-error scorer of one game, with its references cached.

    A policy is scored by its gain, variances and mean path, batched as
    ``discrete_moments`` takes them; the reference plays against the
    constant path ``reference_path``. ``game_value``, reported beside the
    reference payoff, is the ``se`` game's closed-form value at t = 0 (its
    quadratic term alone at lambda_se = 0).
    """

    def __init__(self, params: GameParams, grid: TimeGrid, sigma_floor: float = SIGMA_FLOOR):
        self.params = params
        self.grid = grid
        self.reference = reference_policy(params, grid, sigma_floor)
        self.reference_path = np.full(grid.n_steps + 1, params.xi_mean)
        # a game far from the reference scale overflows the recursion, and
        # can overflow the game value's unused variance path: the check below
        # names the first, and neither leaks numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            self.reference_payoff = float(discrete_moments(
                params, grid, self.reference.m_hat, self.reference.sigma2, self.reference_path
            )[2])
            self.game_value = (game_value(params, "se", grid) if params.lambda_se > 0.0 else
                               -0.5 * riccati_coefficient(params, 0.0, "se") * params.xi_var)
        if not np.isfinite(self.reference_payoff):
            raise DegenerateReferenceError(
                f"reference payoff is not finite for {params}; relative error undefined"
            )
        if abs(self.reference_payoff) < 1e-12:
            raise DegenerateReferenceError(
                f"reference payoff is numerically zero for {params}; relative error undefined"
            )

    def rel_error(self, m_hat, sigma2, path):
        """Relative errors of gains (...), variances (..., N) and mean paths
        (..., N + 1), broadcast against each other."""
        value = discrete_moments(self.params, self.grid, m_hat, sigma2, path)[2]
        return np.abs(value - self.reference_payoff) / abs(self.reference_payoff)


@dataclass(frozen=True)
class LearningTrace:
    """One arm's scored policy at every step and its mean path at every round.

    ``records``: K * (I + 1) rows of ``outer``, ``inner``, ``rel_error``,
    ``m_hat`` and ``sigma2`` (N,), a round's first row its starting policy.
    ``mean_paths``: (K + 1, N + 1), the initial path, then the path after
    each round; round k plays against ``mean_paths[k]``.
    """

    records: np.recarray
    mean_paths: np.ndarray


@dataclass(frozen=True)
class RunResult:
    trace: LearningTrace


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


def run_arms(config: ExperimentConfig, arms) -> list:
    """Run (lambda_se, seed) arms of the configured game in lockstep, then
    score each arm's policies in one ``rel_error`` call into its trace; the
    config's ``seed`` and ``lambda_se_values`` are not read.
    ``runtime_seconds`` is the shared run's time, scoring included."""
    grid, learner = config.grid, config.learner
    lambdas, seeds = zip(*arms)
    evaluators = [PayoffEvaluator(dataclasses.replace(config.game, lambda_se=lam), grid,
                                  learner.sigma_floor) for lam in lambdas]

    start = time.perf_counter()
    # a diverging policy overflows the kernel before the step that makes it
    # non-finite raises LearnerDivergence, and a huge but finite gain can
    # overflow its score; the error and the score name them, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        steps, mean_paths = learner_run(config.game, grid, learner, lambdas, seeds)
        errors = [evaluator.rel_error(policies[..., 0], policies[..., 1:], paths[:-1, None])
                  for evaluator, policies, paths in zip(evaluators, steps, mean_paths)]
        # one record per arm, round k and step i, in (k, i) order per arm
        _, k, i = np.indices(steps.shape[:3])
        records = np.rec.fromarrays([k, i, errors, steps[..., 0], steps[..., 1:]], dtype=[
            ("outer", np.int64), ("inner", np.int64), ("rel_error", float),
            ("m_hat", float), ("sigma2", float, (grid.n_steps,)),
        ]).reshape(len(steps), -1)
    runtime = time.perf_counter() - start
    return [
        ArmResult(lambda_se=lam, evaluator=evaluator, runtime_seconds=runtime,
                  result=RunResult(trace=LearningTrace(records=rows, mean_paths=paths)))
        for lam, evaluator, rows, paths in zip(lambdas, evaluators, records, mean_paths)
    ]


def run_arm(config: ExperimentConfig, lambda_se: float) -> ArmResult:
    """Run the learner for one temperature on the config's seed and score
    its whole trace."""
    return run_arms(config, [(lambda_se, config.seed)])[0]


def reproduce(config: ExperimentConfig, out_dir=None) -> ExperimentReport:
    """Sweep the configured temperatures in lockstep and assemble the report,
    written to ``out_dir`` if one is given; there, a LearnerDivergence first
    leaves a FAILED marker (see README)."""
    try:
        arms = run_arms(config, [(lam, config.seed) for lam in config.lambda_se_values])
    except LearnerDivergence as exc:
        if out_dir:
            policy = exc.last_policy
            _mark(out_dir, (
                f"lambda_se={_fmt(config.lambda_se_values[exc.arm])}: {exc}\n"
                f"last finite policy: m_hat={_fmt(policy[0])} "
                f"sigma2={' '.join(_fmt(v) for v in policy[1:])}\n"
            ))
        raise
    report = ExperimentReport(config=config, arms=arms)
    if out_dir:
        write_report(report, out_dir)
    return report


# The --check gate on every positive-temperature arm's final relative error.
CHECK_THRESHOLD = 0.05


def check_thresholds(report: ExperimentReport) -> list:
    """Convergence checks for --check mode: final error below CHECK_THRESHOLD
    for every positive-temperature arm. Returns a list of failure messages."""
    failures = []
    for arm in report.arms:
        if arm.lambda_se <= 0.0:
            continue
        final = arm.result.trace.records[-1].rel_error
        if not final < CHECK_THRESHOLD:
            failures.append(
                f"lambda_se={arm.lambda_se}: final relative error {final:.4f} "
                f">= {CHECK_THRESHOLD}"
            )
    return failures


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


@contextlib.contextmanager
def staged(path: str):
    """The one way the package writes a file: a text file, newlines written
    as given, opened at ``<path>.partial`` and moved onto ``path`` when the
    block completes. On any failure the partial file is removed, so ``path``
    holds its old bytes or its whole new bytes; an OSError is raised again
    naming ``path``, and any other exception passes through."""
    partial = path + ".partial"
    try:
        with open(partial, "w", newline="") as fh:
            yield fh
        os.replace(partial, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(partial)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {path}: {exc}") from exc
        raise


def write_table(path: str, header, blocks) -> None:
    """A CSV table of numbers, in the bytes csv.writer gives it: the header,
    then for each (template, rows) of ``blocks`` every row, a tuple of cells,
    through the one-row ``%`` template (``%.17g`` for a float cell, as _fmt)."""
    with staged(path) as fh:
        fh.write(",".join(header) + "\r\n")
        for template, rows in blocks:
            fh.write("".join([template % row for row in rows]))


def _write_json(path: str, data) -> str:
    with staged(path) as fh:
        json.dump(data, fh, indent=2)
    return path


def _mark(out_dir: str, failed=None) -> None:
    """Make ``out_dir`` and clear an earlier run's markers, since a manifest
    must describe the tables next to it; then leave a FAILED marker holding
    the text ``failed``, if given."""
    os.makedirs(out_dir, exist_ok=True)
    for stale in ("manifest.json", "FAILED"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, stale))
    if failed is not None:
        with staged(os.path.join(out_dir, "FAILED")) as fh:
            fh.write(failed)


def write_report(report: ExperimentReport, out_dir: str) -> list:
    """Write the report tables, summary.json and, last, manifest.json, each
    file staged. A failure leaves every file with its old bytes or its whole
    new bytes, a FAILED marker and never a manifest. Returns the list of
    written paths.
    """
    _mark(out_dir)
    written = []
    try:
        # one row template per arm, its temperature formatted once
        tables = {
            "learning_curve.csv": (["lambda_se", "k", "i", "total_iter", "rel_error"], (
                (f"{_fmt(arm.lambda_se)},%d,%d,%d,%.17g\r\n", (
                    (k, i, total, err)
                    # rows are in (k, i) order, so a row's index is k * (I + 1) + i
                    for total, (k, i, err) in enumerate(
                        arm.result.trace.records[["outer", "inner", "rel_error"]].tolist()
                    )
                ))
                for arm in report.arms
            )),
            # each arm's learned schedule next to the one its errors are measured against
            "variance_schedule.csv": (["lambda_se", "s", "learned_sigma2", "analytic_sigma2"], (
                (f"{_fmt(arm.lambda_se)},%d,%.17g,%.17g\r\n", zip(
                    range(report.config.grid.n_steps),
                    arm.result.trace.records[-1].sigma2.tolist(),
                    arm.evaluator.reference.sigma2.tolist(),
                ))
                for arm in report.arms
            )),
            "mean_field.csv": (["lambda_se", "k", "s", "m"], (
                (f"{_fmt(arm.lambda_se)},%d,%d,%.17g\r\n", (
                    (k, s, m)
                    for k, values in enumerate(arm.result.trace.mean_paths.tolist())
                    for s, m in enumerate(values)
                ))
                for arm in report.arms
            )),
        }
        for name, (header, blocks) in tables.items():
            path = os.path.join(out_dir, name)
            write_table(path, header, blocks)
            written.append(path)

        summary = {
            "true_m_hat": report.config.game.B / report.config.game.D**2,
            "seeds": {"master_seed": report.config.seed},
            "arms": [
                {
                    "lambda_se": arm.lambda_se,
                    "learned_m_hat": arm.result.trace.records[-1].m_hat,
                    "final_rel_error": arm.result.trace.records[-1].rel_error,
                    "reference_payoff": arm.evaluator.reference_payoff,
                    "reference_game_value": arm.evaluator.game_value,
                    "runtime_seconds": arm.runtime_seconds,
                }
                for arm in report.arms
            ],
        }
        written.append(_write_json(os.path.join(out_dir, "summary.json"), summary))
        manifest = {
            "config": config_to_dict(report.config),
            "seed": report.config.seed,
            "version": __version__,
            "tables": [os.path.basename(p) for p in written],
        }
        written.append(_write_json(os.path.join(out_dir, "manifest.json"), manifest))
    except Exception as exc:
        _mark(out_dir, f"report writing failed: {exc}\n")
        raise OSError(f"failed writing report under {out_dir}: {exc}") from exc
    return written
