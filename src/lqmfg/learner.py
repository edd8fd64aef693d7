"""Model-free mean-field policy gradient with exploration.

Outer loop: fictitious play. Learn a best response against the frozen
population mean path, then update the path assuming everyone adopts the
learned policy. Inner loop: zeroth-order ascent on the realized reward,
with gradients estimated from sphere-smoothed single-rollout evaluations:

    estimate = (1/n) * sum_j  (reward_j / r^2) * U_j,   ||U_j|| = r.

On the sphere, E[U U^T] = (r^2/dim) * I, so the estimate averages to
grad / dim on smooth objectives (see the gradient tests).

The n perturbed policies of one estimate are evaluated on a common initial
state and Brownian path, which isolates the perturbation effect, and each
reward is centered by the leave-one-out batch mean, which cancels the
common reward level without biasing the estimate (the baseline is
independent of the perturbation it multiplies). Without this variance
control the per-step noise at the reference hyperparameters is far above
the attainable drift and the learner diverges (see README).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import rng
from .params import GameParams, ParameterError, TimeGrid, check_finite
from .simulate import (
    SIGMA_FLOOR,
    PolicyParams,
    draw_noise,
    propagate_mean_field,
    rollout,
)


@dataclass(frozen=True)
class InitSpec:
    """Gaussian initializer for the (1 + N) policy vector: gain first, then
    the variance schedule, clamped to the floor."""

    m_hat_mean: float = 0.5
    m_hat_var: float = 1.0
    sigma2_mean: float = 0.5
    sigma2_var: float = 0.1

    def __post_init__(self):
        check_finite(self)
        if self.m_hat_var < 0 or self.sigma2_var < 0:
            raise ParameterError("m_hat_var and sigma2_var must be nonnegative")

    def sample(self, n_steps: int, stream: np.random.Generator, floor: float) -> np.ndarray:
        m_hat = self.m_hat_mean + math.sqrt(self.m_hat_var) * stream.standard_normal()
        sigma2 = self.sigma2_mean + math.sqrt(self.sigma2_var) * stream.standard_normal(n_steps)
        return np.concatenate(([m_hat], np.maximum(sigma2, floor)))


@dataclass(frozen=True)
class LearnerConfig:
    """Hyperparameters of the policy-gradient learner.

    ``n_outer`` fictitious-play rounds of ``n_inner`` gradient steps, each
    estimated from ``n_perturbations`` sphere-perturbed rollouts of radius
    ``radius``, ascending with ``step_size``. The first round starts from
    an ``init`` draw, and each later round from the policy the previous one
    ended at.
    """

    n_outer: int = 10
    n_inner: int = 400
    n_perturbations: int = 50
    radius: float = 0.01
    step_size: float = 0.05
    sigma_floor: float = SIGMA_FLOOR
    initial_mean_field: float = 0.0
    init: InitSpec = field(default_factory=InitSpec)

    def __post_init__(self):
        check_finite(self)
        if self.n_outer < 1:
            raise ParameterError("n_outer must be >= 1")
        if self.n_perturbations < 2:
            raise ParameterError("leave-one-out baseline needs n_perturbations >= 2")
        if self.n_inner < 0:
            raise ParameterError("n_inner must be >= 0")
        if not (self.radius > 0 and self.step_size > 0 and self.sigma_floor > 0):
            raise ParameterError("radius, step_size and sigma_floor must be positive")


def _sample_sphere_batch(n: int, dim: int, radius: float, stream) -> np.ndarray:
    """n uniform draws on the sphere of the given radius (normalized Gaussians)."""
    if dim < 1 or radius <= 0:
        raise ParameterError("dim must be >= 1 and radius positive")
    u = stream.standard_normal((n, dim))
    # the bits of np.linalg.norm(u, axis=1, keepdims=True), without its overhead
    norms = np.sqrt(np.add.reduce(u * u, axis=1, keepdims=True))
    # A zero row has probability zero; regenerate defensively if it happens.
    while (norms == 0.0).any():
        bad = norms[:, 0] == 0.0
        u[bad] = stream.standard_normal((int(bad.sum()), dim))
        norms = np.sqrt(np.add.reduce(u * u, axis=1, keepdims=True))
    return radius * u / norms


def _sphere_average(U: np.ndarray, values: np.ndarray, radius: float) -> np.ndarray:
    """(1/n) * sum_j (value_j / radius^2) * U_j for U (..., n, dim), values
    (..., n), each value centered by the mean of the other n - 1."""
    n = values.shape[-1]
    if n < 2:
        raise ParameterError("leave-one-out baseline needs n >= 2")
    values = values - (values.sum(axis=-1, keepdims=True) - values) / (n - 1)
    # the bits of .mean(axis=-2), without its overhead
    return np.add.reduce(U * (values / radius**2)[..., None], axis=-2) / n


def estimate_gradient(params, grid: TimeGrid, policies, mean_paths, cfg: LearnerConfig, streams):
    """Sphere-smoothed reward-gradient estimates, (S, 1 + N), for a stack of S
    arms: one GameParams per arm (differing only in lambda_se), an (S, 1 + N)
    policy matrix, (S, N + 1) mean paths and one generator per arm.

    Arms given the same generator share its draws, made once in a fixed
    order (perturbations, then one initial state and Brownian path); all
    S * n perturbed policies are scored on that path in one kernel call.
    Perturbed variances are clamped to the floor for the evaluation only,
    leaving the estimator geometry untouched.
    """
    dim = policies.shape[1]
    if dim != grid.n_steps + 1 or mean_paths.shape != (len(policies), dim):
        raise ParameterError(f"policies and mean paths need {dim} entries per arm")
    draws = {id(s): (_sample_sphere_batch(cfg.n_perturbations, dim, cfg.radius, s),
                     *draw_noise(s, params[0], grid.dt, 1, grid.n_steps))
             for s in {id(s): s for s in streams}.values()}
    U, x0, dW = (np.array(parts) for parts in zip(*(draws[id(s)] for s in streams)))
    points = policies[:, None, :] + U
    values = rollout(
        params[0], grid.dt, mean_paths.T[:, :, None], points[..., 0],
        np.maximum(points[..., 1:], cfg.sigma_floor), x0, dW,
        lambda_se=np.array([p.lambda_se for p in params])[:, None, None],
    )
    return _sphere_average(U, values, cfg.radius)


def gradient_step(policies: np.ndarray, estimates: np.ndarray, cfg: LearnerConfig) -> np.ndarray:
    """Ascent step on the reward, then project variances onto [floor, inf),
    row by row on (..., 1 + N) policy vectors; non-finite rows stay so."""
    stepped = policies + cfg.step_size * np.asarray(estimates, dtype=float)
    np.maximum(stepped[..., 1:], cfg.sigma_floor, out=stepped[..., 1:])
    return stepped


class LearnerDivergence(RuntimeError):
    """A gradient step made the policy non-finite, or the mean-field update
    after a round made the mean path non-finite.

    ``outer`` and ``inner`` index the failing step (outer round k, inner step
    i, both from 0; ``inner`` is None for the mean-field update after round
    k); ``last_policy`` is the last finite (1 + N) policy vector, the one the
    step started from or the round ended at; ``arm`` indexes the arm in its
    stack.
    """

    def __init__(self, outer: int, inner: Optional[int], last_policy: np.ndarray, arm: int = 0):
        where = (f", inner step i={inner}: the gradient step made the policy" if inner is not None
                 else ": the mean-field update after the round made the mean path")
        super().__init__(f"learner diverged at outer round k={outer}{where} non-finite")
        self.outer = outer
        self.inner = inner
        self.last_policy = last_policy
        self.arm = arm


@dataclass(frozen=True)
class LearningTrace:
    """One arm's policy at every step and its mean path at every round.

    ``records`` is a record array of K * (I + 1) rows with fields ``outer``,
    ``inner``, ``rel_error`` (NaN until the harness scores the row),
    ``m_hat`` and ``sigma2`` (N,); a round's first row is its starting
    policy. ``mean_paths`` is (K + 1, N + 1): the initial path, then the path
    after each round, so round k plays against ``mean_paths[k]``.
    """

    records: np.recarray
    mean_paths: np.ndarray


def inner_loop(
    params: Sequence[GameParams],
    grid: TimeGrid,
    mean_paths: np.ndarray,
    cfg: LearnerConfig,
    seeds: Sequence[int],
    outer_index: int = 0,
    initial: Optional[np.ndarray] = None,
) -> tuple:
    """One best-response round of a stack of arms (arm j: ``params[j]``,
    ``seeds[j]``, ``mean_paths[j]``) against frozen (S, N + 1) mean paths.

    Starts from the (S, 1 + N) matrix ``initial`` or the initializer, then
    takes ``n_inner`` gradient steps for all arms at once; arms with the same
    seed share every substream, drawn once. Returns the (S, I + 1, 1 + N)
    block of each arm's policy before every step and after the last, and the
    divergence of the first diverging arm, or None: it and the arms after it
    stop, so the block holds the arms before it. Raises it if none is left.
    """
    if initial is None:
        drawn = {seed: cfg.init.sample(
            grid.n_steps, rng.substream(seed, rng.INITIAL_POLICY, outer_index), cfg.sigma_floor
        ) for seed in set(seeds)}
        initial = np.array([drawn[seed] for seed in seeds])
    steps = np.empty((len(seeds), cfg.n_inner + 1, grid.n_steps + 1))
    steps[:, 0] = policies = initial
    failure = None
    for i in range(cfg.n_inner):
        streams = {seed: rng.substream(seed, rng.PERTURBATION, outer_index, i) for seed in set(seeds)}
        estimates = estimate_gradient(
            params, grid, policies, mean_paths, cfg, [streams[seed] for seed in seeds]
        )
        stepped = gradient_step(policies, estimates, cfg)
        finite = np.isfinite(stepped).all(axis=1)
        if not finite.all():
            # the first diverging arm, and every arm after it, stop here
            j = int(finite.argmin())
            failure = LearnerDivergence(outer_index, i, policies[j], arm=j)
            if j == 0:
                raise failure
            stepped, params, mean_paths, seeds = stepped[:j], params[:j], mean_paths[:j], seeds[:j]
            steps = steps[:j]
        steps[:, i + 1] = policies = stepped
    return steps, failure


@dataclass(frozen=True)
class RunResult:
    policy: PolicyParams
    trace: LearningTrace


def run(params: Sequence[GameParams], grid: TimeGrid, cfg: LearnerConfig,
        seeds: Sequence[int]) -> list:
    """Fictitious play for a stack of arms in lockstep: arm j plays game
    ``params[j]`` on the substreams of ``seeds[j]``, and the games may differ
    only in lambda_se. Returns one RunResult per arm, bit-identical to the
    arm's run alone. If arms diverge, within a round or in the mean-field
    update after it, raises the divergence of the first in stack order once
    the arms before it finish.
    """
    if len({dataclasses.replace(p, lambda_se=0.0) for p in params}) > 1:
        raise ParameterError("games run in lockstep may differ only in lambda_se")
    n_outer, n_rows, n = cfg.n_outer, cfg.n_inner + 1, grid.n_steps
    steps = np.empty((len(seeds), n_outer, n_rows, n + 1))
    mean_paths = np.empty((len(seeds), n_outer + 1, n + 1))
    mean_paths[:, 0] = cfg.initial_mean_field
    active, failure = len(seeds), None
    for k in range(n_outer):
        block, diverged = inner_loop(
            params[:active], grid, mean_paths[:active, k], cfg, seeds[:active], k,
            steps[:active, k - 1, -1] if k else None,
        )
        failure = diverged or failure
        active = len(block)
        steps[:active, k] = block
        # the update reads only A, B and xi_mean, which all arms share
        mean_paths[:active, k + 1] = propagate_mean_field(
            params[0], grid, block[:, -1, 0], mean_paths[:active, k]
        )
        finite = np.isfinite(mean_paths[:active, k + 1]).all(axis=1)
        if not finite.all():
            # a finite but huge gain overflows the update: the first such arm
            # and every arm after it stop here, as for a diverging step
            j = int(finite.argmin())
            failure, active = LearnerDivergence(k, None, block[j, -1], arm=j), j
        if active == 0:
            raise failure
    if failure is not None:
        raise failure
    dtype = [("outer", np.int64), ("inner", np.int64), ("rel_error", float),
             ("m_hat", float), ("sigma2", float, (n,))]
    outer, inner = np.divmod(np.arange(n_outer * n_rows), n_rows)
    results = []
    for arm_steps, arm_paths in zip(steps, mean_paths):
        rows = arm_steps.reshape(-1, n + 1)
        records = np.rec.fromarrays(
            [outer, inner, np.full(len(rows), np.nan), rows[:, 0], rows[:, 1:]], dtype=dtype
        )
        results.append(RunResult(
            policy=PolicyParams(m_hat=float(rows[-1, 0]), sigma2=rows[-1, 1:].copy()),
            trace=LearningTrace(records=records, mean_paths=arm_paths),
        ))
    return results
