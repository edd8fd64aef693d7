"""Model-free mean-field policy gradient with exploration.

Outer loop: fictitious play. Learn a best response against the frozen
population mean path, then update the path assuming everyone adopts the
learned policy. Inner loop: zeroth-order ascent on the realized reward,
with gradients estimated from sphere-smoothed single-rollout evaluations:

    estimate = (1/n) * sum_j  (reward_j / r^2) * U_j,   ||U_j|| = r.

On the sphere, E[U U^T] = (r^2/dim) * I, so the estimate averages to
grad / dim on smooth objectives (see the gradient tests).

Two variance-control switches ship enabled by default because the raw
estimator (independent rollout noise per perturbation, no baseline) has a
per-step noise magnitude far above the attainable drift at the reference
hyperparameters and diverges (see README):

* ``shared_rollout_noise``: the n perturbed policies within one estimate are
  evaluated on a common initial state and Brownian path, isolating the
  perturbation effect;
* ``baseline="loo"``: each reward is centered by the leave-one-out batch
  mean, which cancels the common reward level without biasing the estimate
  (the baseline is independent of the perturbation it multiplies).

Setting ``shared_rollout_noise=False, baseline="none"`` recovers the raw
estimator exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import rng
from .params import DomainError, GameParams, ParameterError, TimeGrid
from .simulate import (
    SIGMA_FLOOR,
    MeanField,
    PolicyParams,
    draw_noise,
    propagate_mean_field,
    rollout,
)


@dataclass(frozen=True)
class InitSpec:
    """Gaussian initializer for the policy vector (variances clamped to the floor)."""

    m_hat_mean: float = 0.5
    m_hat_var: float = 1.0
    sigma2_mean: float = 0.5
    sigma2_var: float = 0.1

    def __post_init__(self):
        if self.m_hat_var < 0 or self.sigma2_var < 0:
            raise ParameterError("initializer variances must be nonnegative")

    def sample(self, n_steps: int, stream: np.random.Generator, floor: float) -> PolicyParams:
        m_hat = self.m_hat_mean + math.sqrt(self.m_hat_var) * stream.standard_normal()
        sigma2 = self.sigma2_mean + math.sqrt(self.sigma2_var) * stream.standard_normal(n_steps)
        return PolicyParams(m_hat=float(m_hat), sigma2=np.maximum(sigma2, floor))


@dataclass(frozen=True)
class LearnerConfig:
    """Hyperparameters of the policy-gradient learner.

    ``n_outer`` fictitious-play rounds of ``n_inner`` gradient steps, each
    estimated from ``n_perturbations`` sphere-perturbed rollouts of radius
    ``radius``, ascending with ``step_size``. ``warm_start`` keeps the policy
    across outer rounds (a fresh draw per round is the alternative).
    """

    n_outer: int = 10
    n_inner: int = 400
    n_perturbations: int = 50
    radius: float = 0.01
    step_size: float = 0.05
    sigma_floor: float = SIGMA_FLOOR
    init: InitSpec = field(default_factory=InitSpec)
    initial_mean_field: float = 0.0
    master_seed: int = 0
    shared_rollout_noise: bool = True
    baseline: str = "loo"
    warm_start: bool = True

    def __post_init__(self):
        if self.n_outer < 1 or self.n_perturbations < 1:
            raise ParameterError("n_outer and n_perturbations must be >= 1")
        if self.n_inner < 0:
            raise ParameterError("n_inner must be >= 0")
        if not (self.radius > 0 and self.step_size > 0 and self.sigma_floor > 0):
            raise ParameterError("radius, step_size and sigma_floor must be positive")
        if self.baseline not in ("loo", "none"):
            raise ParameterError("baseline must be 'loo' or 'none'")
        if self.baseline == "loo" and self.n_perturbations < 2:
            raise ParameterError("leave-one-out baseline needs n_perturbations >= 2")


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


def sphere_gradient_estimate(
    evaluate_batch: Callable,
    center: np.ndarray,
    n: int,
    radius: float,
    stream: np.random.Generator,
    baseline: str = "none",
) -> np.ndarray:
    """Smoothed-gradient estimate of a black-box function at ``center``.

    ``evaluate_batch`` maps an (n, dim) matrix of perturbed points to their n
    scalar values. The estimate is (1/n) * sum_j (value_j / radius^2) * U_j
    over uniform sphere perturbations; its expectation on smooth functions is
    grad / dim. The optional leave-one-out baseline centers each value by the
    mean of the others, which leaves the expectation unchanged (each baseline
    is independent of the perturbation it multiplies) while cancelling the
    common value level.
    """
    center = np.asarray(center, dtype=float)
    U = _sample_sphere_batch(n, len(center), radius, stream)
    values = np.asarray(evaluate_batch(center[None, :] + U), dtype=float)
    if baseline == "loo":
        if n < 2:
            raise ParameterError("leave-one-out baseline needs n >= 2")
        values = values - (values.sum() - values) / (n - 1)
    # the bits of .mean(axis=0), without its overhead
    return np.add.reduce(U * (values / radius**2)[:, None], axis=0) / n


def estimate_gradient(
    params: GameParams,
    grid: TimeGrid,
    policy: PolicyParams,
    mean_field: MeanField,
    cfg: LearnerConfig,
    stream: np.random.Generator,
) -> np.ndarray:
    """Sphere-smoothed reward-gradient estimate at the current policy.

    Each perturbed policy is evaluated on one rollout; perturbed variances
    are clamped to the floor for the evaluation only, leaving the stored
    perturbations (and hence the estimator geometry) untouched. Draw order is
    fixed (perturbations, then rollout noise), so a given substream always
    yields the same estimate.
    """
    policy.check_aligned(grid)
    mean_field.check_aligned(grid)
    n = cfg.n_perturbations

    def rollouts(points: np.ndarray) -> np.ndarray:
        if cfg.shared_rollout_noise:
            x0, dW = draw_noise(stream, params, grid.dt, 1, grid.n_steps)
            x0, dW = x0[0], dW[0]
        else:
            x0, dW = draw_noise(stream, params, grid.dt, n, grid.n_steps)
        m_hats = points[:, 0]
        sigma2s = np.maximum(points[:, 1:], cfg.sigma_floor)
        return rollout(params, grid.dt, mean_field.values, m_hats, sigma2s, x0, dW)

    return sphere_gradient_estimate(
        rollouts, policy.to_vector(), n, cfg.radius, stream, cfg.baseline
    )


def gradient_step(
    policy: PolicyParams, estimate: np.ndarray, cfg: LearnerConfig
) -> PolicyParams:
    """Ascent step on the reward, then project variances onto [floor, inf)."""
    vec = policy.to_vector() + cfg.step_size * np.asarray(estimate, dtype=float)
    return PolicyParams.from_vector(vec, floor=cfg.sigma_floor)


class LearnerDivergence(RuntimeError):
    """A gradient step made the policy non-finite.

    ``outer`` and ``inner`` index the failing step (outer round k, inner step
    i, both from 0); ``last_policy`` is the last finite policy, the one the
    step started from.
    """

    def __init__(self, outer: int, inner: int, last_policy: PolicyParams):
        super().__init__(
            f"learner diverged at outer round k={outer}, inner step i={inner}: "
            "the gradient step made the policy non-finite"
        )
        self.outer = outer
        self.inner = inner
        self.last_policy = last_policy


@dataclass(frozen=True)
class TraceRecord:
    outer: int
    inner: int
    rel_error: float
    m_hat: float
    sigma2: np.ndarray


@dataclass
class LearningTrace:
    """Per-step diagnostics plus per-outer-round snapshots."""

    records: list = field(default_factory=list)
    outer_policies: list = field(default_factory=list)
    outer_mean_fields: list = field(default_factory=list)

    def rel_errors(self) -> np.ndarray:
        return np.array([r.rel_error for r in self.records])


EvalFn = Callable[[PolicyParams, MeanField], float]


def inner_loop(
    params: GameParams,
    grid: TimeGrid,
    mean_field: MeanField,
    cfg: LearnerConfig,
    outer_index: int = 0,
    initial: Optional[PolicyParams] = None,
    evaluate: Optional[EvalFn] = None,
) -> tuple[PolicyParams, list]:
    """One best-response round against a frozen mean path.

    Draws the initial policy from the configured initializer unless one is
    passed in, then performs ``n_inner`` gradient steps. Returns the final
    policy and the I + 1 per-step records (the first covers the initializer).
    Raises LearnerDivergence when a step makes the policy non-finite.
    """
    if initial is None:
        init_stream = rng.substream(cfg.master_seed, rng.INITIAL_POLICY, outer_index)
        policy = cfg.init.sample(grid.n_steps, init_stream, cfg.sigma_floor)
    else:
        policy = initial
    records = []

    def record(i: int, pol: PolicyParams):
        err = evaluate(pol, mean_field) if evaluate is not None else math.nan
        records.append(
            TraceRecord(
                outer=outer_index,
                inner=i,
                rel_error=err,
                m_hat=pol.m_hat,
                sigma2=pol.sigma2.copy(),
            )
        )

    record(0, policy)
    for i in range(cfg.n_inner):
        stream = rng.substream(cfg.master_seed, rng.PERTURBATION, outer_index, i)
        estimate = estimate_gradient(params, grid, policy, mean_field, cfg, stream)
        try:
            stepped = gradient_step(policy, estimate, cfg)
        except (DomainError, ParameterError) as exc:
            # the step clamps variances to the floor, so the new policy fails
            # validation only when its gain or a variance is not finite
            raise LearnerDivergence(outer_index, i, policy) from exc
        policy = stepped
        record(i + 1, policy)
    return policy, records


@dataclass(frozen=True)
class RunResult:
    policy: PolicyParams
    mean_field: MeanField
    trace: LearningTrace


def run(
    params: GameParams,
    grid: TimeGrid,
    cfg: LearnerConfig,
    evaluate: Optional[EvalFn] = None,
) -> RunResult:
    """Full fictitious-play run: alternate best response and mean-path update.

    Deterministic given (params, grid, cfg); the optional evaluate callback
    fills the relative-error column of the trace and does not influence the
    learned policy.
    """
    mean_field = MeanField.constant(cfg.initial_mean_field, grid)
    trace = LearningTrace()
    policy: Optional[PolicyParams] = None
    for k in range(cfg.n_outer):
        initial = policy if (cfg.warm_start and policy is not None) else None
        policy, records = inner_loop(
            params, grid, mean_field, cfg,
            outer_index=k, initial=initial, evaluate=evaluate,
        )
        trace.records.extend(records)
        mean_field = propagate_mean_field(params, grid, policy, mean_field)
        trace.outer_policies.append(policy)
        trace.outer_mean_fields.append(mean_field)
    return RunResult(policy=policy, mean_field=mean_field, trace=trace)
