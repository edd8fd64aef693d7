"""Model-free mean-field policy gradient with exploration.

Outer loop: fictitious play. Learn a best response against the frozen
population mean path, then update the path assuming everyone adopts the
learned policy: the mean path of ``simulate.discrete_moments``, imported
here as ``propagate_mean_field``. Inner loop: zeroth-order ascent on the
realized reward, with gradients estimated from sphere-smoothed
single-rollout evaluations:

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

A step's draws depend only on its address (seed, PERTURBATION, k, i), not
on the policy, so the inner loop makes them ahead, ``_BLOCK`` steps at a
time: per seed, one pass of ``rng.substream_keys`` keys the block's steps,
and one Philox, re-keyed per step, fills the n directions row by row, then
the initial state, then the N increments. A zero direction is not redrawn:
its NaN estimate is a LearnerDivergence. What the kernel reads at every
step (mean paths, a block's increments, variances) is laid out step-major
once, so each step reads contiguous (S, n) slabs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import rng
from .params import GameParams, ParameterError, TimeGrid, check_finite
from .simulate import SIGMA_FLOOR, rollout, scale_noise
from .simulate import discrete_moments as propagate_mean_field

_BLOCK = 50


def _initial_policy(n_steps: int, stream: np.random.Generator, floor: float) -> np.ndarray:
    """The first round's (1 + N) policy vector: gain ~ N(0.5, 1), then the
    variance schedule ~ N(0.5, 0.1) per step, clamped to the floor."""
    m_hat = 0.5 + math.sqrt(1.0) * stream.standard_normal()
    sigma2 = 0.5 + math.sqrt(0.1) * stream.standard_normal(n_steps)
    return np.concatenate(([m_hat], np.maximum(sigma2, floor)))


@dataclass(frozen=True)
class LearnerConfig:
    """Hyperparameters of the policy-gradient learner.

    ``n_outer`` fictitious-play rounds of ``n_inner`` gradient steps, each
    estimated from ``n_perturbations`` sphere-perturbed rollouts of radius
    ``radius``, ascending with ``step_size``; variances never go below
    ``sigma_floor``. The first round starts from a Gaussian draw of the
    policy against the mean path 0, and each later round from the policy
    the previous one ended at.
    """

    n_outer: int = 10
    n_inner: int = 400
    n_perturbations: int = 50
    radius: float = 0.01
    step_size: float = 0.05
    sigma_floor: float = SIGMA_FLOOR

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


def _on_sphere(u: np.ndarray, radius: float) -> np.ndarray:
    """Standard normal rows u (..., dim) scaled in place to the sphere of the
    given radius: uniform directions. A zero row (probability zero) gives NaN."""
    if u.shape[-1] < 1 or radius <= 0:
        raise ParameterError("dim must be >= 1 and radius positive")
    # the bits of np.linalg.norm(u, axis=-1, keepdims=True), without its overhead
    norms = np.sqrt(np.add.reduce(u * u, axis=-1, keepdims=True))
    return np.divide(np.multiply(u, radius, out=u), norms, out=u)


def _draw_block(params, grid, cfg, seeds, outer_index, steps):
    """The draws of the inner steps ``steps`` of round ``outer_index``, step
    first, one set per seed: directions (b, S, n, 1 + N), initial states
    (b, S, 1) and increments (b, S, 1, N), set j drawn from ``seeds[j]`` by
    one Philox re-keyed per step (counter 0, empty buffer) to its substream."""
    n, dim = cfg.n_perturbations, grid.n_steps + 1
    raw = np.empty((len(steps), len(seeds), (n + 1) * dim))
    for j, seed in enumerate(seeds):
        keys = rng.substream_keys(seed, rng.PERTURBATION, outer_index, steps)
        bits = np.random.Philox(key=keys[0])
        state, normals = bits.state, np.random.Generator(bits)
        for key, row in zip(keys, raw[:, j]):
            state["state"]["key"] = key
            bits.state = state
            normals.standard_normal(out=row)
    U = _on_sphere(raw[..., :-dim].reshape(*raw.shape[:2], n, dim), cfg.radius)
    x0, dW = scale_noise(params, grid.dt, raw[..., -dim, None], raw[..., None, 1 - dim:])
    return U, x0, dW


def _sphere_average(U: np.ndarray, values: np.ndarray, radius: float) -> np.ndarray:
    """(1/n) * sum_j (value_j / radius^2) * U_j for U (..., n, dim), values
    (..., n), each value centered by the mean of the other n - 1."""
    n = values.shape[-1]
    if n < 2:
        raise ParameterError("leave-one-out baseline needs n >= 2")
    # the bits of .sum(axis=-1) and .mean(axis=-2), without their overhead
    values = values - (np.add.reduce(values, axis=-1, keepdims=True) - values) / (n - 1)
    return np.add.reduce(U * (values / radius**2)[..., None], axis=-2) / n


def estimate_gradient(params: GameParams, grid: TimeGrid, policies, paths,
                      cfg: LearnerConfig, lambdas, U, x0, dW):
    """Sphere-smoothed reward-gradient estimates, (S, 1 + N), for a stack of S
    arms of one game (its lambda_se is not read): an (S, 1 + N) policy
    matrix, the mean paths step first, (N + 1, S, 1) or (N + 1, S, n), the
    (S,) float array of the arms' temperatures, and the step's draws per arm,
    or one set for all (``_draw_block``): directions U (S, n, 1 + N), initial
    states x0 (S, 1), increments dW (S, 1, N) or (S, n, N), the broadcast
    forms the fastest in step-major memory, with the same bits.

    All S * n perturbed policies are scored in one kernel call, an arm's n
    on its one initial state and Brownian path. Perturbed variances are
    clamped to the floor for the evaluation only. A zero direction's NaN
    gives a NaN estimate, so its step raises LearnerDivergence.
    """
    dim = policies.shape[1]
    if dim != grid.n_steps + 1 or paths.shape[:2] != (dim, len(policies)):
        raise ParameterError(f"policies and mean paths need {dim} entries per arm")
    points = policies[:, None, :] + U
    sigma2 = np.maximum(points[..., 1:].transpose(2, 0, 1), cfg.sigma_floor, order="C")
    values = rollout(
        params, grid.dt, paths, points[..., 0], sigma2.transpose(1, 2, 0), x0, dW,
        lambda_se=lambdas[:, None, None],
    )
    return _sphere_average(U, values, cfg.radius)


def gradient_step(policies: np.ndarray, estimates: np.ndarray, cfg: LearnerConfig) -> np.ndarray:
    """Ascent step on the reward, then project variances onto [floor, inf),
    row by row on (..., 1 + N) policy vectors; non-finite rows stay so."""
    stepped = policies + cfg.step_size * np.asarray(estimates, dtype=float)
    np.maximum(stepped[..., 1:], cfg.sigma_floor, out=stepped[..., 1:])
    return stepped


class LearnerDivergence(RuntimeError):
    """A gradient step made a policy non-finite, or the mean-field update
    after a round made a mean path non-finite.

    ``outer`` and ``inner`` index the failing step (outer round k, inner step
    i, both from 0; ``inner`` is None for the mean-field update after round
    k); ``arm`` indexes, in its stack, the lowest-index arm the step made
    non-finite, and ``last_policy`` is that arm's last finite (1 + N) policy
    vector, the one the step started from or the round ended at.
    """

    def __init__(self, outer: int, inner: Optional[int], last_policy: np.ndarray, arm: int = 0):
        where = (f", inner step i={inner}: the gradient step made the policy" if inner is not None
                 else ": the mean-field update after the round made the mean path")
        super().__init__(f"learner diverged at outer round k={outer}{where} non-finite")
        self.outer = outer
        self.inner = inner
        self.last_policy = last_policy
        self.arm = arm


def inner_loop(params: GameParams, grid: TimeGrid, mean_paths: np.ndarray, cfg: LearnerConfig,
               lambdas: np.ndarray, seeds: Sequence[int], outer_index: int,
               initial: np.ndarray) -> np.ndarray:
    """One best-response round of a stack of arms of one game (arm j:
    temperature ``lambdas[j]``, ``seeds[j]``, ``mean_paths[j]``) against
    frozen (S, N + 1) mean paths.

    Starts from the (S, 1 + N) matrix ``initial`` and takes ``n_inner``
    gradient steps for all arms at once, each ``_BLOCK`` steps' draws made
    before them; arms with the same seed share every substream, drawn once.
    Returns the (S, I + 1, 1 + N) block of each arm's policy before every
    step and after the last. The first step that makes any arm's policy
    non-finite raises its LearnerDivergence.
    """
    slot = {}
    owner = np.array([slot.setdefault(seed, len(slot)) for seed in seeds])
    distinct = list(slot)
    steps = np.empty((len(seeds), cfg.n_inner + 1, grid.n_steps + 1))
    steps[:, 0] = policies = initial
    # loop-invariant kernel operands, broadcast over the n perturbations and
    # step-major, so a step reads (S, n) slabs: each block's dW is (b, S, n, N)
    n = cfg.n_perturbations
    paths = np.repeat(mean_paths.T[:, :, None], n, axis=2)
    for start in range(0, cfg.n_inner, _BLOCK):
        block = range(start, min(start + _BLOCK, cfg.n_inner))
        U, x0, dW = _draw_block(params, grid, cfg, distinct, outer_index, block)
        dW = np.repeat(dW[:, owner].transpose(0, 3, 1, 2), n, axis=3).transpose(0, 2, 3, 1)
        for i, u, x, w in zip(block, U, x0[:, owner], dW):
            u = u[owner] if 1 < len(distinct) < len(seeds) else u
            estimates = estimate_gradient(params, grid, policies, paths, cfg, lambdas, u, x, w)
            stepped = gradient_step(policies, estimates, cfg)
            if not np.isfinite(stepped).all():
                j = int(np.isfinite(stepped).all(axis=1).argmin())
                raise LearnerDivergence(outer_index, i, policies[j], arm=j)
            steps[:, i + 1] = policies = stepped
    return steps


def run(params: GameParams, grid: TimeGrid, cfg: LearnerConfig, lambdas,
        seeds: Sequence[int]) -> tuple:
    """Fictitious play for a stack of S arms of one game in lockstep: arm j
    plays at temperature ``lambdas[j]`` (the game's own lambda_se is not
    read) on the substreams of ``seeds[j]``, from the mean path 0 and the
    ``_initial_policy`` of (seeds[j], INITIAL_POLICY, 0). Returns the
    (S, K, I + 1, 1 + N) policies before every step and after each round's
    last, and the (S, K + 1, N + 1) mean paths, each arm's bit-identical to
    its run alone. The first step, or mean-field update after a round, that
    makes any arm non-finite stops the whole stack and raises the
    LearnerDivergence of the lowest-index such arm.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    n = grid.n_steps
    steps = np.empty((len(seeds), cfg.n_outer, cfg.n_inner + 1, n + 1))
    mean_paths = np.zeros((len(seeds), cfg.n_outer + 1, n + 1))
    policies = np.array([_initial_policy(n, rng.substream(seed, rng.INITIAL_POLICY, 0),
                                         cfg.sigma_floor) for seed in seeds])
    for k in range(cfg.n_outer):
        steps[:, k] = inner_loop(params, grid, mean_paths[:, k], cfg, lambdas, seeds, k, policies)
        policies = steps[:, k, -1]
        # the fictitious-play update: the mean path when every agent plays
        # the policy the round ended at
        mean_paths[:, k + 1] = propagate_mean_field(
            params, grid, policies[:, 0], policies[:, 1:], mean_paths[:, k], lambdas
        )[0]
        finite = np.isfinite(mean_paths[:, k + 1]).all(axis=1)
        if not finite.all():
            # a finite but huge gain overflows the update
            j = int(finite.argmin())
            raise LearnerDivergence(k, None, policies[j], arm=j)
    return steps, mean_paths
