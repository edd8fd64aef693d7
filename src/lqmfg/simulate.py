"""Discrete-time dynamics and payoff sampling under Gaussian feedback policies.

The controlled state aggregates the policy's action law in closed form: for a
feedback law N(m_hat*(m_s - x), sigma2_s) the per-step drift and squared
diffusion are the policy's first and second action moments, so no inner
sampling over actions is needed. Paths differ only through the initial state
and the Brownian increments. The same closure makes the state's mean and
variance exact linear recursions: ``discrete_moments`` is the one of them,
giving the mean path (the learner's fictitious-play update), the variance
path and the expected reward (the harness's score) in one batched pass.

Determinism contract: all draws for a batch come from one counter-based
substream in a fixed layout (row per path, fixed chunk size), and reductions
use numpy's pairwise summation, so results are bit-identical for a given seed
regardless of evaluation order or thread count: the chunk loop draws on a
helper thread, and only that thread reads the stream, in chunk order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import GaussianFeedbackPolicy
from .params import DomainError, GameParams, ParameterError, TimeGrid

# Default floor protecting log-entropy and square roots from perturbed or
# learner-updated variances; see LearnerConfig.sigma_floor.
SIGMA_FLOOR = 1e-6

# Fixed batch chunk so draw layout never depends on available memory.
_CHUNK = 1 << 14


def check_path(path, grid: TimeGrid, stack: bool = False) -> np.ndarray:
    """``path`` as a float array: one mean path m_0..m_N on the grid, or
    with ``stack`` also a (..., N + 1) stack of them. Raises ParameterError
    naming a mismatched shape or a NaN or infinite value."""
    path = np.asarray(path, dtype=float)
    if path.shape[-1:] != (grid.n_steps + 1,) or (path.ndim > 1 and not stack):
        raise ParameterError(f"mean path has shape {path.shape}, grid has {grid.n_steps} steps")
    if not np.isfinite(path).all():
        raise ParameterError("mean path values must be finite")
    return path


@dataclass(frozen=True)
class PolicyParams:
    """Gaussian feedback policy on a grid: scalar gain plus per-step
    exploration variances."""

    m_hat: float
    sigma2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sigma2", np.asarray(self.sigma2, dtype=float))
        if self.sigma2.ndim != 1:
            raise ParameterError("sigma2 must be a 1-d per-step schedule")
        if not np.isfinite(self.sigma2).all() or (self.sigma2 <= 0.0).any():
            raise DomainError("per-step variances must be finite and strictly positive")
        if not math.isfinite(self.m_hat):
            raise ParameterError("m_hat must be finite")


def discretize_policy(policy: GaussianFeedbackPolicy, grid: TimeGrid) -> PolicyParams:
    """Per-step parameters of a continuous-time policy (left-endpoint variances).

    An equilibrium's variances lambda / (D^2 * riccati) underflow or
    overflow for coefficients far from the reference scale; the error names
    the keys instead of numpy warnings.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sigma2 = np.asarray(policy.variance_fn(grid.step_times()), dtype=float)
    if not (np.isfinite(sigma2).all() and (sigma2 > 0.0).all()):
        raise ParameterError(
            "game: the policy variances lambda_se / (D^2 * riccati) on the grid are not "
            "finite and positive: game.D, game.lambda_se and their product are outside "
            "the closed forms' range"
        )
    return PolicyParams(m_hat=policy.mean_coeff, sigma2=sigma2)


def rollout(
    params: GameParams,
    dt: float,
    m_values: np.ndarray,
    m_hat,
    sigma2,
    x0,
    dW: np.ndarray,
    states: np.ndarray | None = None,
    lambda_se=None,
) -> np.ndarray:
    """Euler rollout kernel: realized rewards of a batch of paths.

    Path j starts at x0[j] and is driven by the Brownian increments
    dW[j, :]. x0 is a scalar or (n,); dW is (n, N), or (N,) for one noise
    path shared by all n paths; m_hat is a scalar or (n,), sigma2 (N,) or
    (n, N), so one call can score n different policies on common noise.
    All inputs broadcast over leading path axes, and so do the trailing
    axes of m_values ((N + 1,) or (N + 1, ...)) and the entropy weight
    ``lambda_se`` (default ``params.lambda_se``): a stack of arms can have
    its own mean paths and weights. A path's reward does not depend on the
    batch it runs in. The kernel reads dW, sigma2 and m_values one step at a
    time, so step-major memory (a Fortran-ordered dW, or a transposed
    step-first array) is read contiguously; any layout gives the same bits.
    The inputs are not modified. The reward is the running quadratic
    penalty plus the Gaussian entropy bonus
    0.5 * lambda_se * log(2*pi*e*sigma2_s) per step, and the terminal
    quadratic penalty. When ``states`` is given it must have shape
    (n, N + 1) and receives the state paths.
    """
    n_steps = dW.shape[-1]
    m_hat = np.asarray(m_hat)
    sigma2 = np.asarray(sigma2)
    lam = params.lambda_se if lambda_se is None else lambda_se
    shape = np.broadcast(x0, m_hat, sigma2[..., 0], dW[..., 0]).shape
    a = params.A + params.B * m_hat
    m_hat2 = m_hat**2
    # 0-d arrays: cheaper operands than Python floats, with the same bits
    dt, quad, diff2 = np.asarray(dt), np.asarray(-0.5 * params.Q), np.asarray(params.D**2)
    # Preallocated buffers, updated in place where possible (an in-place pass
    # is the cheaper one). Every element goes through the operations of
    #   total += quad * gap**2 * dt;  total += bonus_s
    #   x = x + a * gap * dt + sqrt(D^2 * (m_hat^2 * gap**2 + sigma2_s)) * dW_s
    # in this order, with only the operands of products swapped, so the bits
    # do not depend on the buffering. The entropy bonus does not depend on
    # the state, so all steps' bonuses are computed at once. A zero weight
    # adds signed zeros, which leave every total as it is.
    bonus = 0.5 * lam * np.log(2.0 * np.pi * np.e * sigma2) * dt
    gap, gap2, x = np.empty(shape), np.empty(shape), np.empty(shape)
    total = np.zeros(shape)
    x[...] = x0
    if states is not None:
        states[:, 0] = x
    for s in range(n_steps):
        np.subtract(m_values[s], x, out=gap)
        np.square(gap, out=gap2)
        gap *= a
        gap *= dt
        x += gap
        np.multiply(quad, gap2, out=gap)
        gap *= dt
        total += gap
        total += bonus[..., s]
        gap2 *= m_hat2
        gap2 += sigma2[..., s]
        gap2 *= diff2
        np.sqrt(gap2, out=gap2)
        gap2 *= dW[..., s]
        x += gap2
        if states is not None:
            states[:, s + 1] = x
    np.subtract(x, m_values[n_steps], out=gap)
    np.square(gap, out=gap)
    gap *= -0.5 * params.Q_bar
    total += gap
    return total


def scale_noise(params: GameParams, dt: float, z0: np.ndarray, z: np.ndarray):
    """Standard normals z0 and z scaled in place to initial states and increments."""
    z0 *= np.sqrt(params.xi_var)
    z0 += params.xi_mean
    z *= np.sqrt(dt)
    return z0, z


def _fill(stream: np.random.Generator, z0: np.ndarray, z: np.ndarray) -> None:
    """The fixed batch layout: normals into z0 (n,), then z (n, N) row by row."""
    stream.standard_normal(out=z0)
    stream.standard_normal(out=z)


def _rollout_chunks(params, grid, policy, mean_field, n_paths, stream, states=None, on_chunk=None):
    """Rewards of n_paths rollouts drawn chunk by chunk (fixed draw layout): a helper
    thread fills the next chunk's draws once the current one's are copied out, while
    this thread rolls them out and hands the rewards to ``on_chunk(start, rewards)``."""
    from concurrent.futures import ThreadPoolExecutor

    if len(policy.sigma2) != grid.n_steps:
        raise ParameterError(
            f"policy has {len(policy.sigma2)} variance entries, grid needs {grid.n_steps}"
        )
    path = check_path(mean_field, grid)
    rewards = np.empty(n_paths)
    z0, z = np.empty(min(n_paths, _CHUNK)), np.empty((min(n_paths, _CHUNK), grid.n_steps))
    dW = np.empty_like(z, order="F")
    with ThreadPoolExecutor(1) as helper:
        filled = helper.submit(_fill, stream, z0, z)
        for start in range(0, n_paths, _CHUNK):
            stop = min(start + _CHUNK, n_paths)
            n, following = stop - start, min(_CHUNK, n_paths - stop)
            filled.result()
            dW[:n] = z[:n]
            x0 = z0[:n].copy()
            if following:
                filled = helper.submit(_fill, stream, z0[:following], z[:following])
            x0, chunk_dW = scale_noise(params, grid.dt, x0, dW[:n])
            rewards[start:stop] = rollout(
                params, grid.dt, path, policy.m_hat, policy.sigma2, x0, chunk_dW,
                None if states is None else states[start:stop],
            )
            if on_chunk is not None:
                on_chunk(start, rewards[start:stop])
    return rewards


def sample_rewards(
    params: GameParams,
    grid: TimeGrid,
    policy: PolicyParams,
    mean_field: np.ndarray,
    n_paths: int,
    stream: np.random.Generator,
    on_chunk=None,
) -> np.ndarray:
    """Realized rewards of n_paths independent paths against a mean path (fixed
    draw layout); ``on_chunk(start, rewards)`` gets each chunk's as it is done."""
    return _rollout_chunks(params, grid, policy, mean_field, n_paths, stream, on_chunk=on_chunk)


def simulate_states(
    params: GameParams,
    grid: TimeGrid,
    policy: PolicyParams,
    mean_field: np.ndarray,
    n_paths: int,
    stream: np.random.Generator,
) -> np.ndarray:
    """State paths for n_paths independent rollouts, shape (n_paths, N + 1)."""
    states = np.empty((n_paths, grid.n_steps + 1))
    _rollout_chunks(params, grid, policy, mean_field, n_paths, stream, states)
    return states


def mean_and_stderr(rewards: np.ndarray) -> tuple[float, float]:
    """Sample mean of the rewards and its standard error."""
    return float(rewards.mean()), float(rewards.std(ddof=1) / np.sqrt(len(rewards)))


def discrete_moments(params: GameParams, grid: TimeGrid, m_hat, sigma2, path, lambda_se=None):
    """Exact moments and expected reward of the discrete dynamics: every agent
    plays gain ``m_hat`` and per-step variances ``sigma2`` against ``path``.

    Gains (...), variances (..., N) and mean paths (..., N + 1) broadcast
    against each other, and the entropy weight ``lambda_se`` (default
    ``params.lambda_se``) broadcasts like the gains. Returns the state's mean
    path and variance path, (..., N + 1) each, and the expected reward (...).
    Mean and variance close into linear recursions because drift is affine
    and squared diffusion quadratic in the state, so no sampling is needed:
    the reward is the systematic part of any Monte Carlo estimate of it, and
    the mean path is the fictitious-play update (it starts at the initial
    mean and reverts toward ``path`` at rate A + B*m_hat). Every operation is
    elementwise, step by step, so a row's values do not depend on the batch
    it is computed in; a huge gain overflows to non-finite values, which are
    returned as they are.
    """
    m = check_path(path, grid, stack=True)
    sigma2 = np.asarray(sigma2, dtype=float)
    if sigma2.shape[-1:] != (grid.n_steps,):
        raise ParameterError(f"sigma2 of shape {sigma2.shape} does not fit the grid")
    dt, k = grid.dt, np.asarray(m_hat, dtype=float)
    a = params.A + params.B * k
    shrink, k2 = 1.0 - a * dt, k * k
    noise, quad = dt * params.D**2, 0.5 * params.Q * dt
    # a zero weight adds signed zeros, which leave every total as it is
    lam = params.lambda_se if lambda_se is None else np.asarray(lambda_se, dtype=float)[..., None]
    bonus = (0.5 * lam * dt) * np.log(2.0 * np.pi * np.e * sigma2)
    shape = np.broadcast_shapes(k.shape, sigma2.shape[:-1], m.shape[:-1]) + m.shape[-1:]
    mean, var, total = np.empty(shape), np.empty(shape), 0.0
    mean[..., 0], var[..., 0] = params.xi_mean, params.xi_var
    for s in range(grid.n_steps):
        gap = m[..., s] - mean[..., s]
        gap2 = var[..., s] + gap * gap
        total = total - quad * gap2 + bonus[..., s]
        # (a * gap) * dt: the order the learner's pinned mean paths were made in
        mean[..., s + 1] = mean[..., s] + a * gap * dt
        var[..., s + 1] = shrink * shrink * var[..., s] + noise * (k2 * gap2 + sigma2[..., s])
    gap = m[..., -1] - mean[..., -1]
    return mean, var, total - 0.5 * params.Q_bar * (var[..., -1] + gap * gap)
